package qgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// foreignFlags are flags of other tools that README.md quotes inline:
// the Go toolchain's and curl's.
var foreignFlags = map[string]bool{
	"race": true, "count": true, "run": true, "fuzz": true, "fuzztime": true, // go test
	"s": true, "d": true, // curl
}

// TestReadmeFlagsAreDeclared checks that every `-flag` README.md quotes
// inline is declared by one of the commands under cmd/, so a flag that
// is renamed or deleted cannot live on in the docs.
func TestReadmeFlagsAreDeclared(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	declared := declaredFlags(t)
	if bad := undeclared(readme, declared); len(bad) > 0 {
		t.Fatalf("README.md quotes flags no command declares: %v", bad)
	}
	planted := readme + "\nTune it with `-watch-stall-timeout`.\n"
	if bad := undeclared(planted, declared); !slices.Equal(bad, []string{"-watch-stall-timeout"}) {
		t.Fatalf("a planted stale flag went unnoticed: undeclared = %v", bad)
	}
}

// TestReadmePathsExist checks that every internal/…, cmd/… or examples/…
// path and every .go file README.md quotes inline exists in the tree, so a
// package or file that is moved or deleted cannot live on in the docs.
func TestReadmePathsExist(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	if bad := missingPaths(t, readme); len(bad) > 0 {
		t.Fatalf("README.md quotes paths the tree does not have: %v", bad)
	}
	planted := readme + "\nThe read fleet lives in `internal/replica/replica.go`.\n"
	if bad := missingPaths(t, planted); !slices.Equal(bad, []string{"internal/replica/replica.go"}) {
		t.Fatalf("a planted stale path went unnoticed: missing = %v", bad)
	}
}

// TestReadmeConfigFieldsExist checks that every `Config.X` or
// `pkg.Config.X` that README.md or an internal/*/README.md quotes inline
// names an exported field of that package's Config, so a field that is
// deleted cannot live on in the docs. A bare `Config.X` means the package's
// own Config in a package README, and any package's in the root README.
func TestReadmeConfigFieldsExist(t *testing.T) {
	fields := configFields(t)
	docs, err := filepath.Glob("internal/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, "README.md") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		home := ""
		if dir := filepath.Dir(path); dir != "." {
			home = filepath.Base(dir)
		}
		if bad := staleFields(string(b), home, fields); len(bad) > 0 {
			t.Errorf("%s quotes Config fields no package declares: %v", path, bad)
		}
	}
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	planted := string(b) + "\nQ-cut plans within `core.Config.QcutBudget`.\n"
	if bad := staleFields(planted, "", fields); !slices.Equal(bad, []string{"core.Config.QcutBudget"}) {
		t.Fatalf("a planted stale field went unnoticed: stale = %v", bad)
	}
}

// TestRoadmapLineRefsResolve checks that every `name.go:N` or `name.go:N–M`
// ROADMAP.md quotes inline names a file of the tree with at least that many
// lines, so a reference into a file that shrank or went cannot live on. A
// path resolves from the root or from internal/; a bare name, by any file of
// that base name.
func TestRoadmapLineRefsResolve(t *testing.T) {
	b, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap := string(b)
	lines := goFileLines(t)
	if bad := unresolvedLineRefs(roadmap, lines); len(bad) > 0 {
		t.Fatalf("ROADMAP.md quotes file:line references the tree does not have: %v", bad)
	}
	planted := roadmap + "\nThe barrier's phases are listed at `global.go:999`.\n"
	if bad := unresolvedLineRefs(planted, lines); !slices.Equal(bad, []string{"global.go:999"}) {
		t.Fatalf("a planted stale line reference went unnoticed: unresolved = %v", bad)
	}
}

// TestReadmeIdentifiersExist checks that every `pkg.Name` README.md quotes
// inline, where internal/pkg is a package of the tree, names a top-level
// declaration in that package's non-test files, so a type, function,
// variable or constant that is renamed or deleted cannot live on in the
// docs.
func TestReadmeIdentifiersExist(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	decls := topLevelDecls(t)
	if bad := undeclaredIdents(readme, decls); len(bad) > 0 {
		t.Fatalf("README.md quotes identifiers no package declares: %v", bad)
	}
	planted := readme + "\nPinned views are refcounted by `delta.Registry`.\n"
	if bad := undeclaredIdents(planted, decls); !slices.Equal(bad, []string{"delta.Registry"}) {
		t.Fatalf("a planted stale identifier went unnoticed: undeclared = %v", bad)
	}
}

var (
	fence      = regexp.MustCompile("(?ms)^```.*?^```")
	inlineCode = regexp.MustCompile("`([^`]+)`")
	flagToken  = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=.*)?$`)
	pathToken  = regexp.MustCompile(`^(?:\./)?((?:internal|cmd|examples)/\S*|\S+\.go)$`)
	lineSuffix = regexp.MustCompile(`:[0-9][0-9–-]*$`) // file.go:12 or file.go:12–30
	selector   = regexp.MustCompile(`\.[A-Za-z_]\w*$`) // internal/delta.View
	fieldToken = regexp.MustCompile(`^(?:([a-z]\w*)\.)?Config\.([A-Z]\w*)$`)
	lineRef    = regexp.MustCompile(`^(\S+\.go):([0-9]+)(?:[–/-]([0-9]+))?$`) // file.go:12, :12–30 or :12/30
	identToken = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)$`)               // delta.Log
)

// undeclaredIdents returns, sorted and once each, the pkg.Name tokens quoted
// in inline code spans of md whose pkg is a key of decls (a package under
// internal/) and whose Name that package does not declare.
func undeclaredIdents(md string, decls map[string]map[string]bool) []string {
	md = fence.ReplaceAllString(md, "")
	var bad []string
	for _, span := range inlineCode.FindAllStringSubmatch(md, -1) {
		for _, tok := range strings.Fields(span[1]) {
			m := identToken.FindStringSubmatch(tok)
			if m == nil || decls[m[1]] == nil || decls[m[1]][m[2]] {
				continue
			}
			if !slices.Contains(bad, tok) {
				bad = append(bad, tok)
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// topLevelDecls returns the names of the top-level functions, types,
// variables and constants in the non-test files of each internal/<pkg>,
// by pkg.
func topLevelDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no package sources under internal/: %v", err)
	}
	decls := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = make(map[string]bool)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[pkg][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							decls[pkg][name.Name] = true
						}
					}
				}
			}
		}
	}
	return decls
}

// unresolvedLineRefs returns, sorted and once each, the file:line references
// quoted in inline code spans of md that name no file of lines (path from
// the root → line count) with at least that many lines.
func unresolvedLineRefs(md string, lines map[string]int) []string {
	md = fence.ReplaceAllString(md, "")
	var bad []string
	for _, span := range inlineCode.FindAllStringSubmatch(md, -1) {
		for _, tok := range strings.Fields(span[1]) {
			m := lineRef.FindStringSubmatch(tok)
			if m == nil {
				continue
			}
			need, _ := strconv.Atoi(m[2])
			if hi, err := strconv.Atoi(m[3]); err == nil {
				need = max(need, hi)
			}
			ok := lines[m[1]] >= need || lines["internal/"+m[1]] >= need
			if !strings.Contains(m[1], "/") {
				for path, n := range lines {
					ok = ok || filepath.Base(path) == m[1] && n >= need
				}
			}
			if !ok && !slices.Contains(bad, tok) {
				bad = append(bad, tok)
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// goFileLines returns the line count of every .go file of the tree, by its
// path from the root.
func goFileLines(t *testing.T) map[string]int {
	t.Helper()
	lines := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		lines[filepath.ToSlash(path)] = strings.Count(string(b), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// staleFields returns, sorted and once each, the Config fields quoted in
// inline code spans of md that fields does not list. A bare Config.X is
// looked up in package home ("" = every package).
func staleFields(md, home string, fields map[string]map[string]bool) []string {
	md = fence.ReplaceAllString(md, "")
	var bad []string
	for _, span := range inlineCode.FindAllStringSubmatch(md, -1) {
		for _, tok := range strings.Fields(span[1]) {
			m := fieldToken.FindStringSubmatch(tok)
			if m == nil {
				continue
			}
			pkg := m[1]
			if pkg == "" {
				pkg = home
			}
			if !fields[pkg][m[2]] && !slices.Contains(bad, tok) {
				bad = append(bad, tok)
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// configFields returns the exported fields of every `type Config struct`
// under internal/, by package name; key "" holds the union.
func configFields(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fields := map[string]map[string]bool{"": {}}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			pkg := f.Name.Name
			if fields[pkg] == nil {
				fields[pkg] = make(map[string]bool)
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() {
						fields[pkg][name.Name], fields[""][name.Name] = true, true
					}
				}
			}
			return false
		})
		return nil
	})
	if err != nil || len(fields) == 1 {
		t.Fatalf("no Config struct under internal/: %v", err)
	}
	return fields
}

// missingPaths returns, sorted and once each, the paths quoted in inline
// code spans of md that match no file or directory of the tree.
func missingPaths(t *testing.T, md string) []string {
	t.Helper()
	md = fence.ReplaceAllString(md, "")
	var bad []string
	for _, span := range inlineCode.FindAllStringSubmatch(md, -1) {
		for _, tok := range strings.Fields(span[1]) {
			m := pathToken.FindStringSubmatch(lineSuffix.ReplaceAllString(tok, ""))
			if m == nil {
				continue
			}
			path := m[1]
			if !strings.HasSuffix(path, ".go") {
				path = selector.ReplaceAllString(path, "")
			}
			matches, err := filepath.Glob(path)
			if err != nil {
				t.Fatalf("quoted path %q: %v", tok, err)
			}
			if len(matches) == 0 && !slices.Contains(bad, path) {
				bad = append(bad, path)
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// undeclared returns, sorted and once each, the flags quoted in inline
// code spans of md that are neither declared nor foreign.
func undeclared(md string, declared map[string]bool) []string {
	md = fence.ReplaceAllString(md, "")
	var bad []string
	for _, span := range inlineCode.FindAllStringSubmatch(md, -1) {
		for _, tok := range strings.Fields(span[1]) {
			m := flagToken.FindStringSubmatch(tok)
			if m == nil || declared[m[1]] || foreignFlags[m[1]] {
				continue
			}
			if !slices.Contains(bad, "-"+m[1]) {
				bad = append(bad, "-"+m[1])
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// declaredFlags returns the names of every flag.X("name", ...) call in
// the commands' sources.
func declaredFlags(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no command sources under cmd/: %v", err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
			}
			return true
		})
	}
	return names
}
