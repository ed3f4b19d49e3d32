package qgraph_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// foreignFlags are flags of other tools that the docs quote inline: the Go
// toolchain's and curl's.
var foreignFlags = map[string]bool{
	"race": true, "count": true, "run": true, "fuzz": true, "fuzztime": true, "tags": true, "v": true, "o": true, // go test, go build
	"s": true, "d": true, // curl
}

// docs are the documents whose quoted flags, paths and endpoints must exist:
// the README and the skill that tells how to build and drive a deployment.
var docs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

// readDocs returns the text of each of docs, and README.md's on its own.
func readDocs(t *testing.T) (map[string]string, string) {
	t.Helper()
	texts := make(map[string]string)
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts[path] = string(b)
	}
	return texts, texts["README.md"]
}

// TestReadmeFlagsAreDeclared checks that every `-flag` the docs quote
// inline is declared by one of the commands under cmd/, so a flag that
// is renamed or deleted cannot live on in the docs.
func TestReadmeFlagsAreDeclared(t *testing.T) {
	texts, readme := readDocs(t)
	declared := declaredFlags(t)
	for path, text := range texts {
		if bad := undeclared(text, declared); len(bad) > 0 {
			t.Errorf("%s quotes flags no command declares: %v", path, bad)
		}
	}
	planted := readme + "\nTune it with `-watch-stall-timeout`.\n"
	if bad := undeclared(planted, declared); !slices.Equal(bad, []string{"-watch-stall-timeout"}) {
		t.Fatalf("a planted stale flag went unnoticed: undeclared = %v", bad)
	}
}

// TestReadmePathsExist checks that every internal/…, cmd/…, examples/… or
// scripts/… path and every .go file the docs quote inline exists in the
// tree, so a package or file that is moved or deleted cannot live on in the
// docs.
func TestReadmePathsExist(t *testing.T) {
	texts, readme := readDocs(t)
	for path, text := range texts {
		if bad := missingPaths(t, text); len(bad) > 0 {
			t.Errorf("%s quotes paths the tree does not have: %v", path, bad)
		}
	}
	planted := readme + "\nThe read fleet lives in `internal/replica/replica.go`.\n"
	if bad := missingPaths(t, planted); !slices.Equal(bad, []string{"internal/replica/replica.go"}) {
		t.Fatalf("a planted stale path went unnoticed: missing = %v", bad)
	}
}

// retiredEndpoints are paths the docs quote as history, not as routes: the
// read fleet's aggregation and the removed SLO and incident endpoints. Each
// must stay unrouted.
var retiredEndpoints = []string{"/fleet/*", "/slo", "/debug/incidents", "/debug/incident/latest"}

// TestReadmeEndpointsExist checks that every endpoint the docs quote (a
// back-ticked `METHOD /path` or `/path`, or the path of a URL on a curl
// line) is a route a mux.HandleFunc of the tree's non-test code registers,
// so a route that is deleted cannot live on in the docs.
func TestReadmeEndpointsExist(t *testing.T) {
	texts, readme := readDocs(t)
	routes := registeredRoutes(t)
	for path, text := range texts {
		if bad := unrouted(text, routes); len(bad) > 0 {
			t.Errorf("%s quotes endpoints no route serves: %v", path, bad)
		}
	}
	for _, p := range retiredEndpoints {
		if slices.ContainsFunc(routes, func(r string) bool { return routeMatches(r, "", p) }) {
			t.Errorf("%s is quoted as retired, but a route serves it", p)
		}
	}
	// An async-result route, which the API does not serve.
	const stale = "GET /result/{id}"
	planted := readme + "\nFetch an async answer with `" + stale + "`.\n"
	if bad := unrouted(planted, routes); !slices.Equal(bad, []string{stale}) {
		t.Fatalf("a planted stale endpoint went unnoticed: unrouted = %v", bad)
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

// TestReadmeMetricFamiliesExist checks that every `qgraph_*` metric family
// the docs quote inline is named by a string literal of the tree's non-test
// code outside benchmark/, as every registration names it, so a family that
// is renamed or deleted cannot live on in the docs. A quoted name ending in
// * stands for the families it prefixes, of which there must be one.
func TestReadmeMetricFamiliesExist(t *testing.T) {
	texts, readme := readDocs(t)
	families := registeredFamilies(t)
	for path, text := range texts {
		if bad := unregistered(text, families); len(bad) > 0 {
			t.Errorf("%s quotes metric families no code registers: %v", path, bad)
		}
	}
	planted := readme + "\nWatch `qgraph_replica_lag_versions` and `qgraph_router_*`.\n"
	if bad := unregistered(planted, families); !slices.Equal(bad, []string{"qgraph_replica_lag_versions", "qgraph_router_*"}) {
		t.Fatalf("a planted stale family went unnoticed: unregistered = %v", bad)
	}
}

// retiredKeys are key names the docs quote as history, not as keys: the
// read fleet's benchmark workload. Each must stay unused by the code.
var retiredKeys = []string{"fleet_read"}

// TestDocsKeyNamesExist checks that every bare lower_snake_case word the
// docs quote inline (a JSON key, an op kind, an event type, a metric family)
// is a string literal of the tree's non-test code outside benchmark/, a
// struct tag's JSON name among them, or a workload or metric name in
// BENCHMARK.json, so a key that is renamed or deleted cannot live on in the
// docs.
func TestDocsKeyNamesExist(t *testing.T) {
	texts, readme := readDocs(t)
	known := knownKeys(t)
	for path, text := range texts {
		if bad := unknownKeys(text, known); len(bad) > 0 {
			t.Errorf("%s quotes key names neither the code nor BENCHMARK.json has: %v", path, bad)
		}
	}
	for _, k := range retiredKeys {
		if known[k] {
			t.Errorf("%s is quoted as retired, but the code or BENCHMARK.json names it", k)
		}
	}
	planted := readme + "\nWatch `/stats` `max_worker_lag`.\n"
	if bad := unknownKeys(planted, known); !slices.Equal(bad, []string{"max_worker_lag"}) {
		t.Fatalf("a planted stale key went unnoticed: unknown = %v", bad)
	}
}

// TestMetricFamiliesDocumented checks the converse: every `qgraph_*` family
// the tree's non-test code outside benchmark/ names in a string literal is
// quoted inline in README.md, by name or by a prefix ending in *, so a
// family that nothing reads cannot be added unnoticed.
func TestMetricFamiliesDocumented(t *testing.T) {
	_, readme := readDocs(t)
	families := registeredFamilies(t)
	if bad := undocumented(readme, families); len(bad) > 0 {
		t.Errorf("README.md quotes no metric family for: %v", bad)
	}
	planted := append(slices.Clone(families), "qgraph_planted_total")
	if bad := undocumented(readme, planted); !slices.Equal(bad, []string{"qgraph_planted_total"}) {
		t.Fatalf("a planted undocumented family went unnoticed: undocumented = %v", bad)
	}
}

var (
	fence      = regexp.MustCompile("(?ms)^```.*?^```")
	inlineCode = regexp.MustCompile("`([^`]+)`")
	flagToken  = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=.*)?$`)
	pathToken  = regexp.MustCompile(`^(?:\./)?((?:internal|cmd|examples|scripts)/\S*|\S+\.go)$`)
	lineSuffix = regexp.MustCompile(`:[0-9][0-9–-]*$`) // file.go:12 or file.go:12–30
	selector   = regexp.MustCompile(`\.[A-Z]\w*$`)     // internal/delta.View
	fieldToken = regexp.MustCompile(`^(?:([a-z]\w*)\.)?Config\.([A-Z]\w*)$`)
	lineRef    = regexp.MustCompile(`^(\S+\.go):([0-9]+)(?:[–/-]([0-9]+))?$`) // file.go:12, :12–30 or :12/30
	identToken = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)$`)               // delta.Log
	methodPath = regexp.MustCompile(`^(?:(GET|HEAD|POST|PUT|PATCH|DELETE) )?(/[a-z][^\s.?]*)(?:\?\S*)?$`)
	family     = regexp.MustCompile(`^qgraph_[a-z0-9_]*\*?`)           // qgraph_cache_entries, qgraph_health_*
	familyLit  = regexp.MustCompile(`^qgraph_[a-z0-9_]+$`)             // qgraph_cache_entries
	snakeKey   = regexp.MustCompile(`^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$`) // max_batches_per_fsync
	curlURL    = regexp.MustCompile(`(?:localhost|127\.0\.0\.1)?:[0-9]+(/[^\s'"?` + "`" + `]*)`)
)

// unrouted returns, sorted and once each, the endpoints quoted in md that
// match none of routes: back-ticked `METHOD /path` or `/path` spans, and the
// paths of the URLs on lines that run curl, fenced or not. A path with a
// dot names a file (`/data/bw.qgr`), not an endpoint. A path segment in
// braces or angle brackets is a wildcard; it matches a wildcard of the
// route in its position, whatever either is named.
func unrouted(md string, routes []string) []string {
	var quoted []string
	for _, line := range strings.Split(md, "\n") {
		if strings.Contains(line, "curl ") {
			for _, m := range curlURL.FindAllStringSubmatch(line, -1) {
				quoted = append(quoted, m[1])
			}
		}
	}
	for _, span := range inlineCode.FindAllStringSubmatch(fence.ReplaceAllString(md, ""), -1) {
		if methodPath.MatchString(span[1]) && !slices.Contains(retiredEndpoints, span[1]) {
			quoted = append(quoted, span[1])
		}
	}
	var bad []string
	for _, q := range quoted {
		m := methodPath.FindStringSubmatch(q)
		if m == nil || slices.ContainsFunc(routes, func(r string) bool { return routeMatches(r, m[1], m[2]) }) {
			continue
		}
		if !slices.Contains(bad, q) {
			bad = append(bad, q)
		}
	}
	slices.Sort(bad)
	return bad
}

// routeMatches reports whether a ServeMux pattern serves method ("" = any)
// and path.
func routeMatches(pattern, method, path string) bool {
	rm, rp, ok := strings.Cut(pattern, " ")
	if !ok {
		rm, rp = "", pattern
	}
	if rm != "" && method != "" && rm != method && !(rm == "GET" && method == "HEAD") {
		return false
	}
	wild := regexp.MustCompile(`^(\{.*\}|<.*>)$`).MatchString
	rs, ps := strings.Split(rp, "/"), strings.Split(path, "/")
	if len(rs) != len(ps) {
		return false
	}
	for i := range rs {
		if rs[i] != ps[i] && !(wild(rs[i]) && ps[i] != "") || wild(ps[i]) && !wild(rs[i]) {
			return false
		}
	}
	return true
}

// registeredRoutes returns the patterns the tree's non-test code passes
// to a HandleFunc call as a string literal.
func registeredRoutes(t *testing.T) []string {
	t.Helper()
	handle := regexp.MustCompile(`\.HandleFunc\("([^"]+)"`)
	var routes []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range handle.FindAllSubmatch(b, -1) {
			routes = append(routes, string(m[1]))
		}
		return err
	})
	if err != nil || len(routes) == 0 {
		t.Fatalf("no routes registered in the tree: %v", err)
	}
	return routes
}

// unregistered returns, sorted and once each, the metric families quoted
// in inline code spans of md, labels aside, that match none of families: a
// name ending in * matches the families it prefixes.
func unregistered(md string, families []string) []string {
	var bad []string
	for _, name := range quotedFamilies(md) {
		if !slices.ContainsFunc(families, func(f string) bool { return familyMatches(name, f) }) {
			bad = append(bad, name)
		}
	}
	return bad
}

// undocumented returns, sorted and once each, the families that no metric
// family quoted in md matches.
func undocumented(md string, families []string) []string {
	quoted := quotedFamilies(md)
	var bad []string
	for _, f := range families {
		if !slices.Contains(bad, f) && !slices.ContainsFunc(quoted, func(name string) bool { return familyMatches(name, f) }) {
			bad = append(bad, f)
		}
	}
	slices.Sort(bad)
	return bad
}

// quotedFamilies returns, sorted and once each, the metric families quoted
// in inline code spans of md, labels aside.
func quotedFamilies(md string) []string {
	var names []string
	for _, span := range inlineCode.FindAllStringSubmatch(fence.ReplaceAllString(md, ""), -1) {
		for _, tok := range strings.Fields(span[1]) {
			if name := family.FindString(tok); name != "" && !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	return names
}

// familyMatches reports whether the quoted name stands for family f: it is
// f, or it ends in * and prefixes f.
func familyMatches(name, f string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	return f == name || wild && strings.HasPrefix(f, prefix)
}

// registeredFamilies returns, sorted, the qgraph_* names the non-test code
// outside benchmark/ quotes as a whole string literal.
func registeredFamilies(t *testing.T) []string {
	t.Helper()
	var families []string
	for lit := range codeLiterals(t) {
		if familyLit.MatchString(lit) {
			families = append(families, lit)
		}
	}
	if len(families) == 0 {
		t.Fatal("no metric families registered in the tree")
	}
	slices.Sort(families)
	return families
}

// unknownKeys returns, sorted and once each, the inline code spans of md
// that are one bare lower_snake_case word and neither a key of known nor
// retired.
func unknownKeys(md string, known map[string]bool) []string {
	var bad []string
	for _, span := range inlineCode.FindAllStringSubmatch(fence.ReplaceAllString(md, ""), -1) {
		k := span[1]
		if snakeKey.MatchString(k) && !known[k] && !slices.Contains(retiredKeys, k) && !slices.Contains(bad, k) {
			bad = append(bad, k)
		}
	}
	slices.Sort(bad)
	return bad
}

// knownKeys returns codeLiterals and the workload and metric names of
// BENCHMARK.json.
func knownKeys(t *testing.T) map[string]bool {
	t.Helper()
	known := codeLiterals(t)
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range slices.Concat(bench.Workloads, bench.EndToEnd, bench.PerLayer) {
		known[w.Name] = true
	}
	return known
}

// codeLiterals returns the string literals of the tree's non-test code
// outside benchmark/, with the JSON name of each that is a struct tag.
func codeLiterals(t *testing.T) map[string]bool {
	t.Helper()
	lits := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == "benchmark":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				v, _ := strconv.Unquote(lit.Value)
				lits[v] = true
				name, _, _ := strings.Cut(reflect.StructTag(v).Get("json"), ",")
				lits[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lits
}

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
			// A Go package pattern (cmd/...) names its root, and a shell
			// command may end a path with ";".
			path := strings.TrimSuffix(strings.TrimRight(m[1], ";"), "/...")
			path = selector.ReplaceAllString(strings.TrimSuffix(path, "/"), "")
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
