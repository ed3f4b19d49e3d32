package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one experiment at a scale.
type Runner func(Scale) (*Table, error)

// registry maps experiment ids (the figure numbers of Sec. 4, plus the
// ablations of ablations.go) to their runners.
var registry = map[string]Runner{
	"fig5a":       Fig5a,
	"fig5b":       Fig5b,
	"fig6a":       Fig6a,
	"fig6b":       Fig6b,
	"fig6c":       Fig6c,
	"fig6d":       Fig6d,
	"fig7a":       Fig7a,
	"fig7b":       Fig7b,
	"abl-perturb": AblationPerturbation,
	"abl-cluster": AblationClustering,
	"abl-local":   AblationLocalBarrier,
	"abl-window":  AblationWindow,
}

// IDs returns all experiment ids in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	return r, nil
}
