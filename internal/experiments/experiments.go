// Package experiments regenerates every figure and quantitative claim of
// the paper's evaluation; All is the index E1–E12 (id, title, artefact
// reproduced). Each experiment is deterministic: fixed seeds, logical
// clocks, deterministic keys, and costs counted rather than timed, so
// repeated runs print identical tables — testdata/<id>.golden pins each
// one byte for byte.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"github.com/seldel/seldel/internal/block"
	"github.com/seldel/seldel/internal/chain"
	"github.com/seldel/seldel/internal/identity"
	"github.com/seldel/seldel/internal/simclock"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the short name used by `seldel-bench -run <id>`.
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the artefact reproduced (figure/section).
	Paper string
	// Run executes the experiment, writing its table/figure to w.
	Run func(w io.Writer) error
}

// All returns every experiment in index order (E1–E12).
func All() []Experiment {
	return []Experiment{
		{ID: "fig6", Title: "Console state after three logins", Paper: "Fig. 6", Run: runFig6},
		{ID: "fig7", Title: "Deletion request, merge, marker shift", Paper: "Fig. 7", Run: runFig7},
		{ID: "fig8", Title: "One cycle ahead: deletion request forgotten", Paper: "Fig. 8", Run: runFig8},
		{ID: "growth", Title: "Bounded vs. unbounded chain growth", Paper: "§I, §V-A, Eq. 1", Run: runGrowth},
		{ID: "attack51", Title: "Majority-attack success vs. rewrite depth", Paper: "Fig. 9, §V-B.1", Run: runAttack51},
		{ID: "sumcost", Title: "Summary-block creation cost", Paper: "§V-B.2", Run: runSumCost},
		{ID: "delcost", Title: "Deletion-request processing cost vs. chain length", Paper: "§IV-D", Run: runDelCost},
		{ID: "delay", Title: "Delayed-deletion latency vs. lmax and l", Paper: "§IV-D.3, Eq. 1", Run: runDelay},
		{ID: "ttl", Title: "Temporary entries expire at summarization", Paper: "§IV-D.4", Run: runTTL},
		{ID: "baselines", Title: "Redaction effort: ours vs. chameleon vs. hard fork", Paper: "§III", Run: runBaselines},
		{ID: "cluster", Title: "Summary determinism and fork detection across nodes", Paper: "§IV-B", Run: runCluster},
		{ID: "consensus", Title: "Engine independence and extension overhead", Paper: "§V-B.3", Run: runConsensus},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted by index order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// Run executes one experiment by id.
func Run(w io.Writer, id string) error {
	e, ok := Lookup(id)
	if !ok {
		ids := IDs()
		sort.Strings(ids)
		return fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
	}
	fmt.Fprintf(w, "=== %s — %s (%s) ===\n", e.ID, e.Title, e.Paper)
	return e.Run(w)
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		fmt.Fprintf(w, "=== %s — %s (%s) ===\n", e.ID, e.Title, e.Paper)
		if err := e.Run(w); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// env is the deterministic participant setup shared by experiments.
type env struct {
	registry *identity.Registry
	keys     map[string]*identity.KeyPair
}

// newEnv registers the given users (plus roles by well-known names).
func newEnv(users ...string) (*env, error) {
	e := &env{
		registry: identity.NewRegistry(),
		keys:     make(map[string]*identity.KeyPair),
	}
	for _, u := range users {
		kp := identity.Deterministic(u, "seldel-experiments")
		role := identity.RoleUser
		if u == "admin" {
			role = identity.RoleAdmin
		}
		if err := e.registry.RegisterKey(kp, role); err != nil {
			return nil, err
		}
		e.keys[u] = kp
	}
	return e, nil
}

// paperChain builds the evaluation-scenario chain (l=3, 2 sequences,
// merge-all policy) with a fresh logical clock.
func (e *env) paperChain() (*chain.Chain, error) {
	return chain.New(chain.Config{
		SequenceLength: 3,
		MaxSequences:   2,
		Shrink:         chain.ShrinkAllButNewest,
		Registry:       e.registry,
		Clock:          simclock.NewLogical(0),
	})
}

// sealBlocks is the deterministic drivers' synchronous write: one
// block per call through the submission pipeline, plus any due summary
// (chain.SealBlocks), so experiment output stays reproducible.
func sealBlocks(c *chain.Chain, entries ...*block.Entry) ([]*block.Block, error) {
	return chain.SealBlocks(context.Background(), c, entries...)
}

// newTable returns a tabwriter suitable for aligned experiment tables.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
