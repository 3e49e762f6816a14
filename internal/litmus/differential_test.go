package litmus

// Differential regression for the exploration-engine overhaul: the
// reduced, parallel engine must produce exactly the verdicts of the
// old semantics — which survive as the POR-off serial configuration —
// on the whole corpus plus a seeded batch of generated programs.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ssmp/internal/bccheck"
)

// oldSemantics mirrors the pre-overhaul engine: full interleaving graph,
// one worker.
var oldSemantics = bccheck.Tuning{DisablePOR: true, Workers: 1}

// diffConfigs is every engine configuration that must agree on verdicts:
// partial-order reduction and the parallel frontier change cost, never
// outcomes.
var diffConfigs = []struct {
	name string
	tune bccheck.Tuning
}{
	{"reference", oldSemantics},
	{"default", bccheck.Tuning{}},
	{"serial", bccheck.Tuning{Workers: 1}},
	{"workers-3", bccheck.Tuning{Workers: 3}},
	{"por-off", bccheck.Tuning{DisablePOR: true}},
}

// diffOne enumerates t under every configuration and demands identical
// outcome key sets; configurations differing only in worker count must
// also report identical States/Pruned (the reduced graph is a function
// of the state, not the schedule). It returns false when the state limit
// truncated a run (no verdict to compare).
func diffOne(t *testing.T, lt *Test) bool {
	t.Helper()
	c, err := lt.compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", lt.Name, err)
	}
	results := make([]*bccheck.Result, len(diffConfigs))
	for i, cfg := range diffConfigs {
		opts := c.opts
		opts.Tuning = cfg.tune
		res, err := bccheck.Enumerate(c.prog, opts)
		if err != nil {
			if errors.Is(err, bccheck.ErrStateLimit) {
				return false
			}
			t.Fatalf("%s: enumerate (%s): %v", lt.Name, cfg.name, err)
		}
		results[i] = res
	}
	want := results[0].Keys()
	for i, cfg := range diffConfigs[1:] {
		if got := results[i+1].Keys(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: outcome sets differ under %s\n got: %v\n ref: %v", lt.Name, cfg.name, got, want)
		}
	}
	// default, serial, and workers-3 share a tuning modulo worker count:
	// their state and prune counters must be bit-identical.
	for _, i := range []int{2, 3} {
		if results[i].States != results[1].States || results[i].Pruned != results[1].Pruned {
			t.Errorf("%s: %s explored %d states / %d pruned, default %d / %d",
				lt.Name, diffConfigs[i].name, results[i].States, results[i].Pruned,
				results[1].States, results[1].Pruned)
		}
	}
	return true
}

// TestDifferentialCorpus runs the full embedded corpus through the old
// semantics and the new engine and demands identical outcome sets and
// identical allowed/forbidden verdicts.
func TestDifferentialCorpus(t *testing.T) {
	tests, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range tests {
		if !diffOne(t, lt) {
			t.Errorf("%s: corpus test hit the state limit", lt.Name)
		}
		// Verdicts, not just raw keys: the assertion machinery must agree.
		oldRep, err := RunTuned(lt, Seeds(4), oldSemantics)
		if err != nil {
			t.Fatalf("%s: RunTuned(old): %v", lt.Name, err)
		}
		newRep, err := Run(lt, Seeds(4))
		if err != nil {
			t.Fatalf("%s: Run: %v", lt.Name, err)
		}
		if !reflect.DeepEqual(newRep.Allowed, oldRep.Allowed) {
			t.Errorf("%s: allowed sets differ\n new: %v\n old: %v", lt.Name, newRep.Allowed, oldRep.Allowed)
		}
		if newRep.Ok() != oldRep.Ok() {
			t.Errorf("%s: verdict differs: new ok=%v, old ok=%v", lt.Name, newRep.Ok(), oldRep.Ok())
		}
	}
}

// TestDifferentialGenerated runs the committed farm corpus through every
// engine configuration. These programs were selected for having an axiom
// family load-bearing in their allowed set, so they are exactly the ones
// where an unsound reduction would flip a verdict.
func TestDifferentialGenerated(t *testing.T) {
	tests, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < 200 {
		t.Fatalf("generated corpus has %d tests, want >= 200", len(tests))
	}
	if testing.Short() {
		tests = tests[:40]
	}
	for _, lt := range tests {
		if !diffOne(t, lt) {
			t.Errorf("%s: generated test hit the state limit", lt.Name)
		}
	}
}

// TestDifferentialFuzzed feeds ~200 seeded generator programs through
// both configurations. Together with the corpus this is the regression
// net for POR soundness and parallel-merge determinism.
func TestDifferentialFuzzed(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 40
	}
	rng := rand.New(rand.NewSource(20260806))
	compared, limited := 0, 0
	for i := 0; i < count; i++ {
		lt := generate(rng, i)
		if diffOne(t, lt) {
			compared++
		} else {
			limited++
		}
	}
	if compared < count/2 {
		t.Errorf("only %d of %d generated programs were comparable (%d hit the state limit)",
			compared, count, limited)
	}
	t.Logf("differential: %d compared, %d at state limit", compared, limited)
}
