package bccheck_test

import (
	"reflect"
	"testing"

	"ssmp/internal/bccheck"
	"ssmp/internal/litmus"
)

// mutations is every single-axiom ablation.
var mutations = []bccheck.Mutation{
	bccheck.MutFIFO, bccheck.MutNPSynch, bccheck.MutCPSynch, bccheck.MutLockData,
	bccheck.MutCoherence, bccheck.MutFresh, bccheck.MutBarrier,
}

// corpus is the committed litmus corpus, hand-written and generated.
func corpus(t *testing.T) []*litmus.Test {
	t.Helper()
	hand, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := litmus.Generated()
	if err != nil {
		t.Fatal(err)
	}
	return append(hand, gen...)
}

// farmCap bounds the farm candidates' enumerations so the test stays
// cheap under -race. A candidate that hits it is still compared: the
// serial engine stops at the same state with the same error text
// whenever the two transition systems are the same.
const farmCap = 2_000

// TestUnreachableMutationIsIdentity: wherever Reachable says a mutation
// cannot act, enumerating under it explores the unmutated full graph.
// The allowed set, the state count and any error text agree exactly, so
// skipping that enumeration loses nothing, its error included. The
// corpus graphs are compared whole, then a batch of farm candidates no
// test has pinned.
func TestUnreachableMutationIsIdentity(t *testing.T) {
	skipped := map[bccheck.Mutation]int{}
	for _, lt := range corpus(t) {
		checkUnreachable(t, lt, 0, skipped)
	}
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		checkUnreachable(t, litmus.FarmCandidate(16, i), farmCap, skipped)
	}
	for _, m := range mutations {
		if skipped[m] == 0 {
			t.Errorf("%v: no program is unreachable, so nothing checked its predicate", m)
		}
	}
	t.Logf("unreachable (program, mutation) pairs checked: %v", skipped)
}

// checkUnreachable compares lt's enumeration under each mutation it
// cannot reach with its unmutated one, both with POR off and capped at
// maxStates (0: the default cap), and counts the pairs in skipped.
func checkUnreachable(t *testing.T, lt *litmus.Test, maxStates int, skipped map[bccheck.Mutation]int) {
	t.Helper()
	prog, opts, err := lt.Program()
	if err != nil {
		t.Fatalf("%s: %v", lt.Name, err)
	}
	opts.MaxStates = maxStates
	opts.Tuning = bccheck.Tuning{DisablePOR: true, Workers: 1}
	var base *bccheck.Result
	var baseErr error
	for _, m := range mutations {
		if m.Reachable(prog) {
			continue
		}
		skipped[m]++
		if base == nil && baseErr == nil {
			base, baseErr = bccheck.Enumerate(prog, opts)
		}
		mopts := opts
		mopts.Mutate = m
		res, err := bccheck.Enumerate(prog, mopts)
		switch {
		case err != nil || baseErr != nil:
			if err == nil || baseErr == nil || err.Error() != baseErr.Error() {
				t.Errorf("%s under %v: error %v, unmutated error %v", lt.Name, m, err, baseErr)
			}
		case res.States != base.States:
			t.Errorf("%s under %v: %d states, unmutated %d", lt.Name, m, res.States, base.States)
		case !reflect.DeepEqual(res.Keys(), base.Keys()):
			t.Errorf("%s under %v: allowed %v, unmutated %v", lt.Name, m, res.Keys(), base.Keys())
		}
	}
}

// TestCoveringProgramsAreReachable: every test whose pinned coverage
// names an axiom family must reach that family's mutation, or coverage
// would drop a bit the corpus pins; and every family has such a test,
// so no predicate holds only vacuously.
func TestCoveringProgramsAreReachable(t *testing.T) {
	byName := map[string]bccheck.Mutation{}
	for _, m := range mutations {
		byName[m.String()] = m
	}
	covering := map[bccheck.Mutation]int{}
	for _, lt := range corpus(t) {
		prog, _, err := lt.Program()
		if err != nil {
			t.Fatalf("%s: %v", lt.Name, err)
		}
		for _, ax := range lt.Coverage {
			m, ok := byName[ax]
			if !ok {
				t.Fatalf("%s: pinned axiom %q names no mutation", lt.Name, ax)
			}
			covering[m]++
			if !m.Reachable(prog) {
				t.Errorf("%s: pinned coverage has %s, but %v.Reachable is false", lt.Name, ax, m)
			}
		}
	}
	for _, m := range mutations {
		if covering[m] == 0 {
			t.Errorf("%v: no corpus test covers it", m)
		}
	}
}
