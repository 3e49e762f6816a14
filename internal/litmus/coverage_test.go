package litmus

import (
	"fmt"
	"reflect"
	"testing"

	"ssmp/internal/bccheck"
)

// coverageReference is the coverage vector as a plain loop: the strict
// model with POR, then every ablation in Axioms order, one at a time and
// none skipped. It runs the serial engine, so a state-limit error reports
// the same state count on every run.
func coverageReference(t *Test, maxStates int) ([]string, error) {
	c, err := t.compile()
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.MaxStates = maxStates
	opts.Tuning.Workers = 1
	strict, err := bccheck.Enumerate(c.prog, opts)
	if err != nil {
		return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	sk := strict.Keys()
	var cov []string
	for _, ax := range Axioms {
		mopts := opts
		mopts.Mutate = axiomMut[ax]
		mres, err := bccheck.Enumerate(c.prog, mopts)
		if err != nil {
			return nil, fmt.Errorf("litmus %s (%s ablation): %w", t.Name, ax, err)
		}
		if !equalKeys(sk, mres.Keys()) {
			cov = append(cov, ax)
		}
	}
	return cov, nil
}

// matchReference demands that coverageVector return exactly the
// reference's vector or exactly its error text, and reports whether the
// reference failed.
func matchReference(t *testing.T, lt *Test, maxStates int) bool {
	t.Helper()
	want, wantErr := coverageReference(lt, maxStates)
	got, gotErr := coverageVector(lt, maxStates)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s (cap %d): coverage %v, error %v; reference %v, error %v",
			lt.Name, maxStates, got, gotErr, want, wantErr)
	}
	return wantErr != nil
}

// smallCaps are state caps low enough that most corpus tests fail, so
// the error order is checked too: strict first, then Axioms. Some
// (test, cap) pairs exceed the cap on the full graph but not on the
// reduced one, so the strict verdict stands and only the skipped
// ablations carry the full graph's error.
var smallCaps = []int{30, 60}

// onlyFullGraphFails reports whether lt's strict model exceeds maxStates
// on the full graph (POR off) but not on the POR-reduced one: the case in
// which coverageVector must re-run the reduced graph for its verdict.
func onlyFullGraphFails(t *testing.T, lt *Test, maxStates int) bool {
	t.Helper()
	prog, opts, err := lt.Program()
	if err != nil {
		t.Fatalf("%s: %v", lt.Name, err)
	}
	opts.MaxStates = maxStates
	opts.Tuning = bccheck.Tuning{DisablePOR: true, Workers: 1}
	if _, err := bccheck.Enumerate(prog, opts); err == nil {
		return false
	}
	opts.Tuning.DisablePOR = false
	_, err = bccheck.Enumerate(prog, opts)
	return err == nil
}

// TestCoverageVectorMatchesReference: on the whole committed corpus,
// skipping unreachable ablations and running the rest side by side
// changes no vector and no error.
func TestCoverageVectorMatchesReference(t *testing.T) {
	hand, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	failed, fullOnly := 0, 0
	for _, lt := range append(hand, gen...) {
		if matchReference(t, lt, coverageMaxStates) {
			t.Errorf("%s: corpus test failed its coverage run", lt.Name)
		}
		for _, limit := range smallCaps {
			if matchReference(t, lt, limit) {
				failed++
			}
			if onlyFullGraphFails(t, lt, limit) {
				fullOnly++
			}
		}
	}
	if failed == 0 {
		t.Error("no capped run failed: the error order went unchecked")
	}
	if fullOnly == 0 {
		t.Error("no capped run failed on the full graph alone: the reduced-graph re-run went unchecked")
	}
	t.Logf("%d capped runs ended in an error; %d failed on the full graph alone", failed, fullOnly)
}

// TestCoverageVectorMatchesReferenceFarm does the same on a fresh farm
// campaign: the candidates a farm run with this seed would tag, up to a
// strict-graph size that keeps the reference affordable under -race.
func TestCoverageVectorMatchesReferenceFarm(t *testing.T) {
	count := 80
	if testing.Short() {
		count = 20
	}
	compared := 0
	for i := 0; i < count; i++ {
		lt := FarmCandidate(7, i)
		prog, opts, err := lt.Program()
		if err != nil {
			t.Fatal(err)
		}
		opts.MaxStates = 2_000
		if _, err := bccheck.Enumerate(prog, opts); err != nil {
			continue
		}
		compared++
		matchReference(t, lt, coverageMaxStates)
		for _, limit := range smallCaps {
			matchReference(t, lt, limit)
		}
	}
	if compared < count/2 {
		t.Errorf("only %d of %d candidates were under the strict cap", compared, count)
	}
}
