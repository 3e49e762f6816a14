package litmus

// Axiom-coverage vectors. A litmus test is only worth keeping if some
// axiom of the §2 model is load-bearing for its verdict: relax (or, for
// NP-Synch, strengthen) that axiom and the allowed set must change.
// CoverageVector runs one enumeration per axiom family with bccheck's
// corresponding model mutation and reports the families whose ablation
// moves the allowed set. The farm uses the vector three ways: to discard
// candidates that exercise nothing, to preserve what a reproducer
// exercises while shrinking it, and to tag the persisted corpus so CI
// can assert every axiom family stays covered.

import (
	"fmt"

	"ssmp/internal/bccheck"
)

// Axioms lists the §2 axiom families a coverage vector ranges over, in
// report order. Each name matches the bccheck.Mutation that ablates it.
var Axioms = []string{
	"fifo", "np-synch", "cp-synch", "lock-data", "coherence", "freshness",
	"barrier",
}

var axiomMut = map[string]bccheck.Mutation{
	"fifo":      bccheck.MutFIFO,
	"np-synch":  bccheck.MutNPSynch,
	"cp-synch":  bccheck.MutCPSynch,
	"lock-data": bccheck.MutLockData,
	"coherence": bccheck.MutCoherence,
	"freshness": bccheck.MutFresh,
	"barrier":   bccheck.MutBarrier,
}

// coverageMaxStates bounds each ablation enumeration. Mutated models
// explore the full graph (mutations force POR off), so the
// farm skips candidates whose ablations blow past this instead of
// stalling a campaign.
const coverageMaxStates = 400_000

// CoverageVector reports which axiom families constrain the test's
// allowed set: family A is in the vector iff enumerating under A's
// ablation yields a different allowed set than the real model. The
// order follows Axioms.
func CoverageVector(t *Test) ([]string, error) {
	c, err := t.compile()
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.MaxStates = coverageMaxStates
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

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalCoverage(a, b []string) bool { return equalKeys(a, b) }
