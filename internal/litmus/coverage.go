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
//
// Two things keep the vector cheap without changing it. A mutation the
// program cannot reach (bccheck.Mutation.Reachable) is not run: its
// enumeration would be the strict model's full graph, which the strict
// enumeration explores anyway, so its bit is false and its error, if
// any, is the strict full graph's. The enumerations that remain run side
// by side, each on the serial engine, and are read back in the order
// the one-at-a-time loop read them, so the first error it would have met
// is the one returned.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
// order follows Axioms. An error is the first one met in the order
// strict model, then Axioms.
func CoverageVector(t *Test) ([]string, error) {
	return coverageVector(t, coverageMaxStates)
}

// enumOut is one enumeration's allowed set or error.
type enumOut struct {
	keys []string
	err  error
}

func coverageVector(t *Test, maxStates int) ([]string, error) {
	c, err := t.compile()
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.MaxStates = maxStates
	opts.Tuning = bccheck.Tuning{DisablePOR: true, Workers: 1}

	// Job 0 is the strict model on the full graph (POR off), which is
	// also every unreachable ablation's graph; then one job per
	// reachable ablation, in Axioms order.
	jobs := []bccheck.Mutation{bccheck.MutNone}
	for _, ax := range Axioms {
		if m := axiomMut[ax]; m.Reachable(c.prog) {
			jobs = append(jobs, m)
		}
	}
	outs := runEnumerations(c.prog, opts, jobs)

	strict := outs[0]
	sk := strict.keys
	if strict.err != nil {
		// The strict verdict is the reduced graph's, as it always was:
		// the full graph may exceed the cap where the reduced one does
		// not, and then only the unreachable ablations fail.
		ropts := opts
		ropts.Tuning.DisablePOR = false
		r, err := bccheck.Enumerate(c.prog, ropts)
		if err != nil {
			return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
		}
		sk = r.Keys()
	}
	var cov []string
	next := 1
	for _, ax := range Axioms {
		out := strict
		if next < len(jobs) && jobs[next] == axiomMut[ax] {
			out = outs[next]
			next++
		}
		if out.err != nil {
			return nil, fmt.Errorf("litmus %s (%s ablation): %w", t.Name, ax, out.err)
		}
		if !equalKeys(sk, out.keys) {
			cov = append(cov, ax)
		}
	}
	return cov, nil
}

// maxFanOut bounds how many of one test's enumerations run at once,
// whatever GOMAXPROCS is. Each may hold up to coverageMaxStates visited
// states, so peak memory grows with every extra worker, and the gain
// was measured with two (DESIGN.md §8.5).
const maxFanOut = 2

// runEnumerations enumerates prog once per mutation in jobs, at most
// maxFanOut and GOMAXPROCS at a time, and returns the outcomes by index.
func runEnumerations(prog bccheck.Program, opts bccheck.Options, jobs []bccheck.Mutation) []enumOut {
	outs := make([]enumOut, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), maxFanOut, len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				o := opts
				o.Mutate = jobs[i]
				res, err := bccheck.Enumerate(prog, o)
				if err != nil {
					outs[i].err = err
					continue
				}
				outs[i].keys = res.Keys()
			}
		}()
	}
	wg.Wait()
	return outs
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
