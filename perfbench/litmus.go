package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/core"
	"ssmp/internal/litmus"
)

// litmusReplay replays the committed litmus corpus (hand-written plus
// farm-generated). Each test is one op of three calls: the axiom-coverage
// vector (7 mutated enumerations, symmetry off), the strict enumeration
// with POR and symmetry on, and a simulator sweep over jitter seeds taken
// from the seed.
type litmusReplay struct {
	tests []*litmus.Test
	seeds []uint64
	// Per traced pass: strict-enumeration totals and the sweep's time
	// outside its own enumeration.
	enumNS, states, pruned, simNS []float64
}

// sweepSeeds is how many jitter seeds litmus.Run sweeps per test.
const sweepSeeds = 4

func (l *litmusReplay) fixedInputs() bool { return true }
func (l *litmusReplay) close()            {}

// setup loads and parses the embedded corpus and derives the jitter seeds.
func (l *litmusReplay) setup(e *env) error {
	hand, err := litmus.Corpus()
	if err != nil {
		return err
	}
	gen, err := litmus.Generated()
	if err != nil {
		return err
	}
	l.tests = append(hand, gen...)
	n := sweepSeeds
	if e.cfg.tiny {
		l.tests, n = l.tests[:6], 2
	}
	l.seeds = make([]uint64, n)
	for i := range l.seeds {
		l.seeds[i] = deriveSeed(e.cfg.seed, 4, uint64(i))
	}
	return nil
}

func (l *litmusReplay) pass(e *env, k int) string {
	d := newDigester()
	var enumNS, states, pruned, simNS float64
	for _, t := range l.tests {
		op := e.begin("litmus.test", e.passSpan)
		s := e.begin("litmus.CoverageVector", op.id)
		cov, err := litmus.CoverageVector(t)
		e.end(s)
		var strict, sweep *litmus.Report
		if err == nil {
			s = e.begin("litmus.RunTuned", op.id)
			strict, err = litmus.RunTuned(t, nil, bccheck.Tuning{})
			e.end(s)
		}
		if err == nil {
			s = e.begin("litmus.Run", op.id)
			sweep, err = litmus.Run(t, l.seeds)
			sd := e.end(s)
			if err == nil {
				simNS += float64(sd.Nanoseconds() - sweep.EnumNS)
			}
		}
		if err == nil {
			enumNS += float64(strict.EnumNS)
			states += float64(strict.States)
			pruned += float64(strict.Pruned)
			err = checkLitmus(t, cov, strict, sweep)
		}
		e.op("op", e.end(op), err)
		if err != nil {
			continue
		}
		d.add(t.Name, strings.Join(cov, ","), strings.Join(strict.Allowed, "|"), observedKey(sweep))
	}
	if e.tr != nil {
		l.enumNS = append(l.enumNS, enumNS)
		l.states = append(l.states, states)
		l.pruned = append(l.pruned, pruned)
		l.simNS = append(l.simNS, simNS)
	}
	return d.sum()
}

// checkLitmus is the test's verdict: the coverage vector and allowed set
// match what the corpus pins, and every observed outcome is allowed.
func checkLitmus(t *litmus.Test, cov []string, strict, sweep *litmus.Report) error {
	if t.Coverage != nil && strings.Join(cov, ",") != strings.Join(t.Coverage, ",") {
		return fmt.Errorf("litmus %s: coverage %v, the corpus pins %v", t.Name, cov, t.Coverage)
	}
	if !strict.Ok() {
		return fmt.Errorf("litmus %s: %s", t.Name, strings.Join(strict.AssertFailures, "; "))
	}
	if !sweep.Ok() {
		return fmt.Errorf("litmus %s: observed outside allowed %v %s", t.Name, sweep.Violations,
			strings.Join(sweep.AssertFailures, "; "))
	}
	if strings.Join(strict.Allowed, "|") != strings.Join(sweep.Allowed, "|") {
		return fmt.Errorf("litmus %s: the strict and sweep enumerations disagree", t.Name)
	}
	return nil
}

func observedKey(r *litmus.Report) string {
	keys := make([]string, 0, len(r.Observed))
	for out, seeds := range r.Observed {
		keys = append(keys, fmt.Sprint(out, seeds))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// layers reports the traced passes' checker and sweep costs, then
// enumerates the corpus with symmetry on and off back to back, and
// replays the litmus machines' builds through core.NewMachine.
func (l *litmusReplay) layers(e *env, m map[string]float64) error {
	m["litmus.coverage_ms"] = median(e.tr.perRun("litmus.CoverageVector")) * 1e3
	m["litmus.sweep_ms"] = median(e.tr.perRun("litmus.Run")) * 1e3
	runs := float64(len(l.tests) * len(l.seeds))
	m["litmus.sim_runs"] = runs
	m["litmus.us_per_sim_run"] = median(l.simNS) / runs / 1e3
	m["bccheck.enum_ms"] = median(l.enumNS) / 1e6
	m["bccheck.states"] = median(l.states)
	m["bccheck.pruned"] = median(l.pruned)
	m["bccheck.ns_per_state"] = median(l.enumNS) / median(l.states)

	var on, off []float64
	var statesOn, statesOff float64
	for rep := 0; rep < 3; rep++ {
		var tOn, tOff int64
		statesOn, statesOff = 0, 0
		for _, t := range l.tests {
			a, err := litmus.RunTuned(t, nil, bccheck.Tuning{})
			if err != nil {
				return err
			}
			b, err := litmus.RunTuned(t, nil, bccheck.Tuning{DisableSymmetry: true})
			if err != nil {
				return err
			}
			if strings.Join(a.Allowed, "|") != strings.Join(b.Allowed, "|") {
				e.fail(fmt.Errorf("litmus %s: symmetry reduction changed the allowed set", t.Name))
			}
			tOn += a.EnumNS
			tOff += b.EnumNS
			statesOn += float64(a.States)
			statesOff += float64(b.States)
		}
		on = append(on, float64(tOn))
		off = append(off, float64(tOff))
	}
	m["bccheck.sym_speedup"] = median(off) / median(on)
	m["bccheck.sym_state_ratio"] = statesOff / statesOn

	var build time.Duration
	for _, t := range l.tests {
		nodes := 2
		for nodes < len(t.Procs) {
			nodes <<= 1
		}
		s := e.begin("core.NewMachine", -1)
		core.NewMachine(core.DefaultConfig(nodes))
		build += e.end(s)
	}
	m["core.build_us"] = float64(build.Nanoseconds()) / 1e3 / float64(len(l.tests))
	return nil
}
