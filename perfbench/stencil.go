package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ssmp/internal/core"
	"ssmp/internal/workload"
)

// stencil is one huge machine: the 1024-node nearest-neighbour stencil on
// the contended Ω network in the lane engine, checked against the
// sequential reference. Building the machine is set-up; each pass runs a
// machine built beforehand.
type stencil struct {
	spec workload.StencilSpec
	cfg  core.Config
	want []float64
	// mach, progs and strips are the single-use machine the next pass runs.
	mach   *core.Machine
	progs  []core.Program
	strips [][]float64
	// The traced passes' simulated counts (identical on every pass).
	res core.Result
}

func (s *stencil) fixedInputs() bool { return true }
func (s *stencil) close()            { s.mach = nil }

// setup derives the diffusion coefficient and jitter seed from the seed,
// computes the reference and builds the first machine.
func (s *stencil) setup(e *env) error {
	u := float64(deriveSeed(e.cfg.seed, 2)>>11) / (1 << 53)
	s.spec = workload.StencilSpec{Procs: 1024, CellsPer: 48, Iters: 6, Work: 8, Alpha: 0.1 + 0.2*u}
	if e.cfg.tiny {
		s.spec.Procs, s.spec.CellsPer, s.spec.Iters = 16, 8, 2
	}
	s.cfg = core.DefaultConfig(s.spec.Procs)
	s.cfg.SimWorkers = min(2, e.cfg.nproc)
	s.cfg.Jitter = deriveSeed(e.cfg.seed, 3) | 1
	s.want = s.spec.Reference()
	s.prepare(e)
	return nil
}

// prepare builds the machine and programs the next pass runs.
func (s *stencil) prepare(e *env) {
	if s.mach != nil {
		return
	}
	sp := e.begin("core.NewMachine", -1)
	s.mach = core.NewMachine(s.cfg)
	e.end(sp)
	sp = e.begin("workload.StencilSpec.Programs", -1)
	s.progs, s.strips = s.spec.Programs(s.mach.Geometry())
	e.end(sp)
}

func (s *stencil) pass(e *env, k int) string {
	mach, progs, strips := s.mach, s.progs, s.strips
	s.mach = nil
	sp := e.begin("core.Machine.Run", e.passSpan)
	res, err := mach.Run(progs)
	d := e.end(sp)
	if err == nil {
		err = s.check(strips)
	}
	e.op("op", d, err)
	s.res = res
	return stencilDigest(res, strips)
}

func (s *stencil) check(strips [][]float64) error {
	for pid, strip := range strips {
		for c, v := range strip {
			if v != s.want[pid*s.spec.CellsPer+c] {
				return fmt.Errorf("stencil: cell (%d,%d) = %v, the sequential reference has %v",
					pid, c, v, s.want[pid*s.spec.CellsPer+c])
			}
		}
	}
	return nil
}

// stencilDigest covers the strips bit for bit and the simulated timing.
func stencilDigest(res core.Result, strips [][]float64) string {
	d := newDigester()
	buf := make([]byte, 0, 64)
	for _, strip := range strips {
		buf = buf[:0]
		for _, v := range strip {
			buf = strconv.AppendUint(buf, math.Float64bits(v), 16)
			buf = append(buf, ' ')
		}
		d.add(string(buf))
	}
	d.add(fmt.Sprint(res.Cycles, res.Messages, res.MeanNetLatency, res.MeanNetQueueing))
	return d.sum()
}

// layers reads the build, program and run spans of the traced passes, then
// runs the same inputs on the serial engine and on lanes, alternating, for
// sim.lane_speedup.
func (s *stencil) layers(e *env, m map[string]float64) error {
	m["workload.gen_us"] = median(e.tr.durations("workload.StencilSpec.Programs")) * 1e6
	m["core.build_us"] = median(e.tr.durations("core.NewMachine")) * 1e6
	run := median(e.tr.durations("core.Machine.Run"))
	m["core.run_ns_per_event"] = run * 1e9 / float64(s.res.Events)
	m["core.ns_per_message"] = run * 1e9 / float64(s.res.Messages)
	m["core.events"] = float64(s.res.Events)
	m["network.messages"] = float64(s.res.Messages)
	m["network.mean_queueing_cycles"] = s.res.MeanNetQueueing

	var serial, lanes []float64
	for i := 0; i < 2; i++ {
		for _, workers := range []int{0, s.cfg.SimWorkers} {
			cfg := s.cfg
			cfg.SimWorkers = workers
			mach := core.NewMachine(cfg)
			progs, strips := s.spec.Programs(mach.Geometry())
			t0 := time.Now()
			_, err := mach.Run(progs)
			d := time.Since(t0).Seconds()
			if err == nil {
				err = s.check(strips)
			}
			e.op("lane-ablation", 0, err)
			if workers == 0 {
				serial = append(serial, d)
			} else {
				lanes = append(lanes, d)
			}
		}
	}
	m["sim.lane_speedup"] = median(serial) / median(lanes)
	return nil
}
