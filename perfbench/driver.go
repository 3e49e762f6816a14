package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// job is one benchmark workload over the library.
//
//   - setup builds the job's inputs from the seed; the driver calls it
//     repeatedly (closing the previous state each time) and reports the
//     median as setup_s.
//   - pass runs the job once and returns the digest of its simulated
//     outputs. Pass 0 is the untimed warm-up whose digest is compared with
//     the reference; when fixedInputs is true every later pass must
//     reproduce it.
//   - layers runs the traced run's extra measurements and fills the
//     per-layer metrics the workload owns.
type job interface {
	setup(e *env) error
	pass(e *env, k int) string
	fixedInputs() bool
	layers(e *env, m map[string]float64) error
	close()
}

// preparer is implemented by workloads that build single-use state before
// each pass (a machine runs once); prepare is not part of the pass time.
type preparer interface {
	prepare(e *env)
}

const (
	// Set-up repeats at least setupReps times, and a cheap set-up repeats
	// until setupBudget seconds are spent, so its median is steady.
	setupReps    = 5
	maxSetupReps = 200
	setupBudget  = 0.25
	// minPasses keeps a median meaningful when one pass is long.
	minPasses = 3
	// maxLogged bounds the failure lines a run prints to stderr.
	maxLogged = 10
)

// env is what a workload sees of the driver: the configuration, the
// tracer (non-nil only in traced passes and the layer measurements), and
// the op ledger.
type env struct {
	cfg config
	tr  *tracer
	// run is the pass index the next spans belong to; passSpan is the
	// pass's root span (-1 when untraced).
	run      int
	passSpan int

	mu        sync.Mutex
	record    bool // latencies are recorded only in untraced timed passes
	lat       map[string][]float64
	attempted int
	failed    int
	logged    int
	log       io.Writer
}

func newEnv(cfg config, log io.Writer) *env {
	return &env{cfg: cfg, passSpan: -1, lat: map[string][]float64{}, log: log}
}

// spanRef is an open span: the caller's start time plus its index in the
// tracer (-1 when tracing is off).
type spanRef struct {
	id    int
	start time.Time
}

func (e *env) begin(name string, parent int) spanRef {
	now := time.Now()
	id := -1
	if e.tr != nil {
		id = e.tr.add(name, parent, e.run, now)
	}
	return spanRef{id, now}
}

func (e *env) end(s spanRef) time.Duration {
	now := time.Now()
	if s.id >= 0 {
		e.tr.finish(s.id, now)
	}
	return now.Sub(s.start)
}

// op records one completed operation of the given latency class; a
// non-nil err counts it as failed.
func (e *env) op(class string, d time.Duration, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failLocked(err)
	}
	if e.record {
		e.lat[class] = append(e.lat[class], float64(d)/1e6)
	}
}

// fail counts a failed check on work already attempted, such as an output
// digest that does not match its reference.
func (e *env) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failLocked(err)
}

func (e *env) failLocked(err error) {
	e.failed++
	if e.logged < maxLogged {
		e.logged++
		fmt.Fprintf(e.log, "perfbench: FAILED: %v\n", err)
	}
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	digest            string
	metrics           map[string]float64
	walls             []float64
}

// measure runs one workload per the contract: set-up, a warm-up pass
// checked against the reference, then timed passes for cfg.seconds. A
// traced run shares the time between untraced and traced passes and
// reports per-layer metrics instead of end-to-end ones.
func measure(w job, cfg config, log io.Writer) (*outcome, error) {
	e := newEnv(cfg, log)

	var setups []float64
	for len(setups) < setupReps || (sum(setups) < setupBudget && len(setups) < maxSetupReps) {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	// runPass prepares and runs pass k and returns its digest, its time
	// and the runtime counters it moved. Preparation is neither timed nor
	// counted, and the pass starts from a collected heap, so a collection
	// left over from the previous pass does not land in this one.
	k := 0
	runPass := func() (string, float64, runtime.MemStats) {
		e.run = k
		if p, ok := w.(preparer); ok {
			p.prepare(e)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		root := e.begin("bench.pass", -1)
		e.passSpan = root.id
		dig := w.pass(e, k)
		wall := e.end(root).Seconds()
		runtime.ReadMemStats(&after)
		e.passSpan = -1
		k++
		return dig, wall, runtime.MemStats{
			TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
			Mallocs:      after.Mallocs - before.Mallocs,
			NumGC:        after.NumGC - before.NumGC,
			PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
		}
	}

	base, _, _ := runPass()
	if want, ok := cfg.refs.lookup(cfg.workload, cfg.seed); ok && want != base {
		e.fail(fmt.Errorf("%s seed %d: output digest %s, reference %s", cfg.workload, cfg.seed, base, want))
	}

	// Timed passes. A traced run alternates untraced and traced passes, so
	// the host's drift over the run falls on both alike; latencies and
	// runtime counters come from the untraced ones only.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []float64
	var mem runtime.MemStats
	start := time.Now()
	for i := 0; len(plain) < minPasses || (tr != nil && len(traced) < minPasses) || time.Since(start) < cfg.seconds; i++ {
		tracing := tr != nil && i%2 == 1
		e.tr, e.record = nil, !tracing
		if tracing {
			e.tr = tr
		}
		dig, wall, moved := runPass()
		if w.fixedInputs() && dig != base {
			e.fail(fmt.Errorf("%s seed %d pass %d: output digest %s differs from pass 0 (%s)",
				cfg.workload, cfg.seed, k-1, dig, base))
		}
		if tracing {
			traced = append(traced, wall)
			continue
		}
		plain = append(plain, wall)
		mem.TotalAlloc += moved.TotalAlloc
		mem.Mallocs += moved.Mallocs
		mem.NumGC += moved.NumGC
		mem.PauseTotalNs += moved.PauseTotalNs
	}
	e.tr, e.record = tr, false

	out := &outcome{digest: base, metrics: map[string]float64{}, walls: plain}
	if !cfg.trace {
		ops := 0
		for _, l := range e.lat {
			ops += len(l)
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		out.metrics["setup_s"] = median(setups)
		out.metrics["wall_s"] = median(plain)
		out.metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		out.metrics["op_p50_ms"] = quantile(e.lat["op"], 0.50)
		out.metrics["ops_per_s"] = float64(ops) / sum(plain)
	} else {
		for _, m := range perLayer {
			out.metrics[m.name] = 0
		}
		// A layer measurement that cannot be made is a failed op, not an
		// aborted run.
		e.op("layers", 0, w.layers(e, out.metrics))
		n := float64(len(plain))
		out.metrics["runtime.alloc_mb"] = float64(mem.TotalAlloc) / n / (1 << 20)
		out.metrics["runtime.mallocs"] = float64(mem.Mallocs) / n
		out.metrics["runtime.gc_cycles"] = float64(mem.NumGC) / n
		out.metrics["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs) / n / 1e6
		out.metrics["bench.trace_overhead"] = median(traced)/median(plain) - 1
		if cfg.outdir != "" {
			path := fmt.Sprintf("%s/spans-%s-seed%d.json", cfg.outdir, cfg.workload, cfg.seed)
			if err := tr.write(path, cfg.workload, cfg.seed); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	// A metric divided by a count that failed ops left at zero is not a
	// number; it is reported as 0 and counted as a failed op, so a broken
	// program still yields a result line.
	for name, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			e.op("metric", 0, fmt.Errorf("%s seed %d: metric %s is %v", cfg.workload, cfg.seed, name, v))
			out.metrics[name] = 0
		}
	}
	out.attempted, out.failed = e.attempted, e.failed
	return out, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics a run reports with --trace 0 and
// --trace 1; BENCHMARK.json declares the same names and units (a
// self-test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"max_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"harness.fig4_s", "s"},
	{"harness.fig5_s", "s"},
	{"harness.fig6_s", "s"},
	{"harness.fig7_s", "s"},
	{"harness.util_s", "s"},
	{"harness.tables_s", "s"},
	{"workload.gen_us", "us"},
	{"core.build_us", "us"},
	{"core.run_ns_per_event", "ns"},
	{"core.ns_per_message", "ns"},
	{"core.events", "count"},
	{"network.messages", "count"},
	{"network.mean_queueing_cycles", "cycles"},
	{"sim.lane_speedup", "x"},
	{"bccheck.enum_ms", "ms"},
	{"bccheck.states", "count"},
	{"bccheck.pruned", "count"},
	{"bccheck.ns_per_state", "ns"},
	{"bccheck.sym_speedup", "x"},
	{"bccheck.sym_state_ratio", "x"},
	{"litmus.coverage_ms", "ms"},
	{"litmus.sweep_ms", "ms"},
	{"litmus.sim_runs", "count"},
	{"litmus.us_per_sim_run", "us"},
	{"kvapp.run_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cold_p90_ms", "ms"},
	{"server.cached_p50_ms", "ms"},
	{"server.cached_p99_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}
