package main

import (
	"fmt"
	"time"

	"ssmp/internal/core"
	"ssmp/internal/harness"
	"ssmp/internal/mem"
	"ssmp/internal/workload"
)

// figures is the paper-reproduction job: Figures 4-7, the utilization
// figure and both simulated tables on the DefaultOptions sweep, serial
// engine, harness fan bounded by nproc.
type figures struct {
	opts  harness.Options
	cells []figCell
	// tableProcs and tableIters size the simulated Tables 2 and 3.
	tableProcs, tableIters int
	// last holds the most recent pass's figures by name, for the traced
	// replay's cross-check.
	last map[string]harness.Figure
}

// figCell is one simulation of the sweep, described through the public
// workload API exactly as the harness builds it.
type figCell struct {
	figure, series string
	procs          int
	sync, backoff  bool
	proto          core.Protocol
	cons           core.Consistency
	grain          int
	util           bool
}

const utilGrain = 128

func (f *figures) fixedInputs() bool { return true }
func (f *figures) close()            {}

// setup derives the sweep from the seed. That alone takes microseconds,
// so setup_s on this job is a synthetic probe: it generates every cell's
// programs and builds its machine once, then drops them (the harness
// rebuilds them in the pass).
func (f *figures) setup(e *env) error {
	o := harness.DefaultOptions()
	o.Seed = deriveSeed(e.cfg.seed, 1)
	o.Parallelism = e.cfg.nproc
	f.tableProcs, f.tableIters = 16, 20
	if e.cfg.tiny {
		o.Procs, o.Episodes, o.Tasks = []int{2, 4}, 2, 12
		f.tableProcs, f.tableIters = 4, 2
	}
	f.opts = o
	f.cells = sweepCells(o)
	for _, c := range f.cells {
		cfg, _ := f.build(c)
		core.NewMachine(cfg)
	}
	return nil
}

// sweepCells lists the simulations behind Figures 4-7 and the utilization
// figure, mirroring the harness's grids.
func sweepCells(o harness.Options) []figCell {
	var cells []figCell
	for _, fig := range []struct {
		name  string
		grain int
	}{{"Figure 4", workload.MediumGrain}, {"Figure 5", workload.CoarseGrain}} {
		for _, n := range o.Procs {
			cells = append(cells,
				figCell{figure: fig.name, series: "WBI", procs: n, sync: true, proto: core.ProtoWBI, cons: core.SC, grain: fig.grain},
				figCell{figure: fig.name, series: "CBL", procs: n, sync: true, proto: core.ProtoCBL, cons: core.SC, grain: fig.grain},
				figCell{figure: fig.name, series: "Q-WBI", procs: n, proto: core.ProtoWBI, cons: core.SC, grain: fig.grain},
				figCell{figure: fig.name, series: "Q-backoff", procs: n, proto: core.ProtoWBI, backoff: true, cons: core.SC, grain: fig.grain},
				figCell{figure: fig.name, series: "Q-CBL", procs: n, proto: core.ProtoCBL, cons: core.SC, grain: fig.grain})
		}
	}
	for _, fig := range []struct {
		name  string
		grain int
	}{{"Figure 6", workload.FineGrain}, {"Figure 7", workload.MediumGrain}} {
		for _, n := range o.Procs {
			cells = append(cells,
				figCell{figure: fig.name, series: "SC-CBL", procs: n, proto: core.ProtoCBL, cons: core.SC, grain: fig.grain},
				figCell{figure: fig.name, series: "BC-CBL", procs: n, proto: core.ProtoCBL, cons: core.BC, grain: fig.grain})
		}
	}
	for _, n := range o.Procs {
		cells = append(cells,
			figCell{figure: "Utilization", series: "Q-CBL", procs: n, proto: core.ProtoCBL, cons: core.SC, grain: utilGrain, util: true},
			figCell{figure: "Utilization", series: "Q-WBI", procs: n, proto: core.ProtoWBI, cons: core.SC, grain: utilGrain, util: true},
			figCell{figure: "Utilization", series: "Q-backoff", procs: n, proto: core.ProtoWBI, backoff: true, cons: core.SC, grain: utilGrain, util: true})
	}
	return cells
}

// build generates one cell's machine configuration and programs.
func (f *figures) build(c figCell) (core.Config, []core.Program) {
	o := f.opts
	p := o.Params
	p.Grain = c.grain
	cfg := core.DefaultConfig(c.procs)
	cfg.Protocol = c.proto
	cfg.Consistency = c.cons
	layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: c.procs}, p)
	var kit workload.SyncKit
	if c.proto == core.ProtoCBL {
		kit = workload.CBLKit(layout, c.procs)
	} else {
		kit = workload.WBIKit(layout, c.procs, c.backoff)
	}
	if c.sync {
		return cfg, workload.SyncModel(c.procs, o.Episodes, p, layout, kit, o.Seed)
	}
	progs, _ := workload.WorkQueue(c.procs, o.Tasks, o.SpawnProb, p, layout, kit, o.Seed)
	return cfg, progs
}

// figureCall is one public harness entry point the pass calls; out renders
// its simulated output.
type figureCall struct {
	span string
	run  func(o harness.Options) (harness.Figure, string, error)
}

func figureByNumber(n int) figureCall {
	return figureCall{fmt.Sprintf("harness.Options.FigureByNumber/%d", n), func(o harness.Options) (harness.Figure, string, error) {
		fig, err := o.FigureByNumber(n)
		return fig, fig.Table() + "\n" + fig.CSV(), err
	}}
}

func (f *figures) calls() []figureCall {
	tn, iters := f.tableProcs, f.tableIters
	return []figureCall{
		figureByNumber(4), figureByNumber(5), figureByNumber(6), figureByNumber(7),
		{"harness.Options.UtilizationFigure", func(o harness.Options) (harness.Figure, string, error) {
			fig := o.UtilizationFigure(utilGrain)
			return fig, fig.Table() + "\n" + fig.CSV(), nil
		}},
		{"harness.Options.Table2Sim", func(o harness.Options) (harness.Figure, string, error) {
			return harness.Figure{}, harness.FormatTable2Sim(tn, iters, o.Table2Sim(tn, iters)), nil
		}},
		{"harness.Options.Table3Sim", func(o harness.Options) (harness.Figure, string, error) {
			return harness.Figure{}, harness.FormatTable3Sim(tn, o.Table3Sim(tn)), nil
		}},
	}
}

// pass runs every figure and table; each call is one op. The harness's
// panicking entry points are turned into failed ops.
func (f *figures) pass(e *env, k int) string {
	d := newDigester()
	f.last = map[string]harness.Figure{}
	for _, c := range f.calls() {
		s := e.begin(c.span, e.passSpan)
		fig, out, err := callSafely(func() (harness.Figure, string, error) { return c.run(f.opts) })
		e.op("op", e.end(s), err)
		d.add(c.span, out)
		if fig.Name != "" {
			f.last[fig.Name] = fig
		}
	}
	return d.sum()
}

func callSafely(fn func() (harness.Figure, string, error)) (fig harness.Figure, out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// layers reads the harness spans and then replays every figure cell
// through workload.* + core.NewMachine + Machine.Run, checking each
// replayed result against the figure the harness produced.
func (f *figures) layers(e *env, m map[string]float64) error {
	for key, span := range map[string]string{
		"harness.fig4_s": "harness.Options.FigureByNumber/4",
		"harness.fig5_s": "harness.Options.FigureByNumber/5",
		"harness.fig6_s": "harness.Options.FigureByNumber/6",
		"harness.fig7_s": "harness.Options.FigureByNumber/7",
		"harness.util_s": "harness.Options.UtilizationFigure",
	} {
		m[key] = median(e.tr.durations(span))
	}
	m["harness.tables_s"] = median(e.tr.perRun("harness.Options.Table2Sim", "harness.Options.Table3Sim"))

	e.run = -1
	var gen, build, run time.Duration
	var events, msgs uint64
	queueing := 0.0
	for _, c := range f.cells {
		s := e.begin("workload.programs", -1)
		cfg, progs := f.build(c)
		gen += e.end(s)
		s = e.begin("core.NewMachine", -1)
		mach := core.NewMachine(cfg)
		build += e.end(s)
		s = e.begin("core.Machine.Run", -1)
		res, err := mach.Run(progs)
		run += e.end(s)
		if err == nil {
			err = f.checkCell(c, res)
		}
		e.op("replay", 0, err)
		events += res.Events
		msgs += res.Messages
		queueing += res.MeanNetQueueing * float64(res.Messages)
	}
	n := float64(len(f.cells))
	m["workload.gen_us"] = float64(gen.Nanoseconds()) / 1e3 / n
	m["core.build_us"] = float64(build.Nanoseconds()) / 1e3 / n
	m["core.run_ns_per_event"] = float64(run.Nanoseconds()) / float64(events)
	m["core.ns_per_message"] = float64(run.Nanoseconds()) / float64(msgs)
	m["core.events"] = float64(events)
	m["network.messages"] = float64(msgs)
	m["network.mean_queueing_cycles"] = queueing / float64(msgs)
	return nil
}

// checkCell compares a replayed cell with the value the harness plotted.
func (f *figures) checkCell(c figCell, res core.Result) error {
	want := float64(res.Cycles)
	if c.util {
		want = 100 * res.MeanUtilization
	}
	fig, ok := f.last[c.figure]
	if !ok {
		return fmt.Errorf("replay: %s missing from the pass", c.figure)
	}
	for _, s := range fig.Series {
		if s.Name != c.series {
			continue
		}
		if got, ok := s.Y(float64(c.procs)); ok && got == want {
			return nil
		}
		break
	}
	return fmt.Errorf("replay: %s %s procs=%d gives %v, the figure does not", c.figure, c.series, c.procs, want)
}
