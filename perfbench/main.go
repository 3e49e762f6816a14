// Command perfbench is the ssmp benchmark. It runs one of four workloads
// over the library for a fixed time, checks every simulated output, and
// prints one JSON result line:
//
//	perfbench --workload figures --seed 1 --seconds 15 --trace 0
//	perfbench compare old.jsonl new.jsonl
//	perfbench reference -seeds 0-63
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// nproc bounds every thread pool, lane count and client set.
	nproc int
	// tiny shrinks every workload's inputs for the self-tests.
	tiny   bool
	refs   references
	outdir string
}

// newWorkload returns the named workload, or nil.
func newWorkload(name string) job {
	switch name {
	case "figures":
		return &figures{}
	case "stencil-1024":
		return &stencil{}
	case "litmus-replay":
		return &litmusReplay{}
	case "ssmpd-kv":
		return &kvDaemon{}
	}
	return nil
}

var workloadNames = []string{"figures", "stencil-1024", "litmus-replay", "ssmpd-kv"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: figures, stencil-1024, litmus-replay or ssmpd-kv")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	outdir := fs.String("outdir", "", "directory the result record and span dump are written to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}

	if fs.NArg() > 0 {
		var err error
		switch fs.Arg(0) {
		case "compare":
			err = compareCmd(fs.Args()[1:], stdout)
		case "reference":
			err = referenceCmd(fs.Args()[1:], nproc, stderr)
		default:
			err = fmt.Errorf("unknown command %q", fs.Arg(0))
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	if newWorkload(*wl) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		nproc:    nproc,
		refs:     refs,
		outdir:   *outdir,
	}
	rec, err := runOne(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if cfg.outdir != "" {
		if err := appendLine(filepath.Join(cfg.outdir, "results.jsonl"), full); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	last, err := json.Marshal(rec.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result of one run: the contract's result fields plus
// the host block, the output digest and the raw pass times. The compare
// command reads files of these, one per line.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Host      host                   `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"`
	Reference string                 `json:"reference,omitempty"`
	PassWallS []float64              `json:"pass_wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is the result line the benchmark contract asks for.
func (r *record) summary() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func runOne(cfg config, log io.Writer) (*record, error) {
	out, err := measure(newWorkload(cfg.workload), cfg, log)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rec := &record{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     cfg.trace,
		Seconds:   cfg.seconds.Seconds(),
		Host:      hostInfo(),
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Digest:    out.digest,
		PassWallS: out.walls,
		Metrics:   map[string]metricValue{},
	}
	rec.Reference, _ = cfg.refs.lookup(cfg.workload, cfg.seed)
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rec.Metrics[d.name] = metricValue{v, d.unit}
	}
	if rec.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return rec, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
