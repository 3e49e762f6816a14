// Command ssmpreport regenerates the paper's evaluation. With no
// subcommand it runs everything once and emits a Markdown report: the
// analytical Tables 2 and 3, their simulated cross-checks, and Figures 4-7,
// with the paper's shape claims checked programmatically. This is the
// reproducibility entry point:
//
//	go run ./cmd/ssmpreport -procs 2,4,8,16,32,64 > report.md
//
// The subcommands print one part of it:
//
//	ssmpreport tables  [-n 16] [-b 4] [-sim] [-iters 20]
//	ssmpreport figures [-fig 0] [-util] [-procs ...] [-tasks 128] [-episodes 8]
//	                   [-seed 42] [-csv dir] [-svg dir] [-logy] [-v]
//
// tables prints the analytical Table 2 (linear-solver traffic under
// read-update vs invalidation) and Table 3 (synchronization scenario costs
// under WBI vs CBL), cross-checked against the simulator with -sim. figures
// prints completion time against processor count for the cache-scheme
// comparison (Figures 4-5) and the buffered-vs-sequential-consistency
// comparison (Figures 6-7) as aligned text tables, optionally with CSV
// files and SVG charts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ssmp/internal/analytic"
	"ssmp/internal/harness"
	"ssmp/internal/plot"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmpreport:", err)
		os.Exit(1)
	}
}

// run executes one command line (without the program name), writing the
// output to stdout and progress logs (-v, tables -sim) to stderr.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return report(args, stdout)
	}
	switch args[0] {
	case "tables":
		return tables(args[1:], stdout)
	case "figures":
		return figures(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q (want tables, figures, or flags for the full report)", args[0])
}

// sweepFlags registers the figure-sweep flags the report and figures share
// on fs and returns a function that turns their parsed values into harness
// options.
func sweepFlags(fs *flag.FlagSet, procs string) func() (harness.Options, error) {
	procsFlag := fs.String("procs", procs, "processor sweep for the figures")
	tasks := fs.Int("tasks", 128, "work-queue tasks")
	episodes := fs.Int("episodes", 8, "sync-model episodes")
	seed := fs.Uint64("seed", 42, "workload seed")
	verbose := fs.Bool("v", false, "log each run to stderr")
	return func() (harness.Options, error) {
		opt := harness.DefaultOptions()
		opt.Tasks = *tasks
		opt.Episodes = *episodes
		opt.Seed = *seed
		opt.Procs = opt.Procs[:0]
		for _, s := range strings.Split(*procsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return opt, fmt.Errorf("bad procs list: %v", err)
			}
			if n < 2 || n&(n-1) != 0 {
				return opt, fmt.Errorf("bad procs list: %d is not a power of two >= 2", n)
			}
			opt.Procs = append(opt.Procs, n)
		}
		if *verbose {
			opt.Log = os.Stderr
		}
		return opt, nil
	}
}

// paperFigures lists the paper's simulation figures.
var paperFigures = []int{4, 5, 6, 7}

// buildFigures computes the numbered figures, returning an unknown number or
// the first sweep point's run error instead of panicking as
// harness.Options.Figures does.
func buildFigures(opt harness.Options, nums []int) ([]harness.Figure, error) {
	var out []harness.Figure
	for _, n := range nums {
		f, err := opt.FigureByNumber(n)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func tables(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ssmpreport tables", flag.ContinueOnError)
	n := fs.Int("n", 16, "processor count")
	b := fs.Int("b", 4, "cache line size in words (Table 2)")
	sim := fs.Bool("sim", false, "also measure the scenarios on the simulator")
	iters := fs.Int("iters", 20, "solver iterations for -sim Table 2")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintln(w, analytic.FormatTable2(*n, *b, analytic.DefaultClassCosts()))
	fmt.Fprintln(w, analytic.FormatTable3(analytic.DefaultSyncParams(*n)))

	if !*sim {
		fmt.Fprintln(w, "(run with -sim to cross-check against the simulator)")
		return nil
	}
	opt := harness.DefaultOptions()
	opt.Log = os.Stderr
	fmt.Fprintln(w, harness.FormatTable2Sim(*n, *iters, opt.Table2Sim(*n, *iters)))
	fmt.Fprintln(w, harness.FormatTable3Sim(*n, opt.Table3Sim(*n)))
	fmt.Fprintln(w, "Notes: simulated WBI costs differ from the paper's closed-form model in")
	fmt.Fprintln(w, "absolute terms (our baseline caches the lock line exclusively, so the")
	fmt.Fprintln(w, "serial case is cheap); the claims that reproduce are the asymptotics —")
	fmt.Fprintln(w, "CBL's O(n) parallel-lock traffic against WBI's superlinear growth, and")
	fmt.Fprintln(w, "the constant 2-message CBL barrier request.")
	return nil
}

func figures(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ssmpreport figures", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure number 4-7 (0 = all)")
	util := fs.Bool("util", false, "also produce the utilization extension figure")
	options := sweepFlags(fs, "2,4,8,16,32,64")
	csvDir := fs.String("csv", "", "directory to write CSV files into")
	svgDir := fs.String("svg", "", "directory to write SVG charts into")
	logY := fs.Bool("logy", false, "logarithmic Y axis for the SVG charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := options()
	if err != nil {
		return err
	}

	nums := paperFigures
	if *fig != 0 {
		nums = []int{*fig}
	}
	figs, err := buildFigures(opt, nums)
	if err != nil {
		return err
	}
	if *util {
		figs = append(figs, opt.UtilizationFigure(128))
	}

	for _, f := range figs {
		fmt.Fprintln(w, f.Table())
		base := strings.ToLower(strings.ReplaceAll(f.Name, " ", ""))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, base+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n\n", path)
		}
		if *svgDir != "" {
			yLabel := "completion time (cycles)"
			logY := *logY
			if f.Name == "Utilization" {
				yLabel = "mean utilization (%)"
				logY = false
			}
			svg := plot.SVG(plot.Options{
				Title: f.Name + ": " + f.Title, XLabel: f.XLabel,
				YLabel: yLabel, LogX: true, LogY: logY,
			}, f.Series)
			path := filepath.Join(*svgDir, base+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n\n", path)
		}
	}
	return nil
}

func report(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ssmpreport", flag.ContinueOnError)
	options := sweepFlags(fs, "2,4,8,16,32")
	tableN := fs.Int("table-n", 16, "processor count for the tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := options()
	if err != nil {
		return err
	}
	figs, err := buildFigures(opt, paperFigures)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# ssmp evaluation report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Sweep: procs=%v, tables at n=%d, %d tasks, %d episodes, seed %d.\n",
		opt.Procs, *tableN, opt.Tasks, opt.Episodes, opt.Seed)
	fmt.Fprintln(w, "All runs are deterministic; rerunning this command reproduces every number.")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Analytical models")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, analytic.FormatTable2(*tableN, 4, analytic.DefaultClassCosts()))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, analytic.FormatTable3(analytic.DefaultSyncParams(*tableN)))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Simulated cross-checks")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, harness.FormatTable2Sim(*tableN, 20, opt.Table2Sim(*tableN, 20)))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	t3 := opt.Table3Sim(*tableN)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, harness.FormatTable3Sim(*tableN, t3))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	if err := checkTable3(w, t3, *tableN); err != nil {
		return err
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Figures")
	for _, f := range figs {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "### %s\n\n", f.Name)
		fmt.Fprintln(w, "```")
		fmt.Fprint(w, f.Table())
		fmt.Fprintln(w, "```")
	}
	fmt.Fprintln(w)
	return checkFigures(w, opt.Procs, figs)
}

// claim prints one pass/fail line of the report's shape checks.
func claim(w io.Writer, name string, ok bool) {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
	}
	fmt.Fprintf(w, "- %s: **%s**\n", name, mark)
}

// checkTable3 prints pass/fail lines for the Table 3 shape claims.
func checkTable3(w io.Writer, rows []harness.Table3Measured, n int) error {
	var missing error
	get := func(s analytic.Scenario, scheme string) harness.Table3Measured {
		for _, r := range rows {
			if r.Scenario == s && r.Scheme == scheme {
				return r
			}
		}
		missing = fmt.Errorf("missing %s/%s", s, scheme)
		return harness.Table3Measured{}
	}
	claim(w, "CBL serial lock is exactly 3 messages",
		get(analytic.SerialLock, "CBL").Messages == 3)
	claim(w, fmt.Sprintf("CBL parallel lock is O(n): <= 6n = %d messages", 6*n),
		get(analytic.ParallelLock, "CBL").Messages <= uint64(6*n))
	claim(w, "WBI parallel lock costs more than CBL (messages)",
		get(analytic.ParallelLock, "WBI").Messages > get(analytic.ParallelLock, "CBL").Messages)
	claim(w, "WBI parallel lock costs more than CBL (time)",
		get(analytic.ParallelLock, "WBI").Cycles > get(analytic.ParallelLock, "CBL").Cycles)
	claim(w, "CBL barrier request is exactly 2 messages per processor",
		get(analytic.BarrierRequest, "CBL").Messages == 2)
	claim(w, "CBL barrier beats the software barrier (messages)",
		get(analytic.BarrierNotify, "CBL").Messages < get(analytic.BarrierNotify, "WBI").Messages)
	return missing
}

// checkFigures prints pass/fail lines for the figure shape claims at the
// sweep's largest processor count; figs are Figures 4-7 in order.
func checkFigures(w io.Writer, procs []int, figs []harness.Figure) error {
	nMax := float64(procs[len(procs)-1])
	var missing error
	y := func(f harness.Figure, name string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				if v, ok := s.Y(x); ok {
					return v
				}
			}
		}
		missing = fmt.Errorf("missing %s in %s", name, f.Name)
		return 0
	}
	f4, f6 := figs[0], figs[2]
	fmt.Fprintln(w, "## Shape claims (largest sweep point)")
	fmt.Fprintln(w)
	claim(w, "Figure 4: Q-CBL beats Q-WBI under contention",
		y(f4, "Q-CBL", nMax) < y(f4, "Q-WBI", nMax))
	claim(w, "Figure 4: backoff helps WBI but does not beat CBL",
		y(f4, "Q-backoff", nMax) < y(f4, "Q-WBI", nMax) &&
			y(f4, "Q-CBL", nMax) < y(f4, "Q-backoff", nMax))
	claim(w, "Figure 4: sync-model CBL <= sync-model WBI",
		y(f4, "CBL", nMax) <= y(f4, "WBI", nMax))
	bcWins := true
	for _, p := range procs {
		if y(f6, "BC-CBL", float64(p)) > y(f6, "SC-CBL", float64(p)) {
			bcWins = false
		}
	}
	claim(w, "Figures 6-7: buffered consistency never loses to SC", bcWins)
	return missing
}
