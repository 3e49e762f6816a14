package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare command needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads result records, one JSON object per line; other lines
// (such as the contract's short result line) are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}

// compareCmd prints, per workload and metric, each result set's median
// and quartiles and whether the difference falls outside the metric's
// bound. A metric whose spread exceeds its bound is "unresolved"; output
// digests that differ between the sets for the same seed are flagged.
func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, compare(spec, a, b))
	return err
}

func compare(spec *benchSpec, a, b []record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "A: %s\nB: %s\n\n", hostLine(a), hostLine(b))
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tdelta\tbound\tverdict")
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			ra, rb := pick(a, wl, trace), pick(b, wl, trace)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			for _, d := range defs {
				va, vb := values(ra, d.Name), values(rb, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				delta := (mb - ma) / math.Abs(ma)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", wl, d.Name, describe(va), describe(vb),
					100*delta, boundText(d, trace), verdict(d, trace, va, vb))
			}
			fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t\t%s\n", wl,
				total(ra, true), total(ra, false), total(rb, true), total(rb, false), failVerdict(ra, rb))
			for _, s := range digestDiffs(ra, rb) {
				fmt.Fprintf(tw, "%s\toutput digest\t\t\t\t\tDIGEST DIFFERS (%s)\n", wl, s)
			}
		}
	}
	tw.Flush()
	return sb.String()
}

func hostLine(rs []record) string {
	h := rs[0].Host
	return fmt.Sprintf("%d records; %s, nproc %d, GOMAXPROCS %d, %s, commit %s",
		len(rs), h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

func pick(rs []record, wl string, trace bool) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == wl && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describe(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

func boundText(d specMetric, trace bool) string {
	if trace {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*d.Bound)
}

// verdict applies the benchmark's rule: worse by more than the bound is a
// regression; a spread wider than the bound leaves the metric unresolved
// unless every B run beats every A run.
func verdict(d specMetric, trace bool, va, vb []float64) string {
	if trace {
		return ""
	}
	ma, mb := median(va), median(vb)
	worse := (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		worse = -worse
	}
	if spread(va) > d.Bound || spread(vb) > d.Bound {
		if allBetter(d, va, vb) {
			return "better (every run)"
		}
		return "unresolved"
	}
	switch {
	case worse > d.Bound:
		return "WORSE"
	case -worse > d.Bound:
		return "better"
	}
	return "within bound"
}

func allBetter(d specMetric, va, vb []float64) bool {
	sa, sb := append([]float64(nil), va...), append([]float64(nil), vb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func total(rs []record, failed bool) int {
	n := 0
	for _, r := range rs {
		if failed {
			n += r.Failed
		} else {
			n += r.Attempted
		}
	}
	return n
}

func failVerdict(a, b []record) string {
	if total(b, true) > total(a, true) {
		return "MORE FAILURES"
	}
	return ""
}

// digestDiffs lists the seeds whose pass-0 output digest differs between
// the two sets.
func digestDiffs(a, b []record) []string {
	seen := map[uint64]string{}
	for _, r := range a {
		seen[r.Seed] = r.Digest
	}
	var diff []uint64
	for _, r := range b {
		if d, ok := seen[r.Seed]; ok && d != r.Digest {
			diff = append(diff, r.Seed)
			delete(seen, r.Seed)
		}
	}
	sort.Slice(diff, func(i, j int) bool { return diff[i] < diff[j] })
	out := make([]string, len(diff))
	for i, s := range diff {
		out[i] = "seed " + strconv.FormatUint(s, 10)
	}
	return out
}

// referenceCmd runs pass 0 of every workload for each seed in the range
// and writes the output digests the benchmark checks runs against.
func referenceCmd(args []string, nproc int, log io.Writer) error {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	seeds := fs.String("seeds", "0-63", "inclusive seed range")
	out := fs.String("out", "reference.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	first, err1 := strconv.ParseUint(lo, 10, 64)
	last, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || last < first {
		return fmt.Errorf("bad seed range %q", *seeds)
	}
	refs := references{}
	for _, wl := range workloadNames {
		for seed := first; seed <= last; seed++ {
			cfg := config{workload: wl, seed: seed, nproc: nproc}
			dig, err := referencePass(cfg, log)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			refs.set(wl, seed, dig)
			fmt.Fprintf(log, "%s seed %d: %s\n", wl, seed, dig)
		}
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}

// referencePass sets the workload up and returns its checked pass-0 digest.
func referencePass(cfg config, log io.Writer) (string, error) {
	w := newWorkload(cfg.workload)
	e := newEnv(cfg, log)
	if err := w.setup(e); err != nil {
		return "", err
	}
	defer w.close()
	dig := w.pass(e, 0)
	if e.failed > 0 {
		return "", fmt.Errorf("%d failed ops", e.failed)
	}
	return dig, nil
}
