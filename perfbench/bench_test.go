package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"ssmp/internal/server"
)

func tinyConfig(wl string, trace bool) config {
	return config{
		workload: wl,
		seed:     3,
		seconds:  200 * time.Millisecond,
		trace:    trace,
		nproc:    runtime.NumCPU(),
		tiny:     true,
		refs:     references{},
	}
}

// Every workload runs clean at a tiny size, traced and untraced, and
// emits exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsRunCleanWithDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			rec, err := runOne(tinyConfig(wl, trace), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed\n%s", wl, trace, rec.Failed, rec.Attempted, log.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", wl, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, BENCHMARK.json declares unit %q", wl, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// A corrupted reference digest is counted as a failed op, and the true
// one is not.
func TestReferenceDigestMismatchFails(t *testing.T) {
	for _, wl := range workloadNames {
		cfg := tinyConfig(wl, false)
		dig, err := referencePass(cfg, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, tc := range []struct {
			digest string
			failed bool
		}{{dig, false}, {strings.Repeat("0", len(dig)), true}} {
			cfg.refs = references{}
			cfg.refs.set(wl, cfg.seed, tc.digest)
			rec, err := runOne(cfg, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			if (rec.Failed > 0) != tc.failed || rec.Correct == tc.failed {
				t.Errorf("%s reference %s: %d failed ops, correct=%v", wl, tc.digest, rec.Failed, rec.Correct)
			}
		}
	}
}

// A KV result that fails a check is a failed op, and a run whose ops fail
// still reports finite metrics: an oracle violation fails every cold
// request, and a daemon result that differs from a direct kvapp.Run fails
// every direct replay of the traced run.
func TestFailingKVChecksCount(t *testing.T) {
	violation := func(r *server.KVResult) {
		r.Oracle.Violations = append(r.Oracle.Violations, "injected violation")
	}
	skew := func(r *server.KVResult) { r.Cycles++ }
	for _, tc := range []struct {
		name    string
		tamper  func(*server.KVResult)
		trace   bool
		allFail bool
	}{
		{"oracle violation", violation, false, true},
		{"oracle violation traced", violation, true, true},
		{"daemon and kvapp disagree traced", skew, true, false},
	} {
		out, err := measure(&kvDaemon{tamper: tc.tamper}, tinyConfig("ssmpd-kv", tc.trace), &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if out.failed == 0 || (tc.allFail && out.failed != out.attempted) {
			t.Errorf("%s: %d of %d ops failed", tc.name, out.failed, out.attempted)
		}
		if _, err := json.Marshal(out.metrics); err != nil {
			t.Errorf("%s: metrics do not marshal: %v", tc.name, err)
		}
	}
}

// No pool the benchmark sizes exceeds nproc.
func TestPoolsBoundedByNproc(t *testing.T) {
	cfg := tinyConfig("", false)
	cfg.nproc = 1
	e := newEnv(cfg, &bytes.Buffer{})

	f := &figures{}
	if err := f.setup(e); err != nil || f.opts.Parallelism != 1 {
		t.Errorf("figures: harness fan %d, err %v", f.opts.Parallelism, err)
	}
	s := &stencil{}
	if err := s.setup(e); err != nil || s.cfg.SimWorkers != 1 {
		t.Errorf("stencil: %d lane workers, err %v", s.cfg.SimWorkers, err)
	}
	k := &kvDaemon{}
	err := k.setup(e)
	defer k.close()
	if err != nil || k.lanes != 1 || len(k.clients) != 1 {
		t.Errorf("kv: %d lane workers, %d client connections, err %v", k.lanes, len(k.clients), err)
	}
}

// quartiles agrees with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 2, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// compare flags a regression beyond the bound, an unresolved spread and a
// changed output digest.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	mk := func(seed uint64, digest string, wall, ops float64) record {
		return record{Workload: "figures", Seed: seed, Digest: digest, Attempted: 1,
			Metrics: map[string]metricValue{"wall_s": {wall, "s"}, "ops_per_s": {ops, "1/s"}}}
	}
	var a, b []record
	for i := uint64(0); i < 10; i++ {
		a = append(a, mk(i, "d", 1+float64(i%2)*0.01, 10+float64(i%3)*3))
		digest := "d"
		if i == 4 {
			digest = "x"
		}
		b = append(b, mk(i, digest, 1.2+float64(i%2)*0.01, 10+float64(i%3)*3))
	}
	out := compare(spec, a, b)
	lines := strings.Split(out, "\n")
	find := func(prefix string) string {
		for _, l := range lines {
			if strings.HasPrefix(strings.Join(strings.Fields(l), " "), prefix) {
				return l
			}
		}
		return ""
	}
	if l := find("figures wall_s"); !strings.Contains(l, "WORSE") {
		t.Errorf("wall_s row %q, want WORSE", l)
	}
	if l := find("figures ops_per_s"); !strings.Contains(l, "unresolved") {
		t.Errorf("ops_per_s row %q, want unresolved", l)
	}
	if l := find("figures output digest"); !strings.Contains(l, "seed 4") {
		t.Errorf("digest row %q, want seed 4 flagged", l)
	}
}
