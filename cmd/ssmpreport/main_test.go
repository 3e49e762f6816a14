package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmp/internal/analytic"
	"ssmp/internal/harness"
)

// tinySweep is the sweep every test runs: small enough to finish in well
// under a second.
var tinySweep = []string{"-procs", "2,4", "-tasks", "8", "-episodes", "1"}

func tinyOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Procs = []int{2, 4}
	opt.Tasks = 8
	opt.Episodes = 1
	return opt
}

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

func TestTablesMatchesAnalytic(t *testing.T) {
	want := analytic.FormatTable2(8, 2, analytic.DefaultClassCosts()) + "\n" +
		analytic.FormatTable3(analytic.DefaultSyncParams(8)) + "\n" +
		"(run with -sim to cross-check against the simulator)\n"
	if got := runArgs(t, "tables", "-n", "8", "-b", "2"); got != want {
		t.Fatalf("tables output:\n%s\nwant:\n%s", got, want)
	}
}

func TestFiguresMatchesHarness(t *testing.T) {
	dir := t.TempDir()
	got := runArgs(t, append([]string{"figures", "-util", "-csv", dir, "-svg", dir}, tinySweep...)...)
	opt := tinyOptions()
	figs := append(opt.Figures(), opt.UtilizationFigure(128))
	for _, f := range figs {
		if !strings.Contains(got, f.Table()) {
			t.Errorf("output lacks %s table:\n%s", f.Name, f.Table())
		}
		base := strings.ToLower(strings.ReplaceAll(f.Name, " ", ""))
		csv, err := os.ReadFile(filepath.Join(dir, base+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if string(csv) != f.CSV() {
			t.Errorf("%s.csv differs from harness CSV:\n%s\nwant:\n%s", base, csv, f.CSV())
		}
		if _, err := os.Stat(filepath.Join(dir, base+".svg")); err != nil {
			t.Error(err)
		}
	}

	// -fig selects one figure.
	one := runArgs(t, append([]string{"figures", "-fig", "6"}, tinySweep...)...)
	if want := opt.Figure6().Table() + "\n"; one != want {
		t.Fatalf("figures -fig 6 output:\n%s\nwant:\n%s", one, want)
	}
}

func TestReportContainsTablesAndFigures(t *testing.T) {
	got := runArgs(t, tinySweep...)
	opt := tinyOptions()
	parts := []string{
		"# ssmp evaluation report",
		"Sweep: procs=[2 4], tables at n=16, 8 tasks, 1 episodes, seed 42.",
		analytic.FormatTable2(16, 4, analytic.DefaultClassCosts()),
		analytic.FormatTable3(analytic.DefaultSyncParams(16)),
		harness.FormatTable2Sim(16, 20, opt.Table2Sim(16, 20)),
		harness.FormatTable3Sim(16, opt.Table3Sim(16)),
		"- CBL serial lock is exactly 3 messages: **PASS**",
		"## Shape claims (largest sweep point)",
	}
	for _, f := range opt.Figures() {
		parts = append(parts, "### "+f.Name+"\n\n```\n"+f.Table()+"```\n")
	}
	for _, p := range parts {
		if !strings.Contains(got, p) {
			t.Errorf("report lacks:\n%s", p)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "2,x"},
		{"-procs", "2,3"},
		{"figures", "-procs", "0"},
		{"figures", "-fig", "9", "-procs", "2"},
		{"tables", "-nope"},
		{"plots"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run %q succeeded, want an error", args)
		}
	}
}
