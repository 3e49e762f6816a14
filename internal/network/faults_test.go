package network

import (
	"strings"
	"testing"

	"ssmp/internal/sim"
)

func faultedConfig(nodes int, seed uint64, r FaultRates) Config {
	cfg := DefaultConfig(nodes)
	cfg.Faults = FaultConfig{Seed: seed, Rates: r}
	return cfg
}

func TestFaultConfigEnabled(t *testing.T) {
	cases := []struct {
		cfg  FaultConfig
		want bool
	}{
		{FaultConfig{}, false},
		{FaultConfig{Seed: 7}, false},                      // no rates
		{FaultConfig{Rates: FaultRates{Drop: 0.5}}, false}, // seed 0
		{FaultConfig{Seed: 7, Rates: FaultRates{Drop: 0.5}}, true},
		{FaultConfig{Seed: 7, Links: map[Link]FaultRates{{0, 1}: {Dup: 0.5}}}, true},
		{FaultConfig{Seed: 7, Links: map[Link]FaultRates{{0, 1}: {}}}, false},
	}
	for i, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("case %d: Enabled(%+v) = %v, want %v", i, c.cfg, got, c.want)
		}
	}
}

func TestFaultConfigValidate(t *testing.T) {
	ok := FaultConfig{Seed: 1, Rates: FaultRates{Drop: 0.1, Dup: 0.2, Delay: 0.99}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []FaultConfig{
		{Seed: 1, Rates: FaultRates{Drop: 1}},
		{Seed: 1, Rates: FaultRates{Dup: -0.1}},
		{Seed: 1, Rates: FaultRates{Delay: 2}},
		{Seed: 1, Links: map[Link]FaultRates{{2, 3}: {Drop: 1.5}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
	if err := bad[3].Validate(); err == nil || !strings.Contains(err.Error(), "2->3") {
		t.Errorf("link error should name the link, got %v", bad[3].Validate())
	}
}

func TestFaultConfigString(t *testing.T) {
	if s := (FaultConfig{}).String(); s != "faults=off" {
		t.Errorf("off String = %q", s)
	}
	c := FaultConfig{Seed: 42, Rates: FaultRates{Drop: 0.01, Dup: 0.02, Delay: 0.03}}
	s := c.String()
	for _, want := range []string{"seed=42", "drop=0.01", "dup=0.02", "delay=0.03"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	c.Links = map[Link]FaultRates{{0, 1}: {Drop: 0.5}}
	if s := c.String(); !strings.Contains(s, "1 link override") {
		t.Errorf("String() = %q, missing link-override note", s)
	}
}

// collect runs pairs of (src, dst) control messages through a network and
// returns the per-destination delivery times and final stats.
func collect(t *testing.T, cfg Config, sends [][2]int) ([]sim.Time, Stats) {
	t.Helper()
	e := sim.NewEngine()
	n := New(e, cfg)
	var times []sim.Time
	for i := 0; i < cfg.Nodes; i++ {
		n.Attach(i, func(any) { times = append(times, e.Now()) })
	}
	for _, s := range sends {
		n.Send(s[0], s[1], 0, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return times, n.Stats()
}

func crossTraffic(nodes, count int) [][2]int {
	var sends [][2]int
	for i := 0; i < count; i++ {
		sends = append(sends, [2]int{i % nodes, (i*5 + 1) % nodes})
	}
	return sends
}

func TestFaultsDeterministicPerSeed(t *testing.T) {
	sends := crossTraffic(8, 200)
	r := FaultRates{Drop: 0.1, Dup: 0.1, Delay: 0.2}
	t1, s1 := collect(t, faultedConfig(8, 99, r), sends)
	t2, s2 := collect(t, faultedConfig(8, 99, r), sends)
	if len(t1) != len(t2) {
		t.Fatalf("same seed delivered %d vs %d messages", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	if s1.Faults != s2.Faults {
		t.Fatalf("same seed fault stats differ: %+v vs %+v", s1.Faults, s2.Faults)
	}
	t3, s3 := collect(t, faultedConfig(8, 100, r), sends)
	if len(t1) == len(t3) && s1.Faults == s3.Faults {
		same := true
		for i := range t1 {
			if t1[i] != t3[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical executions")
		}
	}
}

func TestFaultsSeedZeroMatchesBaseline(t *testing.T) {
	sends := crossTraffic(8, 100)
	base, bs := collect(t, DefaultConfig(8), sends)
	// Seed 0 disables faults even with rates set.
	zt, zs := collect(t, faultedConfig(8, 0, FaultRates{Drop: 0.5, Dup: 0.5, Delay: 0.5}), sends)
	if len(base) != len(zt) {
		t.Fatalf("seed-0 delivered %d, baseline %d", len(zt), len(base))
	}
	for i := range base {
		if base[i] != zt[i] {
			t.Fatalf("seed-0 diverged from baseline at delivery %d", i)
		}
	}
	if zs.Faults != (FaultStats{}) || bs.Faults != (FaultStats{}) {
		t.Fatalf("fault stats nonzero with faults off: %+v", zs.Faults)
	}
}

func TestFaultsDrop(t *testing.T) {
	sends := crossTraffic(8, 400)
	times, st := collect(t, faultedConfig(8, 7, FaultRates{Drop: 0.25}), sends)
	if st.Faults.Dropped == 0 {
		t.Fatal("no drops at rate 0.25 over 400 messages")
	}
	if uint64(len(times))+st.Faults.Dropped != 400 {
		t.Fatalf("delivered %d + dropped %d != sent 400", len(times), st.Faults.Dropped)
	}
}

func TestFaultsDup(t *testing.T) {
	sends := crossTraffic(8, 400)
	times, st := collect(t, faultedConfig(8, 7, FaultRates{Dup: 0.25}), sends)
	if st.Faults.Duplicated == 0 {
		t.Fatal("no duplicates at rate 0.25 over 400 messages")
	}
	if uint64(len(times)) != 400+st.Faults.Duplicated {
		t.Fatalf("delivered %d, want 400 + %d duplicates", len(times), st.Faults.Duplicated)
	}
}

func TestFaultsDelay(t *testing.T) {
	sends := crossTraffic(8, 400)
	_, st := collect(t, faultedConfig(8, 7, FaultRates{Delay: 0.25}), sends)
	if st.Faults.Delayed == 0 || st.Faults.DelayCycles == 0 {
		t.Fatalf("no delays injected: %+v", st.Faults)
	}
	if st.Faults.DelayCycles < st.Faults.Delayed {
		t.Fatalf("delay cycles %d < delayed count %d (each delay is >= 1 cycle)",
			st.Faults.DelayCycles, st.Faults.Delayed)
	}
	cfg := faultedConfig(8, 7, FaultRates{Delay: 0.25})
	cfg.Faults.DelayMax = 3
	_, st3 := collect(t, cfg, sends)
	if st3.Faults.DelayCycles > 3*st3.Faults.Delayed+uint64(cfg.Faults.DelayMax)*st3.Faults.Duplicated {
		t.Fatalf("DelayMax=3 exceeded: %+v", st3.Faults)
	}
}

func TestFaultsLinkOverride(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Faults = FaultConfig{
		Seed:  11,
		Links: map[Link]FaultRates{{0, 1}: {Drop: 0.9}},
	}
	e := sim.NewEngine()
	n := New(e, cfg)
	got := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		n.Attach(i, func(any) { got[i]++ })
	}
	for i := 0; i < 50; i++ {
		n.Send(0, 1, 0, nil) // faulty link
		n.Send(2, 3, 0, nil) // clean link
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[3] != 50 {
		t.Fatalf("clean link delivered %d/50", got[3])
	}
	if got[1] == 50 {
		t.Fatal("flaky link with drop=0.9 delivered everything")
	}
	if n.Stats().Faults.Dropped == 0 {
		t.Fatal("no drops recorded on overridden link")
	}
}

func TestFaultsLocalBypassNeverFaulted(t *testing.T) {
	cfg := faultedConfig(4, 13, FaultRates{Drop: 0.99})
	e := sim.NewEngine()
	n := New(e, cfg)
	delivered := 0
	n.Attach(0, func(any) { delivered++ })
	for i := 1; i < 4; i++ {
		n.Attach(i, func(any) {})
	}
	for i := 0; i < 100; i++ {
		n.Send(0, 0, 0, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 100 {
		t.Fatalf("local bypass delivered %d/100 under drop=0.99", delivered)
	}
	if !n.FaultsEnabled() {
		t.Fatal("FaultsEnabled() = false with an enabled config")
	}
	if n.LocalBypass(0, 1) || !n.LocalBypass(2, 2) {
		t.Fatal("LocalBypass misclassifies")
	}
}

func TestFaultPlaneStreamsIndependent(t *testing.T) {
	// A link's fault sequence must depend only on its own traffic: judging
	// extra messages on link A must not change link B's verdicts.
	r := FaultRates{Drop: 0.3, Dup: 0.3, Delay: 0.3}
	cfg := FaultConfig{Seed: 5, Rates: r}
	a := newFaultPlane(cfg, 4)
	b := newFaultPlane(cfg, 4)
	for i := 0; i < 64; i++ {
		a.judge(0, 1) // extra traffic on 0->1 in plane a only
	}
	for i := 0; i < 64; i++ {
		va, vb := a.judge(2, 3), b.judge(2, 3)
		if va != vb {
			t.Fatalf("link 2->3 verdict %d differs after unrelated traffic: %+v vs %+v", i, va, vb)
		}
	}
}
