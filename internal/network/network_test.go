package network

import (
	"testing"
	"testing/quick"

	"ssmp/internal/sim"
)

func mk(t testing.TB, nodes int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	n := New(e, DefaultConfig(nodes))
	return e, n
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Nodes: 2, SwitchDelay: 1}, true},
		{Config{Nodes: 64, SwitchDelay: 1}, true},
		{Config{Nodes: 0, SwitchDelay: 1}, false},
		{Config{Nodes: 1, SwitchDelay: 1}, false},
		{Config{Nodes: 3, SwitchDelay: 1}, false},
		{Config{Nodes: 48, SwitchDelay: 1}, false},
		{Config{Nodes: 8, SwitchDelay: 0}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Nodes: 3, SwitchDelay: 1})
}

func TestStages(t *testing.T) {
	for nodes, want := range map[int]int{2: 1, 4: 2, 8: 3, 64: 6, 1024: 10} {
		_, n := mk(t, nodes)
		if n.Stages() != want {
			t.Errorf("Stages(%d nodes) = %d, want %d", nodes, n.Stages(), want)
		}
	}
}

func TestDeliveryReachesHandler(t *testing.T) {
	e, n := mk(t, 8)
	got := make([]any, 0, 1)
	for i := 0; i < 8; i++ {
		i := i
		n.Attach(i, func(p any) {
			if i == 5 {
				got = append(got, p)
			} else {
				t.Errorf("payload delivered to wrong node %d", i)
			}
		})
	}
	n.Send(2, 5, 0, "hello")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered %v, want [hello]", got)
	}
}

func TestUncontendedLatency(t *testing.T) {
	e, n := mk(t, 16) // 4 stages, unit switch delay
	var at sim.Time
	for i := 0; i < 16; i++ {
		i := i
		n.Attach(i, func(any) { at = e.Now() })
		_ = i
	}
	n.Send(0, 9, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 4 {
		t.Fatalf("control message latency = %d, want 4 (one cycle per stage)", at)
	}
	if n.UncontendedLatency(0) != 4 {
		t.Fatalf("UncontendedLatency(0) = %d, want 4", n.UncontendedLatency(0))
	}
	if n.UncontendedLatency(4) != 16 {
		t.Fatalf("UncontendedLatency(4) = %d, want 16", n.UncontendedLatency(4))
	}
}

func TestBlockMessagesAreHeavier(t *testing.T) {
	e, n := mk(t, 8)
	var ctl, blk sim.Time
	n.Attach(1, func(any) { ctl = e.Now() })
	n.Attach(2, func(any) { blk = e.Now() })
	for i := 0; i < 8; i++ {
		if i != 1 && i != 2 {
			n.Attach(i, func(any) {})
		}
	}
	n.Send(0, 1, 0, nil) // control
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	start := e.Now()
	n.Send(0, 2, 4, nil) // 4-word block
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ctl != 3 {
		t.Fatalf("control latency = %d, want 3", ctl)
	}
	if blk-start != 12 {
		t.Fatalf("block latency = %d, want 12 (4 flits x 3 stages)", blk-start)
	}
}

func TestLocalBypass(t *testing.T) {
	e, n := mk(t, 4)
	var at sim.Time
	n.Attach(0, func(any) { at = e.Now() })
	for i := 1; i < 4; i++ {
		n.Attach(i, func(any) {})
	}
	n.Send(0, 0, 4, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1 {
		t.Fatalf("local delivery at %d, want LocalDelay=1", at)
	}
	st := n.Stats()
	if st.Local != 1 || st.Messages != 0 {
		t.Fatalf("stats = %+v, want Local=1 Messages=0", st)
	}
}

func TestContentionSerializesSharedPort(t *testing.T) {
	// Two simultaneous messages to the same destination must share the
	// final-stage output port and therefore serialize.
	e, n := mk(t, 8)
	var times []sim.Time
	n.Attach(7, func(any) { times = append(times, e.Now()) })
	for i := 0; i < 7; i++ {
		n.Attach(i, func(any) {})
	}
	n.Send(0, 7, 0, nil)
	n.Send(1, 7, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(times))
	}
	if times[0] == times[1] {
		t.Fatalf("contending messages delivered simultaneously at %d", times[0])
	}
	st := n.Stats()
	if st.QueueSum == 0 {
		t.Fatal("expected nonzero queueing delay under contention")
	}
}

func TestIdealNetworkIgnoresContention(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(8)
	cfg.Ideal = true
	n := New(e, cfg)
	var times []sim.Time
	n.Attach(7, func(any) { times = append(times, e.Now()) })
	for i := 0; i < 7; i++ {
		n.Attach(i, func(any) {})
	}
	for src := 0; src < 4; src++ {
		n.Send(src, 7, 0, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, at := range times {
		if at != 3 {
			t.Fatalf("ideal delivery at %d, want 3 for all", at)
		}
	}
	if n.Stats().QueueSum != 0 {
		t.Fatal("ideal network recorded queueing")
	}
}

func TestAttachTwicePanics(t *testing.T) {
	_, n := mk(t, 4)
	n.Attach(0, func(any) {})
	defer func() {
		if recover() == nil {
			t.Error("double Attach did not panic")
		}
	}()
	n.Attach(0, func(any) {})
}

func TestMissingHandlerPanics(t *testing.T) {
	_, n := mk(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("send to unattached node did not panic")
		}
	}()
	n.Send(1, 2, 0, nil)
}

func TestRouteProperties(t *testing.T) {
	// For every (src, dst) pair the route has exactly logN hops, every
	// line index is in range, and the final line equals the destination
	// (destination-tag routing invariant).
	_, n := mk(t, 32)
	var buf []int
	for src := 0; src < 32; src++ {
		for dst := 0; dst < 32; dst++ {
			buf = n.route(src, dst, buf)
			if len(buf) != 5 {
				t.Fatalf("route(%d,%d) has %d hops, want 5", src, dst, len(buf))
			}
			for _, l := range buf {
				if l < 0 || l >= 32 {
					t.Fatalf("route(%d,%d) line %d out of range", src, dst, l)
				}
			}
			if buf[len(buf)-1] != dst {
				t.Fatalf("route(%d,%d) ends at line %d, want %d", src, dst, buf[len(buf)-1], dst)
			}
		}
	}
}

func TestRouteUniquePaths(t *testing.T) {
	// The Ω network is a unique-path network: two messages between the
	// same pair always take the same route.
	_, n := mk(t, 16)
	a := append([]int(nil), n.route(3, 11, nil)...)
	b := append([]int(nil), n.route(3, 11, nil)...)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("route is not deterministic")
		}
	}
}

// Property: messages are always delivered, exactly once each, and delivery
// time is at least the uncontended latency.
func TestQuickDeliveryComplete(t *testing.T) {
	f := func(pairs []uint16) bool {
		e := sim.NewEngine()
		n := New(e, DefaultConfig(16))
		delivered := 0
		for i := 0; i < 16; i++ {
			n.Attach(i, func(any) { delivered++ })
		}
		sent := 0
		for _, p := range pairs {
			src := int(p) & 15
			dst := int(p>>4) & 15
			n.Send(src, dst, int(p>>8)&3, nil)
			sent++
		}
		if err := e.Run(); err != nil {
			return false
		}
		return delivered == sent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	e, n := mk(t, 8)
	for i := 0; i < 8; i++ {
		n.Attach(i, func(any) {})
	}
	n.Send(0, 1, 4, nil)
	n.Send(2, 3, 0, nil)
	n.Send(4, 4, 2, nil) // local
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Messages != 2 {
		t.Errorf("Messages = %d, want 2", st.Messages)
	}
	if st.Words != 4 {
		t.Errorf("Words = %d, want 4", st.Words)
	}
	if st.Local != 1 {
		t.Errorf("Local = %d, want 1", st.Local)
	}
	if st.Hops != 6 {
		t.Errorf("Hops = %d, want 6", st.Hops)
	}
	if st.MeanLatency() <= 0 {
		t.Error("MeanLatency should be positive")
	}
}

func TestPortUtilization(t *testing.T) {
	e, n := mk(t, 4)
	for i := 0; i < 4; i++ {
		n.Attach(i, func(any) {})
	}
	n.Send(0, 3, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	u := n.PortUtilization(e.Now())
	if u <= 0 || u > 1 {
		t.Fatalf("PortUtilization = %v, want in (0,1]", u)
	}
	if n.PortUtilization(0) != 0 {
		t.Fatal("PortUtilization(0) should be 0")
	}
}

func BenchmarkSendThrough64Nodes(b *testing.B) {
	e := sim.NewEngine()
	n := New(e, DefaultConfig(64))
	for i := 0; i < 64; i++ {
		n.Attach(i, func(any) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(i&63, (i*7)&63, 4, nil)
		if i%1024 == 1023 {
			_ = e.Run()
		}
	}
	_ = e.Run()
}

func TestStatsAndAccessors(t *testing.T) {
	_, n := mk(t, 8)
	if n.Nodes() != 8 {
		t.Fatal("Nodes wrong")
	}
	var s Stats
	if s.MeanLatency() != 0 || s.MeanQueueing() != 0 {
		t.Fatal("empty stats nonzero")
	}
}
