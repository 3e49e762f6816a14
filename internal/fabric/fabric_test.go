package fabric

import (
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

func TestSendCountsAndDelivers(t *testing.T) {
	eng := sim.NewEngine()
	nw := network.New(eng, network.DefaultConfig(4))
	f := New(eng, nw, DefaultTiming())
	var got *msg.Msg
	for i := 0; i < 4; i++ {
		i := i
		nw.Attach(i, func(p any) {
			if i == 2 {
				got = p.(*msg.Msg)
			}
		})
	}
	f.Send(&msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != msg.LockReq {
		t.Fatal("message not delivered")
	}
	if f.Coll.Kind(msg.LockReq) != 1 {
		t.Fatal("message not counted")
	}
}

func TestStationSerializes(t *testing.T) {
	eng := sim.NewEngine()
	nw := network.New(eng, network.DefaultConfig(2))
	f := New(eng, nw, Timing{CacheHit: 1, TDir: 3, TMem: 4})
	s := NewStation(f)
	var times []sim.Time
	s.Process(func() { times = append(times, eng.Now()) })
	s.Process(func() { times = append(times, eng.Now()) })
	s.ProcessAfter(4, func() { times = append(times, eng.Now()) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// t_D = 3: first at 3, second queued to 6, third at 9+4=13.
	want := []sim.Time{3, 6, 13}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	// Occupancy: 3 + 3 + (3+4): the memory read holds the station.
	if s.Busy() != 13 {
		t.Fatalf("Busy = %d, want 13", s.Busy())
	}
}

func TestDefaultTimingMatchesTable4(t *testing.T) {
	tm := DefaultTiming()
	if tm.CacheHit != 1 || tm.TDir != 1 || tm.TMem != 4 {
		t.Fatalf("DefaultTiming = %+v, want 1/1/4 per Table 4", tm)
	}
}

// A cache-hit completion fires one hit later with its word and, once the
// engine's arena is warm, allocates nothing.
func TestHitDoneAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, network.New(eng, network.DefaultConfig(4)), DefaultTiming())
	var got mem.Word
	var at sim.Time
	done := func(w mem.Word) { got, at = w, eng.Now() }
	f.HitDone(done, 42)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || at != f.Time.CacheHit {
		t.Fatalf("done(%d) at %d, want done(42) at %d", got, at, f.Time.CacheHit)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.HitDone(done, 7)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("HitDone allocates %.1f times per hit, want 0", allocs)
	}
}
