package history

import (
	"strings"
	"testing"

	"ssmp/internal/bccheck"
	"ssmp/internal/sim"
)

func TestSinglePendingOpLinearizable(t *testing.T) {
	// An operation that never completed (End = ∞) overlaps everything after
	// its start; a lone pending write is trivially linearizable.
	check(t, []Op{{Proc: 0, Write: true, Addr: 1, Value: 5, Start: 10, End: sim.Infinity}}, true)
	// A pending write can explain a later read of its value...
	check(t, []Op{
		{Proc: 0, Write: true, Addr: 1, Value: 5, Start: 10, End: sim.Infinity},
		rd(1, 1, 5, 100, 110),
	}, true)
	// ...but not a read of a value never written.
	check(t, []Op{
		{Proc: 0, Write: true, Addr: 1, Value: 5, Start: 10, End: sim.Infinity},
		rd(1, 1, 9, 100, 110),
	}, false)
}

func TestOverlappingSameValueWrites(t *testing.T) {
	// Two overlapping writes of the same value: any order works, and reads
	// of that value are legal during and after.
	check(t, []Op{
		w(0, 1, 5, 0, 20),
		w(1, 1, 5, 10, 30),
		rd(0, 1, 5, 15, 25),
		rd(1, 1, 5, 40, 50),
	}, true)
	// A stale zero after both completed is still a violation.
	check(t, []Op{
		w(0, 1, 5, 0, 20),
		w(1, 1, 5, 10, 30),
		rd(0, 1, 0, 40, 50),
	}, false)
}

func TestGraphConversion(t *testing.T) {
	r := &Recorder{}
	r.Record(w(0, 5, 7, 0, 10))                                                         // block 1 word 1 at blockWords=4
	r.Record(rd(1, 5, 7, 20, 30))                                                       //
	r.Record(rmw(1, 6, 0, 1, 40, 50))                                                   //
	r.Record(Op{Proc: 0, Write: true, Addr: 5, Value: 9, Start: 60, End: sim.Infinity}) // pending

	g := r.Graph(4)
	if len(g.Events) != 4 {
		t.Fatalf("want 4 events, got %d", len(g.Events))
	}
	if g.Events[0].Loc != (bccheck.Loc{Block: 1, Word: 1}) {
		t.Errorf("addr 5 with blockWords 4: loc %+v", g.Events[0].Loc)
	}
	if !g.Events[3].Pending {
		t.Error("End=Infinity op not marked pending")
	}
	rf := g.RF()
	if rf[1] != 0 {
		t.Errorf("read should read-from event 0, got %d", rf[1])
	}
	if rf[2] != -1 {
		t.Errorf("RMW of initial 0 should read-from initial, got %d", rf[2])
	}
	s := g.String()
	if !strings.Contains(s, "∞") {
		t.Errorf("pending op should render ∞:\n%s", s)
	}
}
