package sim

import (
	"errors"
	"reflect"
	"testing"
)

// ringModel is a deterministic multi-lane kernel workload: each lane
// receives tokens, does some local work, and forwards them around the ring
// with a cross-lane latency >= the lookahead. Every delivery is folded into
// a per-lane log keyed by (time, payload), so two runs agree iff their
// full delivery schedules agree.
type ringModel struct {
	p     *Parallel
	lanes int32
	la    Time
	logs  [][]uint64
	live  []int // tokens still circulating, per lane-of-origin
}

type ringNode struct {
	m  *ringModel
	id int32
}

func (rn *ringNode) OnDeliver(payload any) {
	m := rn.m
	v := payload.(uint64)
	e := m.p.Lane(int(rn.id))
	m.logs[rn.id] = append(m.logs[rn.id], v*0x9e3779b97f4a7c15+uint64(e.Now()))
	hops := v & 0xffff
	if hops == 0 {
		return
	}
	id := rn.id
	// Local compute before forwarding: exercises same-window local events.
	e.After(3, func() {
		dst := (id + 1) % m.lanes
		m.p.Post(id, dst, e.Now()+m.la, &ringNode{m, dst}, v-1)
	})
}

func runRing(t *testing.T, lanes, workers int, jitter uint64, horizon Time) (*ringModel, error) {
	t.Helper()
	p := NewParallel(lanes)
	p.SetLookahead(7)
	if horizon != 0 {
		p.SetHorizon(horizon)
	}
	if jitter != 0 {
		p.SetJitter(jitter)
	}
	m := &ringModel{p: p, lanes: int32(lanes), la: 7, logs: make([][]uint64, lanes)}
	for i := 0; i < lanes; i++ {
		i := int32(i)
		e := p.Lane(int(i))
		// Each lane launches two tokens with different hop budgets and
		// staggered start times.
		e.At(Time(i), func() {
			dst := (i + 1) % m.lanes
			m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(40+i))
		})
		e.At(Time(2*i+1), func() {
			dst := (i + 2) % m.lanes
			m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(25))
		})
	}
	err := p.Run(workers)
	return m, err
}

// fingerprint captures everything observable about a run.
func fingerprint(m *ringModel) (logs [][]uint64, fired uint64, now Time) {
	return m.logs, m.p.Fired(), m.p.Now()
}

// TestParallelWorkerCountIdentical is the core PDES guarantee: the same
// configuration produces bit-identical results at every worker count, with
// and without jitter.
func TestParallelWorkerCountIdentical(t *testing.T) {
	for _, jitter := range []uint64{0, 1, 0xdecafbad} {
		ref, err := runRing(t, 8, 1, jitter, 0)
		if err != nil {
			t.Fatalf("jitter %d workers 1: %v", jitter, err)
		}
		refLogs, refFired, refNow := fingerprint(ref)
		if refFired == 0 {
			t.Fatalf("jitter %d: no events fired", jitter)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			m, err := runRing(t, 8, workers, jitter, 0)
			if err != nil {
				t.Fatalf("jitter %d workers %d: %v", jitter, workers, err)
			}
			logs, fired, now := fingerprint(m)
			if fired != refFired || now != refNow {
				t.Fatalf("jitter %d workers %d: fired/now %d/%d, want %d/%d",
					jitter, workers, fired, now, refFired, refNow)
			}
			if !reflect.DeepEqual(logs, refLogs) {
				t.Fatalf("jitter %d workers %d: delivery logs diverge", jitter, workers)
			}
		}
	}
}

// TestParallelJitterPermutes checks that a nonzero jitter seed actually
// yields a different (but still deterministic) schedule.
func TestParallelJitterPermutes(t *testing.T) {
	a, err := runRing(t, 8, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRing(t, 8, 2, 12345, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same physics — same event count — but tie-breaks may reorder
	// same-cycle deliveries. (With this model most deliveries are alone at
	// their cycle, so only assert the runs are internally consistent and
	// event-count-equal; worker-count equality per seed is the real bar,
	// covered above.)
	if a.p.Fired() != b.p.Fired() {
		t.Fatalf("jitter changed event count: %d vs %d", a.p.Fired(), b.p.Fired())
	}
}

// TestParallelHorizonComposition pins the satellite regression: horizon +
// interrupt + jitter compose identically under the window loop at
// workers=1 and workers=N. The horizon cuts the ring mid-flight; the
// interrupt counts windows; jitter permutes same-cycle ties.
func TestParallelHorizonComposition(t *testing.T) {
	type outcome struct {
		logs    [][]uint64
		fired   uint64
		now     Time
		windows int
		err     string
	}
	run := func(workers int) outcome {
		p := NewParallel(6)
		p.SetLookahead(7)
		p.SetHorizon(500)
		p.SetJitter(99)
		m := &ringModel{p: p, lanes: 6, la: 7, logs: make([][]uint64, 6)}
		windows := 0
		p.SetInterrupt(func() error { windows++; return nil })
		for i := 0; i < 6; i++ {
			i := int32(i)
			e := p.Lane(int(i))
			e.At(Time(i), func() {
				dst := (i + 1) % m.lanes
				// Huge hop budget: only the horizon ends the run.
				m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(1_000_000))
			})
		}
		err := p.Run(workers)
		o := outcome{logs: m.logs, fired: p.Fired(), now: p.Now(), windows: windows}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	ref := run(1)
	if ref.err != ErrHorizon.Error() {
		t.Fatalf("expected horizon error, got %q", ref.err)
	}
	if ref.now <= 500 {
		t.Fatalf("horizon GVT should be past the limit, got %d", ref.now)
	}
	for _, workers := range []int{2, 6} {
		got := run(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers %d: outcome diverges from workers=1:\n got %+v\nwant %+v",
				workers, got, ref)
		}
	}
}

// TestParallelInterruptStops checks an interrupt error ends the run with
// the same partial state at any worker count (windows are the poll
// granularity, and the window sequence is worker-independent).
func TestParallelInterruptStops(t *testing.T) {
	boom := errors.New("boom")
	run := func(workers int) (uint64, Time, string) {
		p := NewParallel(4)
		p.SetLookahead(7)
		m := &ringModel{p: p, lanes: 4, la: 7, logs: make([][]uint64, 4)}
		polls := 0
		p.SetInterrupt(func() error {
			polls++
			if polls > 10 {
				return boom
			}
			return nil
		})
		for i := 0; i < 4; i++ {
			i := int32(i)
			e := p.Lane(int(i))
			e.At(0, func() {
				dst := (i + 1) % m.lanes
				m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(1_000_000))
			})
		}
		err := p.Run(workers)
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: want boom, got %v", workers, err)
		}
		return p.Fired(), p.Now(), fingerprintLogs(m.logs)
	}
	f1, n1, l1 := run(1)
	f4, n4, l4 := run(4)
	if f1 != f4 || n1 != n4 || l1 != l4 {
		t.Fatalf("interrupted runs diverge: (%d,%d,%s) vs (%d,%d,%s)", f1, n1, l1, f4, n4, l4)
	}
}

func fingerprintLogs(logs [][]uint64) string {
	var h uint64 = 1469598103934665603
	for _, l := range logs {
		for _, v := range l {
			h = (h ^ v) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return string(rune(h%26+'a')) + string(rune((h>>8)%26+'a')) + string(rune((h>>16)%26+'a'))
}

// TestPostLookaheadViolationPanics: posting inside the current window is a
// model bug (the destination lane may already be past the post time) and
// must fail loudly.
func TestPostLookaheadViolationPanics(t *testing.T) {
	p := NewParallel(2)
	p.SetLookahead(10)
	rn := &ringNode{}
	p.Lane(0).At(5, func() {
		// Window is [0+?,..): by the time this fires, wend >= 10+... — a
		// post at now+1 is always inside it.
		p.Post(0, 1, p.Lane(0).Now()+1, rn, uint64(0))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	_ = p.Run(2)
}

// TestParallelDrainedOutcome checks the drained return: nil error, clock at
// the last fired event.
func TestParallelDrainedOutcome(t *testing.T) {
	m, err := runRing(t, 4, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.p.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", m.p.Pending())
	}
	if m.p.Now() == 0 {
		t.Fatal("clock did not advance")
	}
}
