package sim

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 0} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10, 10, 20, 30}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestSameCycleEventsFireInInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("insertion order violated at %d: got %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(7, func() {
		e.After(3, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Fatalf("After(3) from t=7 fired at %d, want 10", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	NewEngine().At(0, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(5, func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle not pending after schedule")
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	h := e.At(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
	if h.Pending() {
		t.Fatal("fired event reports pending")
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(100)
	e.At(50, func() {})
	e.At(101, func() {})
	if err := e.Run(); err != ErrHorizon {
		t.Fatalf("Run() = %v, want ErrHorizon", err)
	}
}

// The first live event beyond the horizon stops Run with ErrHorizon without
// running; the clock stands at the event that tripped the limit.
func TestRunUntilHonorsHorizon(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(100)
	fired := 0
	e.At(50, func() { fired++ })
	e.At(101, func() { fired++ })
	if err := e.Run(); err != ErrHorizon {
		t.Fatalf("Run() = %v, want ErrHorizon", err)
	}
	if fired != 1 || e.Fired() != 1 {
		t.Fatalf("fired %d/%d events, want 1 (the beyond-horizon event must not run)", fired, e.Fired())
	}
	if e.Now() != 101 {
		t.Fatalf("Now() = %d, want 101 (the event that tripped the horizon)", e.Now())
	}
}

// The horizon bounds event execution, not idle time, and is inclusive: a
// queue that drains at or before the limit returns nil, an event at exactly
// the limit fires, and only an actual event beyond it yields ErrHorizon.
func TestRunUntilHorizonIdleAdvance(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(100)
	fired := 0
	e.At(50, func() { fired++ })
	e.At(100, func() { fired++ })
	if err := e.Run(); err != nil || fired != 2 {
		t.Fatalf("drain within horizon: err=%v fired=%d, want nil and 2", err, fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}

	e2 := NewEngine()
	e2.SetHorizon(100)
	e2.At(150, func() { t.Fatal("event beyond the horizon fired") })
	if err := e2.Run(); !errors.Is(err, ErrHorizon) {
		t.Fatalf("event beyond horizon: want ErrHorizon, got %v", err)
	}
}

// A failing interrupt stops Run before the next event fires.
func TestRunHonorsInterrupt(t *testing.T) {
	e := NewEngine()
	stop := errors.New("stop")
	e.SetInterrupt(func() error { return stop })
	e.At(1, func() { t.Fatal("event fired past a failing interrupt") })
	if err := e.Run(); err != stop {
		t.Fatalf("Run err = %v, want the interrupt error", err)
	}
}

// stepRecorder implements Stepper for typed-event tests.
type stepRecorder struct {
	args []uint64
	at   []Time
	e    *Engine
}

func (s *stepRecorder) OnStep(arg uint64) {
	s.args = append(s.args, arg)
	s.at = append(s.at, s.e.Now())
}

// deliverRecorder implements Receiver for typed-event tests.
type deliverRecorder struct {
	got []any
}

func (d *deliverRecorder) OnDeliver(p any) { d.got = append(d.got, p) }

func TestTypedEvents(t *testing.T) {
	e := NewEngine()
	s := &stepRecorder{e: e}
	d := &deliverRecorder{}
	e.AtStep(5, s, 7)
	e.AfterStep(2, s, 9)
	e.AtDeliver(3, d, "msg")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.args) != 2 || s.args[0] != 9 || s.args[1] != 7 {
		t.Fatalf("step args = %v, want [9 7] (time order)", s.args)
	}
	if s.at[0] != 2 || s.at[1] != 5 {
		t.Fatalf("step times = %v, want [2 5]", s.at)
	}
	if len(d.got) != 1 || d.got[0] != "msg" {
		t.Fatalf("delivered = %v, want [msg]", d.got)
	}
}

// Typed events interleave with closures in strict (time, insertion) order.
func TestTypedAndClosureEventsInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	s := &stepRecorder{e: e}
	e.At(5, func() { order = append(order, "fn") })
	e.AtStep(5, s, 0)
	e.At(5, func() { order = append(order, "fn2") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.at) != 1 || len(order) != 2 {
		t.Fatalf("typed=%d closures=%d, want 1 and 2", len(s.at), len(order))
	}
}

// Cancelled typed events must not fire, and their handles behave like
// closure handles.
func TestCancelTypedEvent(t *testing.T) {
	e := NewEngine()
	s := &stepRecorder{e: e}
	h := e.AtStep(5, s, 1)
	if !h.Cancel() {
		t.Fatal("Cancel returned false")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.args) != 0 {
		t.Fatal("cancelled typed event fired")
	}
}

// A handle to a fired event whose arena slot was recycled must not cancel
// the new occupant (generation check).
func TestStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine()
	h1 := e.At(1, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	e.At(2, func() { fired = true }) // recycles h1's slot
	if h1.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if h1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// The arena must actually recycle: a long chain of one-at-a-time events
// should not grow the pool beyond a handful of records.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 10000 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.pool); got > 4 {
		t.Fatalf("arena grew to %d records for a 1-deep chain, want <= 4", got)
	}
}

// Mass cancellation triggers the eager sweep so the heap shrinks instead of
// carrying dead entries to the end of the run.
func TestSweepDropsCancelledEntries(t *testing.T) {
	e := NewEngine()
	var handles []Handle
	for i := 0; i < 1000; i++ {
		handles = append(handles, e.At(Time(i+1), func() {}))
	}
	for _, h := range handles[:900] {
		h.Cancel()
	}
	if got := e.Pending(); got > 200 {
		t.Fatalf("Pending() = %d after cancelling 900 of 1000, want sweep to have dropped them", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 100 {
		t.Fatalf("Fired() = %d, want the 100 live events", e.Fired())
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := Time(0); i < 10; i++ {
		e.At(i, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 10 {
		t.Fatalf("Fired() = %d, want 10", e.Fired())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next must run to
	// completion and keep the clock monotonic.
	e := NewEngine()
	var prev Time
	var steps int
	var step func()
	step = func() {
		if e.Now() < prev {
			t.Fatalf("clock went backwards: %d < %d", e.Now(), prev)
		}
		prev = e.Now()
		steps++
		if steps < 1000 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 1000 {
		t.Fatalf("steps = %d, want 1000", steps)
	}
	if e.Now() != 999 {
		t.Fatalf("final clock = %d, want 999", e.Now())
	}
}

// Property: for any set of timestamps, events fire in nondecreasing time
// order and all fire exactly once.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() { fired = append(fired, at) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(stamps) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of schedule/cancel never fire a cancelled
// event and always fire every non-cancelled one.
func TestQuickCancelSoundness(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		e := NewEngine()
		fired := make(map[int]bool)
		cancelled := make(map[int]bool)
		handles := make(map[int]Handle)
		for i := 0; i < int(n); i++ {
			i := i
			handles[i] = e.At(Time(rng.IntN(50)), func() { fired[i] = true })
		}
		for i := 0; i < int(n); i++ {
			if rng.IntN(2) == 0 {
				if handles[i].Cancel() {
					cancelled[i] = true
				}
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		rng := rand.New(rand.NewPCG(1, 2))
		var log []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			log = append(log, e.Now())
			if depth < 6 {
				for i := 0; i < 3; i++ {
					e.After(Time(rng.IntN(10)), func() { spawn(depth + 1) })
				}
			}
		}
		e.At(0, func() { spawn(0) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceNoContention(t *testing.T) {
	var r Resource
	done := r.Acquire(10, 5)
	if done != 15 {
		t.Fatalf("Acquire(10,5) = %d, want 15", done)
	}
	if r.Waited != 0 {
		t.Fatalf("Waited = %d, want 0", r.Waited)
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)
	done := r.Acquire(3, 10)
	if done != 20 {
		t.Fatalf("second Acquire = %d, want 20", done)
	}
	if r.Waited != 7 {
		t.Fatalf("Waited = %d, want 7", r.Waited)
	}
	if r.Busy != 20 {
		t.Fatalf("Busy = %d, want 20", r.Busy)
	}
	if r.Served != 2 {
		t.Fatalf("Served = %d, want 2", r.Served)
	}
}

func TestResourceIdleGap(t *testing.T) {
	var r Resource
	r.Acquire(0, 5)
	done := r.Acquire(100, 5)
	if done != 105 {
		t.Fatalf("Acquire after idle gap = %d, want 105", done)
	}
	if r.Waited != 0 {
		t.Fatalf("Waited = %d, want 0", r.Waited)
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	r.Acquire(0, 25)
	r.Acquire(50, 25)
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(0, 5)
	r.Reset()
	if r.Busy != 0 || r.Served != 0 || r.Waited != 0 {
		t.Fatal("Reset did not clear resource statistics")
	}
	// The horizon is cleared too: a request at time 1, inside the old
	// reservation, starts at once instead of waiting until 5.
	if done := r.Acquire(1, 2); done != 3 || r.Waited != 0 {
		t.Fatalf("Acquire after Reset finished at %d (waited %d), want 3 (0)", done, r.Waited)
	}
}

// Property: completion times returned by a Resource are nondecreasing when
// requests arrive in nondecreasing order, and completion >= arrival + hold.
func TestQuickResourceMonotone(t *testing.T) {
	f := func(arrivals []uint8, hold uint8) bool {
		var r Resource
		at := Time(0)
		last := Time(0)
		h := Time(hold%16) + 1
		for _, a := range arrivals {
			at += Time(a % 8)
			done := r.Acquire(at, h)
			if done < at+h || done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var step func()
		n := 0
		step = func() {
			n++
			if n < 1000 {
				e.After(1, step)
			}
		}
		e.At(0, step)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
