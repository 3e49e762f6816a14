package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// holdModel keeps a fixed population of events pending: every event it
// fires schedules one successor after the next delay of a precomputed
// table, until the schedule budget runs out.
type holdModel struct {
	e      *Engine
	delays []Time
	i      int
	left   int
}

func (h *holdModel) OnStep(uint64) {
	if h.left == 0 {
		return
	}
	h.left--
	h.e.AfterStep(h.delays[h.i&(len(h.delays)-1)], h, 0)
	h.i++
}

// queueDelays draws n scheduling delays from the mix measured over a paper
// figure sweep: 68% one cycle ahead, 25% two to fifteen, and the rest
// spread out to 2048 cycles (93.9% under 16, 98.4% under 64 and 99.4%
// under 256, as in the sweep).
func queueDelays(n int) []Time {
	rng := rand.New(rand.NewPCG(1, 2))
	d := make([]Time, n)
	for i := range d {
		switch u := rng.IntN(1000); {
		case u < 680:
			d[i] = 1
		case u < 939:
			d[i] = Time(2 + rng.IntN(14))
		case u < 984:
			d[i] = Time(16 + rng.IntN(48))
		case u < 994:
			d[i] = Time(64 + rng.IntN(192))
		default:
			d[i] = Time(256 + rng.IntN(1793))
		}
	}
	return d
}

// BenchmarkEngineQueue measures the event kernel alone, in ns per event
// scheduled and fired, at a constant pending population with the sweep's
// delay mix, with schedule jitter off and on.
func BenchmarkEngineQueue(b *testing.B) {
	delays := queueDelays(1 << 12)
	for _, pending := range []int{4, 64, 1024} {
		for _, jitter := range []bool{false, true} {
			b.Run(fmt.Sprintf("pending=%d/jitter=%v", pending, jitter), func(b *testing.B) {
				e := NewEngine()
				if jitter {
					e.SetJitter(7)
				}
				h := &holdModel{e: e, delays: delays, left: b.N}
				for i := 0; i < pending; i++ {
					e.AtStep(delays[(i*7)&(len(delays)-1)], h, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Fired()), "ns/event")
			})
		}
	}
}

// orderKey is the full pop-order key of one scheduled event.
type orderKey struct {
	at   Time
	jit  uint64
	lane int32
	seq  uint64
}

func (a orderKey) less(b orderKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.jit != b.jit {
		return a.jit < b.jit
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// orderModel drives an engine from a fuzz input and checks every event it
// fires against a reference queue: a plain list of the pending keys whose
// minimum is found by a linear scan.
type orderModel struct {
	t       *testing.T
	e       *Engine
	in      []byte
	pending map[int]orderKey // reference queue: event token -> key
	handles map[int]Handle
	tokens  []int // every token ever scheduled, for cancel picks
	next    int   // next token
	fseq    uint64
}

// byte consumes one input byte; an exhausted input reads as zero, which
// schedules nothing, so every run drains.
func (m *orderModel) byte() int {
	if len(m.in) == 0 {
		return 0
	}
	b := m.in[0]
	m.in = m.in[1:]
	return int(b)
}

// delay picks a scheduling distance around the wheel's edges.
func (m *orderModel) delay() Time {
	switch b := m.byte(); b % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSpan - 1
	case 3:
		return wheelSpan
	case 4:
		return wheelSpan + 1
	case 5:
		return Time(2 + b/8%14)
	case 6:
		return Time(16 + b*7)
	default:
		return 1<<20 + Time(b)
	}
}

func (m *orderModel) OnStep(arg uint64)     { m.check(int(arg)) }
func (m *orderModel) OnDeliver(payload any) { m.check(payload.(int)) }

// check verifies that token is the reference queue's minimum, fired at its
// own time, then performs the next scripted action.
func (m *orderModel) check(token int) {
	m.t.Helper()
	k, ok := m.pending[token]
	if !ok {
		m.t.Fatalf("event %d fired but is not pending (cancelled or fired twice)", token)
	}
	for tok, o := range m.pending {
		if o.less(k) {
			m.t.Fatalf("event %d %+v fired before event %d %+v", token, k, tok, o)
		}
	}
	if m.e.Now() != k.at {
		m.t.Fatalf("event %d due at %d fired at %d", token, k.at, m.e.Now())
	}
	delete(m.pending, token)
	m.act()
}

// act performs one scripted action: schedule in one of four ways, cancel
// one event or a run of them, peek at the next event time as the lane
// coordinator does, or nothing.
func (m *orderModel) act() {
	switch m.byte() % 9 {
	case 0:
	case 1, 2:
		m.schedule(evFunc)
	case 3:
		m.schedule(evStep)
	case 4:
		m.schedule(evDeliver)
	case 5:
		m.foreign()
	case 6:
		m.cancel(1)
	case 7:
		m.cancel(80)
	default:
		m.peek()
	}
}

// peek checks nextTime against the reference queue's earliest time.
func (m *orderModel) peek() {
	want := Infinity
	for _, k := range m.pending {
		want = min(want, k.at)
	}
	if got := m.e.nextTime(); got != want {
		m.t.Fatalf("nextTime() = %d, reference says %d", got, want)
	}
}

// schedule queues one event through the public API and records the key
// the engine stamped on it.
func (m *orderModel) schedule(kind eventKind) {
	tok := m.next
	m.next++
	at := m.e.Now() + m.delay()
	var h Handle
	switch kind {
	case evFunc:
		h = m.e.At(at, func() { m.check(tok) })
	case evStep:
		h = m.e.AtStep(at, m, uint64(tok))
	default:
		h = m.e.AtDeliver(at, m, tok)
	}
	r := &m.e.pool[h.id]
	m.pending[tok] = orderKey{r.at, r.jit, r.lane, r.seq}
	m.handles[tok] = h
	m.tokens = append(m.tokens, tok)
}

// foreign queues an event carrying another lane's key, as the cross-lane
// merge does: lanes below and above the engine's own, jitter drawn from
// the input.
func (m *orderModel) foreign() {
	tok := m.next
	m.next++
	k := orderKey{
		at:   m.e.Now() + m.delay(),
		lane: int32(m.byte() % 4),
		seq:  m.fseq,
	}
	if m.e.jitterOn {
		k.jit = uint64(m.byte()) << 56
	}
	m.fseq++
	_, r := m.e.scheduleKeyed(k.at, k.jit, k.lane, k.seq, evDeliver)
	r.recv, r.payload = m, tok
	m.pending[tok] = k
}

// cancel cancels up to n scheduled events starting at a random token; the
// handle must agree with the reference queue on whether each is pending.
func (m *orderModel) cancel(n int) {
	if len(m.tokens) == 0 {
		return
	}
	start := m.byte() * len(m.tokens) / 256
	for _, tok := range m.tokens[start:min(start+n, len(m.tokens))] {
		h, ok := m.handles[tok]
		if !ok {
			continue
		}
		_, live := m.pending[tok]
		if h.Pending() != live {
			m.t.Fatalf("event %d: Handle.Pending() = %v, reference says %v", tok, h.Pending(), live)
		}
		if h.Cancel() != live {
			m.t.Fatalf("event %d: Cancel() disagrees with the reference (pending %v)", tok, live)
		}
		delete(m.pending, tok)
	}
}

// FuzzEngineOrder checks the event queue against a reference model: for
// any mix of At/AtStep/AtDeliver and cross-lane keyed inserts, at delays on
// and around the wheel's span and far beyond it, with cancels (enough to
// trigger the eager sweep) and jitter on or off, events fire exactly in
// (time, jitter, lane, sequence) order, each once, at its own time.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 200, 1, 2, 3, 4, 5, 6, 7, 11, 19, 27, 35, 43})
	f.Add([]byte{1, 255, 7, 3, 1, 5, 9, 2, 4, 6, 8, 5, 13, 21, 7, 200, 6, 100})
	f.Fuzz(func(t *testing.T, in []byte) {
		m := &orderModel{t: t, e: NewEngine(), in: in, pending: map[int]orderKey{}, handles: map[int]Handle{}}
		flags := m.byte()
		if flags&1 != 0 {
			m.e.SetJitter(uint64(flags) | 1)
		}
		m.e.lane = 2
		for n := m.byte(); n > 0; n-- {
			m.act()
		}
		if err := m.e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(m.pending) != 0 {
			t.Fatalf("%d events never fired", len(m.pending))
		}
		if m.e.Pending() != 0 {
			t.Fatalf("drained engine reports %d pending", m.e.Pending())
		}
	})
}
