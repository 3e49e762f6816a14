// Conservative time-windowed parallel discrete-event simulation (PDES).
//
// A Parallel run partitions the event population into lanes — one Engine per
// machine node — and repeats a barrier-synchronized window loop:
//
//  1. GVT is the minimum next-event time across lanes. The window is
//     [GVT, GVT+lookahead), where lookahead is the minimum latency of any
//     cross-lane interaction (for this machine: the minimum uncontended
//     link latency, see network.MinCrossLatency).
//  2. Every lane independently fires all of its events with t < window end.
//     Effects on other lanes may not be applied directly; they are buffered
//     as posts in a per-source-lane FIFO outbox. Because any cross-lane
//     effect is at least one link latency away, every post lands at or
//     beyond the window end — the destination lane cannot have passed it.
//  3. At the barrier, outboxes are merged into the destination queues in the
//     fixed order (time, jitter, source lane, source sequence). The key is
//     drawn by the source lane at Post time, so it is a pure function of
//     that lane's own schedule — no interleaving of lane execution, worker
//     count, or merge order can change it.
//
// Models with globally-ordered shared state that lanes must not touch during
// a window — contended network ports, for this machine — hook the barrier
// with SetArbiter: lanes record their intent during the window (drawing the
// same injection key via DrawKey), and the arbiter replays the recorded work
// in global key order on the coordinator, posting the resulting deliveries
// with PostKeyed before the merge. See network.NewParallel.
//
// The result is a simulation whose outcome is bit-identical at any worker
// count: workers only size the thread pool that drains the per-window lane
// list; the partition (one lane per node) and every ordering key are fixed
// by the configuration alone. This is the conservative (Chandy-Misra-style
// windowed) flavor of PDES — lanes never execute past the horizon of what
// other lanes could still affect, so there is no rollback machinery and no
// state saving, at the cost of requiring a positive lookahead.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// post is one buffered cross-lane effect: a message delivery drawn from the
// source lane's schedule, carrying the full ordering key assigned at Post
// time.
type post struct {
	at      Time
	jit     uint64
	seq     uint64
	src     int32
	dst     int32
	rcv     Receiver
	payload any
}

// Parallel coordinates a set of lane engines through the window loop. The
// zero value is not usable; call NewParallel.
type Parallel struct {
	lanes  []*Engine
	out    [][]post // outboxes, indexed by source lane
	la     Time     // lookahead (window width); at least 1
	limit  Time     // horizon; Infinity when unset
	clock  Time     // max event time fired so far (GVT on ErrHorizon)
	wend   Time     // current window end (exclusive), read by lanes in Post
	inter  func() error
	arb    func()    // window-barrier arbitration hook (SetArbiter)
	active []*Engine // lanes with work in the current window
	scr    []post    // merge scratch
	nt     []Time    // cached per-lane next-event time (see Run)

	idx    atomic.Int64 // next active-lane index to drain
	wg     sync.WaitGroup
	wake   chan struct{} // worker wake channel; non-nil only while Run runs
	panics []any         // per-lane captured panic values
}

// NewParallel returns a coordinator over n lane engines with the clock at
// zero and a lookahead of 1 cycle (the degenerate lockstep window; callers
// should install the real model lookahead with SetLookahead).
func NewParallel(n int) *Parallel {
	if n < 1 {
		panic("sim: parallel run needs at least one lane")
	}
	p := &Parallel{
		lanes:  make([]*Engine, n),
		out:    make([][]post, n),
		la:     1,
		limit:  Infinity,
		panics: make([]any, n),
		nt:     make([]Time, n),
	}
	for i := range p.lanes {
		e := NewEngine()
		e.lane = int32(i)
		p.lanes[i] = e
	}
	return p
}

// Lanes returns the number of lanes.
func (p *Parallel) Lanes() int { return len(p.lanes) }

// Lane returns lane i's engine. Components owned by node i schedule their
// local events through it exactly as they would through a serial engine.
func (p *Parallel) Lane(i int) *Engine { return p.lanes[i] }

// SetLookahead installs the window width: the minimum simulated latency of
// any cross-lane interaction, in cycles. It must be at least 1 — a zero
// lookahead means cross-lane effects can land inside the current window,
// which the conservative window loop cannot simulate (use the serial
// engine for such models).
func (p *Parallel) SetLookahead(d Time) {
	if d < 1 {
		panic("sim: lookahead must be >= 1")
	}
	p.la = d
}

// SetHorizon establishes a hard time limit with the same inclusive
// semantics as Engine.SetHorizon: events at t <= horizon fire, and Run
// returns ErrHorizon when the next event anywhere lies strictly beyond it.
func (p *Parallel) SetHorizon(t Time) { p.limit = t }

// SetInterrupt installs a poll function consulted once per window during
// Run; a non-nil return stops the loop, which returns that error. As with
// the serial engine, interrupts only end a run early — they never reorder
// events.
func (p *Parallel) SetInterrupt(fn func() error) { p.inter = fn }

// SetJitter enables seeded schedule jitter on every lane. Each lane derives
// its own splitmix64 stream from (seed, lane), so the jitter key a lane
// assigns to an event is a pure function of that lane's schedule — the same
// property that makes the rest of the ordering worker-count-independent.
// Seed 0 disables jitter. Note the streams intentionally differ from the
// single global stream a serial Engine draws from: a Parallel run explores
// its own (deterministic) schedule permutation per seed.
func (p *Parallel) SetJitter(seed uint64) {
	for i, e := range p.lanes {
		if seed == 0 {
			e.SetJitter(0)
			continue
		}
		s := splitmix(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		if s == 0 {
			s = 1
		}
		e.jitterOn = true
		e.jrng = s
	}
}

// splitmix is the splitmix64 output function, used to derive per-lane
// jitter streams.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Now returns the maximum event time fired so far, or the GVT that tripped
// the horizon after Run returned ErrHorizon. It is only meaningful between
// windows (after Run returns or from an interrupt poll).
func (p *Parallel) Now() Time { return p.clock }

// Fired returns the total number of events executed across all lanes.
func (p *Parallel) Fired() uint64 {
	var n uint64
	for _, e := range p.lanes {
		n += e.fired
	}
	return n
}

// Pending returns the number of events still scheduled across all lanes.
func (p *Parallel) Pending() int {
	n := 0
	for _, e := range p.lanes {
		n += e.Pending()
	}
	return n
}

// Post buffers a cross-lane event delivery: rcv.OnDeliver(payload) on lane
// dst at absolute time at. It must be called from lane src while that lane
// is executing a window (i.e. from inside one of its events). The ordering
// key — jitter draw and sequence number — comes from the source lane's own
// schedule, making it independent of how lanes interleave in wall time.
//
// Post panics if at lies inside the current window: that is a lookahead
// violation, meaning the model has a cross-lane interaction faster than the
// installed lookahead, and the destination lane may already have executed
// past at.
func (p *Parallel) Post(src, dst int32, at Time, rcv Receiver, payload any) {
	jit, seq := p.DrawKey(src)
	p.PostKeyed(src, dst, at, jit, seq, rcv, payload)
}

// DrawKey draws a cross-lane ordering key — jitter draw and sequence
// number — from lane src's own schedule state, exactly as Post does. It
// must be called from lane src while that lane is executing a window. Use
// it when the delivery time is not yet known (it will be fixed by the
// barrier arbiter) but the injection order must be pinned at send time;
// pass the key to PostKeyed once the time is resolved.
func (p *Parallel) DrawKey(src int32) (jit, seq uint64) {
	e := p.lanes[src]
	if e.jitterOn {
		jit = e.nextJit()
	}
	seq = e.seq
	e.seq++
	return jit, seq
}

// PostKeyed buffers a cross-lane delivery whose ordering key was already
// drawn with DrawKey. Unlike Post it may also be called from the barrier
// arbiter (on the coordinator, between lane execution and the merge) —
// the posts it appends flow into the same window's merge. The lookahead
// rule is unchanged: at must lie at or beyond the current window end.
func (p *Parallel) PostKeyed(src, dst int32, at Time, jit, seq uint64, rcv Receiver, payload any) {
	if rcv == nil {
		panic("sim: nil receiver")
	}
	if at < p.wend {
		panic(fmt.Sprintf("sim: cross-lane post at %d inside window ending %d (lookahead violation)", at, p.wend))
	}
	p.out[src] = append(p.out[src], post{at: at, jit: jit, seq: seq, src: src, dst: dst, rcv: rcv, payload: payload})
}

// SetArbiter installs a hook the coordinator calls once per window at the
// barrier — after every lane has finished executing the window (and any
// lane panic has been re-raised), before the outbox merge. The hook runs
// single-threaded on the coordinator goroutine; it is where a model
// resolves globally-ordered shared state that lanes recorded intent
// against during the window (e.g. contended switch-port occupancy),
// posting the resulting deliveries with PostKeyed so they join the same
// merge. The hook must be deterministic: it may depend only on the
// recorded intents and its own state, never on wall-clock interleaving.
func (p *Parallel) SetArbiter(fn func()) { p.arb = fn }

// Run executes the window loop with the given number of worker threads
// until every lane's queue drains, the horizon is exceeded, or the
// interrupt poll reports an error. workers is clamped to [1, lanes]; every
// worker count produces bit-identical results, and workers=1 runs the same
// loop on the calling goroutine alone. A panic on any lane is re-raised on
// the caller, from the lowest panicking lane for determinism.
func (p *Parallel) Run(workers int) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(p.lanes) {
		workers = len(p.lanes)
	}
	if workers > 1 {
		wake := make(chan struct{})
		p.wake = wake
		for i := 1; i < workers; i++ {
			go func() {
				for range wake {
					p.drain()
					p.wg.Done()
				}
			}()
		}
		defer func() {
			close(wake)
			p.wake = nil
		}()
	}

	// nt caches every lane's next-event time between windows, so the
	// per-window GVT reduction and active-lane selection scan a flat Time
	// array instead of probing the front of each lane's queue through the
	// record pool (two pointer-chasing nextTime calls per lane per window —
	// the dominant coordinator cost at 512-1024 lanes). The cache is refreshed
	// where it can change: by the worker that ran the lane's window, and
	// by merge for lanes that received cross-lane posts.
	for i, e := range p.lanes {
		p.nt[i] = e.nextTime()
	}
	for {
		if p.inter != nil {
			if err := p.inter(); err != nil {
				return err
			}
		}
		gvt := Infinity
		for _, t := range p.nt {
			if t < gvt {
				gvt = t
			}
		}
		if gvt == Infinity {
			return nil // drained (outboxes are empty between windows)
		}
		if gvt > p.limit {
			p.clock = gvt
			return ErrHorizon
		}
		wend := gvt + p.la
		if wend < gvt {
			wend = Infinity // overflow
		}
		if p.limit != Infinity && wend > p.limit+1 {
			wend = p.limit + 1 // events at exactly the horizon still fire
		}
		p.wend = wend
		p.active = p.active[:0]
		for i, e := range p.lanes {
			if p.nt[i] < wend {
				p.active = append(p.active, e)
			}
		}
		if workers == 1 || len(p.active) == 1 {
			for _, e := range p.active {
				p.runLane(e)
			}
		} else {
			k := workers
			if k > len(p.active) {
				k = len(p.active)
			}
			p.idx.Store(0)
			p.wg.Add(k - 1)
			for i := 1; i < k; i++ {
				p.wake <- struct{}{}
			}
			p.drain()
			p.wg.Wait()
		}
		for i := range p.panics {
			if v := p.panics[i]; v != nil {
				panic(v)
			}
		}
		if p.arb != nil {
			p.arb()
		}
		// Only lanes that ran this window can have moved their clock.
		for _, e := range p.active {
			if e.now > p.clock {
				p.clock = e.now
			}
		}
		p.merge()
	}
}

// drain pulls active lanes off the shared index until none remain. Each
// lane is executed by exactly one worker; which worker is immaterial,
// because every ordering decision is keyed by lane-local state.
func (p *Parallel) drain() {
	for {
		i := int(p.idx.Add(1)) - 1
		if i >= len(p.active) {
			return
		}
		p.runLane(p.active[i])
	}
}

// runLane executes one lane's window, capturing a panic into the lane's
// slot so the coordinator can re-raise it deterministically. It refreshes
// the lane's nt cache slot; each lane is run by exactly one worker per
// window, so concurrent workers write disjoint elements.
func (p *Parallel) runLane(e *Engine) {
	defer func() {
		if v := recover(); v != nil {
			p.panics[e.lane] = v
		}
	}()
	p.nt[e.lane] = e.runWindow(p.wend)
}

// merge drains every outbox into the destination queues in the fixed order
// (time, jitter, source lane, source sequence). The queue itself orders by
// exactly this key, so insertion order cannot affect pop order;
// sorting here additionally fixes arena slot assignment, keeping even
// internal state identical across worker counts.
func (p *Parallel) merge() {
	m := p.scr[:0]
	for src := range p.out {
		m = append(m, p.out[src]...)
		p.out[src] = p.out[src][:0]
	}
	if len(m) == 0 {
		p.scr = m
		return
	}
	sort.Slice(m, func(i, j int) bool {
		a, b := &m[i], &m[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.jit != b.jit {
			return a.jit < b.jit
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for i := range m {
		q := &m[i]
		e := p.lanes[q.dst]
		_, r := e.scheduleKeyed(q.at, q.jit, q.src, q.seq, evDeliver)
		r.recv, r.payload = q.rcv, q.payload
		if q.at < p.nt[q.dst] {
			p.nt[q.dst] = q.at
		}
		q.rcv, q.payload = nil, nil
	}
	p.scr = m[:0]
}

// nextTime returns the timestamp of the earliest live event, discarding
// cancelled entries from the front of the queue, or Infinity when drained.
func (e *Engine) nextTime() Time {
	if id := e.top(); id >= 0 {
		return e.pool[id].at
	}
	return Infinity
}

// runWindow fires every live event with at < end, in key order, and
// returns the time of the next one (Infinity when drained). Horizon and
// interrupt handling belong to the coordinator.
func (e *Engine) runWindow(end Time) Time {
	for {
		id := e.top()
		if id < 0 {
			return Infinity
		}
		if at := e.pool[id].at; at >= end {
			return at
		}
		e.take(id)
		e.fire(id)
	}
}
