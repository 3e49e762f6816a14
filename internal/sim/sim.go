// Package sim provides the discrete-event simulation kernel underlying the
// multiprocessor model.
//
// The kernel is deliberately minimal and deterministic: a single logical
// clock measured in machine cycles, an event queue ordered by (time,
// insertion sequence), and no goroutines. All simulated components
// (processors, caches, directories, network switches) are passive state
// machines that interact exclusively by scheduling events. Two runs with the
// same seed and configuration produce bit-identical results, which the test
// suite verifies.
//
// The queue is a calendar queue (Brown, CACM 1988) built for throughput.
// Nearly every event a machine schedules lands less than 64 cycles ahead,
// so a ring of wheelSpan one-cycle slots covers [now, now+wheelSpan): each
// slot holds the events due at that one time as a list threaded through the
// records, an occupancy word finds the next non-empty slot with one
// rotate and count-trailing-zeros, and scheduling or popping an event is
// O(1). The few events due further out (retransmission and backoff timers)
// wait in an index min-heap and move into the wheel as the clock reaches
// them. Event records live in a pooled arena and are recycled through a
// free list (no per-event allocation, no interface boxing), and the two
// event shapes that dominate a simulation — resuming a processor and
// delivering a network message — are typed (Stepper, Receiver) so the hot
// path allocates no closures. Cancelled entries are dropped lazily when
// they reach the front, with an eager sweep once they outnumber live ones.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Time is the simulation clock, measured in processor cycles.
type Time uint64

// Infinity is a sentinel Time greater than any reachable simulation instant.
const Infinity Time = math.MaxUint64

// wheelSpan is the number of one-cycle slots in the timing wheel: events
// due less than wheelSpan cycles from now live in the wheel, later ones in
// the far heap. It is the width of the occupancy word.
const (
	wheelSpan = 64
	wheelMask = wheelSpan - 1
)

// shortWalk bounds the sorted insertion into a wheel slot (see slotInsert).
const shortWalk = 4

// Event is a scheduled callback. Events carry no payload of their own;
// closures capture whatever state they need. For the hot event shapes,
// prefer the typed AtStep/AtDeliver, which allocate nothing.
type Event func()

// Stepper is the typed form of the "resume processor" event shape: the
// kernel calls OnStep with the argument given at scheduling time instead of
// invoking a closure.
type Stepper interface {
	OnStep(arg uint64)
}

// Receiver is the typed form of the "deliver message" event shape: the
// kernel calls OnDeliver with the payload given at scheduling time.
type Receiver interface {
	OnDeliver(payload any)
}

// eventKind discriminates the union held in a record.
type eventKind uint8

const (
	evFunc eventKind = iota
	evStep
	evDeliver
)

// record is one pooled event. Records live in the engine's arena and are
// recycled through a free list; gen invalidates Handles to recycled slots.
// seq breaks (at) ties so that events scheduled for the same cycle fire in
// insertion order, keeping the simulation deterministic. lane is the
// scheduling lane of a Parallel run (see pdes.go): a standalone engine
// leaves it 0, so the legacy order (time, jitter, sequence) is unchanged.
// next links the record into its wheel slot's circular list.
type record struct {
	at      Time
	seq     uint64
	jit     uint64
	fn      Event
	step    Stepper
	recv    Receiver
	payload any
	arg     uint64
	lane    int32
	next    int32
	gen     uint32
	kind    eventKind
	dead    bool
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	e   *Engine
	id  int32
	gen uint32
}

// Cancel removes the event from the schedule. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending. The entry is dropped lazily; once dead entries outnumber
// live ones the queue is swept eagerly.
func (h Handle) Cancel() bool {
	if h.e == nil {
		return false
	}
	r := &h.e.pool[h.id]
	if r.gen != h.gen || r.dead {
		return false
	}
	r.dead = true
	r.fn, r.step, r.recv, r.payload = nil, nil, nil, nil
	h.e.dead++
	h.e.maybeSweep()
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	if h.e == nil {
		return false
	}
	r := &h.e.pool[h.id]
	return r.gen == h.gen && !r.dead
}

// Engine is the event loop. The zero value is not usable; call NewEngine.
//
// Every queued entry due in [now, now+wheelSpan) sits in wheel slot
// at%wheelSpan, and every other one in far, so the wheel always holds the
// earliest entries. The fields a PDES lane touches on every visit fill the
// first two cache lines, ahead of the cold ones and the wheel.
type Engine struct {
	now    Time
	occ    uint64   // bit s set while wheel slot s is non-empty
	mixed  uint64   // bit s set while slot s may be out of key order
	first  int32    // the earliest queued entry when known, else -1
	pool   []record // event arena; wheel, far and free hold indices into it
	farMin Time     // earliest at in far; Infinity when far is empty

	seq   uint64
	fired uint64
	n     int // queued entries, cancelled ones included

	// lane is this engine's lane id when it belongs to a Parallel run
	// (pdes.go); every locally scheduled record is stamped with it. A
	// standalone engine keeps lane 0, which sorts like the legacy
	// (time, jitter, sequence) key.
	lane     int32
	jitterOn bool
	jrng     uint64  // splitmix64 state; advanced once per scheduled event
	free     []int32 // recycled arena slots

	limit     Time // horizon; Infinity when unset
	dead      int  // cancelled entries still queued
	interrupt func() error
	far       []int32 // binary min-heap of entries due at now+wheelSpan or later
	scr       []int32 // sortSlot scratch

	// wheel holds, per occupied slot, the tail of a circular list of the
	// entries due at that time; the tail's next is the head. The list is
	// in key order unless the slot's mixed bit is set.
	wheel [wheelSpan]int32
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{limit: Infinity, farMin: Infinity, first: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled (including cancelled
// entries not yet swept).
func (e *Engine) Pending() int { return e.n }

// SetHorizon establishes a hard time limit. The horizon is inclusive:
// events with timestamps <= t still fire, and Run returns ErrHorizon only
// when the next live event lies strictly beyond it. A horizon of Infinity
// (the default) disables the limit.
func (e *Engine) SetHorizon(t Time) { e.limit = t }

// ErrHorizon is returned when the simulation horizon is exceeded, which
// almost always indicates livelock (for example a lock that is never
// released).
var ErrHorizon = errors.New("sim: horizon exceeded")

// interruptEvery is how many fired events pass between interrupt polls.
// Polling per event would put a function call (and, for context-backed
// interrupts, a channel select) on the hot path; every 1024 events keeps
// the overhead unmeasurable while still bounding cancellation latency to
// well under a millisecond of wall time.
const interruptEvery = 1024

// SetInterrupt installs a poll function consulted periodically during Run;
// a non-nil return stops the loop, which returns that error. The poll is
// deliberately coarse (every 1024 events) so it stays off the hot path.
// Pass nil to remove the interrupt. Interrupts do not affect determinism:
// they can only end a run early, never reorder events.
func (e *Engine) SetInterrupt(fn func() error) { e.interrupt = fn }

// SetJitter enables seeded schedule jitter: every event scheduled from now
// on gets a pseudo-random tie-break key that orders it among events with the
// same timestamp. Time ordering is untouched — jitter only permutes
// same-cycle events, exploring schedules the (time, insertion order) default
// never reaches. A given seed yields one fixed, reproducible permutation;
// seed 0 disables jitter, restoring the exact default order, so golden
// digests recorded without jitter stay bit-identical.
//
// Call SetJitter before scheduling: events already queued keep a zero jitter
// key and sort ahead of any jittered event at the same cycle.
func (e *Engine) SetJitter(seed uint64) {
	e.jitterOn = seed != 0
	e.jrng = seed
}

// nextJit advances the jitter PRNG (splitmix64) one step.
func (e *Engine) nextJit() uint64 {
	e.jrng += 0x9e3779b97f4a7c15
	z := e.jrng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// less orders queue entries by (time, jitter, lane, sequence). With jitter
// off every jit is zero, and in a standalone engine every lane is zero, so
// the order degenerates to the legacy (time, seq). Under a Parallel run the
// (lane, seq) pair is the scheduling lane and that lane's local sequence
// counter, which makes the key a total order that no interleaving of lane
// execution can perturb. seq keeps the key unique within a lane, so the pop
// order is independent of the queue's internal arrangement.
func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.pool[a], &e.pool[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	if ra.jit != rb.jit {
		return ra.jit < rb.jit
	}
	if ra.lane != rb.lane {
		return ra.lane < rb.lane
	}
	return ra.seq < rb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.far
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = id
}

func (e *Engine) siftDown(i int) {
	h := e.far
	n := len(h)
	id := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.less(h[r], h[c]) {
			c = r
		}
		if !e.less(h[c], id) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = id
}

// farPop removes the far heap's earliest entry.
func (e *Engine) farPop() {
	h := e.far
	n := len(h) - 1
	h[0] = h[n]
	e.far = h[:n]
	e.farMin = Infinity
	if n > 0 {
		e.siftDown(0)
		e.farMin = e.pool[h[0]].at
	}
}

// slotInsert links entry id into the wheel slot for at. With jitter off,
// an event scheduled by the engine's own lane sorts after every entry
// already due at that time, so the common case is a tail append. Any other
// key is placed by a short walk from the head of a sorted slot; past
// shortWalk entries it is appended and the slot marked mixed, and front
// sorts the slot once before popping from it: a jittered burst of k
// same-cycle events costs O(k log k), not the O(k^2) of sorted insertion.
func (e *Engine) slotInsert(id int32, at Time) {
	s := at & wheelMask
	if e.occ&(1<<s) == 0 {
		e.occ |= 1 << s
		e.pool[id].next = id
		e.wheel[s] = id
		return
	}
	tail := e.wheel[s]
	if !e.less(tail, id) && e.mixed&(1<<s) == 0 {
		prev, cur := tail, e.pool[tail].next
		for i := 0; i < shortWalk; i++ {
			if e.less(id, cur) {
				e.pool[id].next = cur
				e.pool[prev].next = id
				return
			}
			prev, cur = cur, e.pool[cur].next
		}
		e.mixed |= 1 << s
	}
	e.pool[id].next = e.pool[tail].next
	e.pool[tail].next = id
	e.wheel[s] = id
}

// sortSlot puts a mixed slot's list into key order.
func (e *Engine) sortSlot(s Time) {
	e.mixed &^= 1 << s
	tail := e.wheel[s]
	ids := e.scr[:0]
	for id := e.pool[tail].next; ; id = e.pool[id].next {
		ids = append(ids, id)
		if id == tail {
			break
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if e.less(a, b) {
			return -1
		}
		return 1
	})
	for i, id := range ids[:len(ids)-1] {
		e.pool[id].next = ids[i+1]
	}
	tail = ids[len(ids)-1]
	e.pool[tail].next = ids[0]
	e.wheel[s] = tail
	e.scr = ids[:0]
}

// front returns the arena index of the earliest queued entry, live or
// cancelled, or -1 when the queue is empty. The answer is cached until the
// entry leaves the queue, so a lane that peeks at its next event at the end
// of one window finds it again at the start of the next without walking
// the wheel.
func (e *Engine) front() int32 {
	if e.first >= 0 {
		return e.first
	}
	if e.occ != 0 {
		d := bits.TrailingZeros64(bits.RotateLeft64(e.occ, -int(e.now&wheelMask)))
		s := (e.now + Time(d)) & wheelMask
		if e.mixed&(1<<s) != 0 {
			e.sortSlot(s)
		}
		e.first = e.pool[e.wheel[s]].next
	} else if len(e.far) > 0 {
		e.first = e.far[0]
	}
	return e.first
}

// unlink removes the entry front returned from the queue.
func (e *Engine) unlink(id int32) {
	e.n--
	e.first = -1
	if e.occ == 0 {
		e.farPop()
		return
	}
	s := e.pool[id].at & wheelMask
	if tail := e.wheel[s]; tail != id {
		e.pool[tail].next = e.pool[id].next
	} else {
		e.occ &^= 1 << s
		e.mixed &^= 1 << s
	}
}

// top returns the arena index of the earliest live entry, releasing the
// cancelled entries ahead of it, or -1 when none is queued.
func (e *Engine) top() int32 {
	for {
		id := e.front()
		if id < 0 || !e.pool[id].dead {
			return id
		}
		e.unlink(id)
		e.dead--
		e.release(id)
	}
}

// take removes the entry top returned, advances the clock to it, and moves
// the far entries the wheel now covers into it.
func (e *Engine) take(id int32) {
	e.unlink(id)
	e.now = e.pool[id].at
	for e.farMin-e.now < wheelSpan && len(e.far) > 0 {
		f := e.far[0]
		e.farPop()
		e.slotInsert(f, e.pool[f].at)
	}
}

// schedule draws the next local ordering key and queues a record at t.
func (e *Engine) schedule(t Time, kind eventKind) (int32, *record) {
	var jit uint64
	if e.jitterOn {
		jit = e.nextJit()
	}
	id, r := e.scheduleKeyed(t, jit, e.lane, e.seq, kind)
	e.seq++
	return id, r
}

// scheduleKeyed allocates a record (recycling a free slot when one exists),
// stamps it with an explicit (jitter, lane, seq) ordering key, and queues
// it. schedule draws the key from this engine; the cross-lane merge
// (pdes.go) passes the key the source lane drew at Post time. The returned
// pointer is valid until the next arena append; callers fill the payload
// immediately.
func (e *Engine) scheduleKeyed(t Time, jit uint64, lane int32, seq uint64, kind eventKind) (int32, *record) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.pool = append(e.pool, record{})
		id = int32(len(e.pool) - 1)
	}
	r := &e.pool[id]
	r.at, r.seq, r.jit, r.lane, r.kind, r.dead = t, seq, jit, lane, kind, false
	e.n++
	if t-e.now < wheelSpan {
		e.slotInsert(id, t)
	} else {
		e.far = append(e.far, id)
		e.siftUp(len(e.far) - 1)
		e.farMin = e.pool[e.far[0]].at
	}
	if e.first >= 0 && e.less(id, e.first) {
		e.first = -1
	}
	return id, r
}

// release recycles a record's arena slot and invalidates its handles.
func (e *Engine) release(id int32) {
	r := &e.pool[id]
	r.gen++
	r.fn, r.step, r.recv, r.payload = nil, nil, nil, nil
	e.free = append(e.free, id)
}

// maybeSweep eagerly drops cancelled entries once they outnumber live ones,
// so a cancel-heavy workload cannot grow the queue without bound. Each
// wheel slot list is relinked without its dead entries, keeping its order,
// and the far heap is filtered and re-heapified; keys are unique, so the
// pop order is unchanged.
func (e *Engine) maybeSweep() {
	if e.dead <= e.n/2 || e.dead < 64 {
		return
	}
	e.first = -1
	for occ := e.occ; occ != 0; occ &= occ - 1 {
		s := bits.TrailingZeros64(occ)
		tail := e.wheel[s]
		head, last := int32(-1), int32(-1)
		for id := e.pool[tail].next; ; {
			next := e.pool[id].next
			if e.pool[id].dead {
				e.release(id)
			} else {
				if last < 0 {
					head = id
				} else {
					e.pool[last].next = id
				}
				last = id
			}
			if id == tail {
				break
			}
			id = next
		}
		if last < 0 {
			e.occ &^= 1 << s
			e.mixed &^= 1 << s
			continue
		}
		e.pool[last].next = head
		e.wheel[s] = last
	}
	live := e.far[:0]
	for _, id := range e.far {
		if e.pool[id].dead {
			e.release(id)
			continue
		}
		live = append(live, id)
	}
	e.far = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.farMin = Infinity
	if len(live) > 0 {
		e.farMin = e.pool[live[0]].at
	}
	e.n -= e.dead
	e.dead = 0
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug, never a recoverable condition.
func (e *Engine) At(t Time, fn Event) Handle {
	if fn == nil {
		panic("sim: nil event")
	}
	id, r := e.schedule(t, evFunc)
	r.fn = fn
	return Handle{e, id, r.gen}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn Event) Handle {
	return e.At(e.now+d, fn)
}

// AtStep schedules s.OnStep(arg) at absolute time t without allocating: the
// typed form of the resume-processor event shape.
func (e *Engine) AtStep(t Time, s Stepper, arg uint64) Handle {
	if s == nil {
		panic("sim: nil stepper")
	}
	id, r := e.schedule(t, evStep)
	r.step, r.arg = s, arg
	return Handle{e, id, r.gen}
}

// AfterStep schedules s.OnStep(arg) d cycles from now.
func (e *Engine) AfterStep(d Time, s Stepper, arg uint64) Handle {
	return e.AtStep(e.now+d, s, arg)
}

// AtDeliver schedules rcv.OnDeliver(payload) at absolute time t without
// allocating a closure: the typed form of the message-delivery event shape.
func (e *Engine) AtDeliver(t Time, rcv Receiver, payload any) Handle {
	if rcv == nil {
		panic("sim: nil receiver")
	}
	id, r := e.schedule(t, evDeliver)
	r.recv, r.payload = rcv, payload
	return Handle{e, id, r.gen}
}

// fire executes one live event. The record is released before the callback
// runs, so events scheduled by the callback can recycle its slot.
func (e *Engine) fire(id int32) {
	r := &e.pool[id]
	kind := r.kind
	fn, step, recv := r.fn, r.step, r.recv
	payload, arg := r.payload, r.arg
	e.release(id)
	e.fired++
	switch kind {
	case evFunc:
		fn()
	case evStep:
		step.OnStep(arg)
	default:
		recv.OnDeliver(payload)
	}
}

// Run executes events until the queue drains, the horizon is exceeded, or
// an installed interrupt reports an error. It returns nil on a drained
// queue.
func (e *Engine) Run() error {
	for {
		id := e.top()
		if id < 0 {
			return nil
		}
		if e.interrupt != nil && e.fired%interruptEvery == 0 {
			if err := e.interrupt(); err != nil {
				return err
			}
		}
		horizon := e.pool[id].at > e.limit
		e.take(id)
		if horizon {
			e.release(id)
			return ErrHorizon
		}
		e.fire(id)
	}
}
