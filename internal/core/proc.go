package core

import (
	"fmt"

	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/sim"
)

// Proc is a simulated processor's program-facing handle. Its methods block
// the program until the modeled operation completes, advancing the
// simulation clock underneath.
//
// Each program runs as a coroutine of its node's event loop (see Program):
// every blocking method suspends the program and returns control to the
// loop, which resumes it when the operation completes. Proc methods must
// only be called from within the processor's own Program.
type Proc struct {
	id int
	m  *Machine
	n  *node
	// eng is the engine this processor schedules on: the machine's serial
	// engine, or under lane mode the node's own lane engine.
	eng *sim.Engine

	// The program runs as a coroutine (coro.go): step stores the word it
	// carries in w and resumes the program through next; wait hands
	// control back through yield. stop abandons a program that has not
	// finished.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	w     mem.Word

	done    bool
	err     any
	opDepth int

	// Batched stepping: purely local operations (Think, private
	// references, lock-cache hits) do not yield to the event loop; their
	// delays accumulate in hops (lag is the running sum) and are replayed
	// as a chain of typed events when the program reaches an operation
	// that touches shared state. The replay schedules exactly the events
	// the unbatched kernel would have — same times, same insertion
	// sequence — so results are bit-identical, but the two coroutine
	// switches per local operation collapse into one per batch.
	hops   []sim.Time
	hopIdx int
	lag    sim.Time

	// cb0 and cbW are the controller completion callbacks, and endOp the
	// beginOp closer, allocated once instead of once per operation.
	cb0   func()
	cbW   func(mem.Word)
	endOp func()

	// Ops counts primitive operations issued.
	Ops uint64
	// PrivHits and PrivMisses count modeled private references.
	PrivHits   uint64
	PrivMisses uint64
	// LockAcquires counts lock grants received (either machine).
	LockAcquires uint64

	stats ProcStats
}

// ProcStats breaks a processor's elapsed cycles into the categories the
// paper's discussion of utilization distinguishes (§5.2: "synchronization
// activities may keep the processor busy without performing any useful
// computation").
type ProcStats struct {
	// Busy is local computation: Think, private references, cache and
	// lock-cache hits.
	Busy sim.Time
	// MemStall is time stalled on memory and coherence operations
	// (misses, global reads/writes under SC, update subscriptions).
	MemStall sim.Time
	// SyncStall is time stalled on synchronization: lock waits, barrier
	// waits, buffer flushes, and release latencies.
	SyncStall sim.Time
	// Finished is the cycle the processor's program completed.
	Finished sim.Time
}

// Utilization returns Busy / (Busy + MemStall + SyncStall), the paper's
// useful-computation fraction. It returns 0 for an idle processor.
func (s ProcStats) Utilization() float64 {
	total := s.Busy + s.MemStall + s.SyncStall
	if total == 0 {
		return 0
	}
	return float64(s.Busy) / float64(total)
}

// stallCat tags what a blocked processor is waiting for.
type stallCat uint8

const (
	catBusy stallCat = iota
	catMem
	catSync
)

// Stats returns the processor's cycle breakdown.
func (p *Proc) Stats() ProcStats { return p.stats }

// record logs an operation when history recording is enabled.
func (p *Proc) record(write, rmw bool, a mem.Addr, value, prev mem.Word, start sim.Time) {
	if p.m.hist == nil {
		return
	}
	p.m.hist.Record(history.Op{
		Proc: p.id, Write: write, RMW: rmw, Addr: a,
		Value: value, Prev: prev, Start: start, End: p.now(),
	})
}

func newProc(m *Machine, n *node, eng *sim.Engine) *Proc {
	p := &Proc{id: n.id, m: m, n: n, eng: eng}
	p.cb0 = func() { p.step(0) }
	p.cbW = func(w mem.Word) { p.step(w) }
	p.endOp = func() { p.opDepth-- }
	return p
}

// now returns the processor's logical time: the engine clock plus any local
// cycles not yet replayed into it.
func (p *Proc) now() sim.Time { return p.eng.Now() + p.lag }

// maxBatch bounds how many local delays accumulate before a forced replay.
// Without the bound a program that never touches shared state (for example
// one spinning in Think) would starve the event loop, making the horizon and
// run-context interrupts unreachable. The forced sync schedules the same
// events at the same instants a single larger batch would, so the bound has
// no observable effect on results.
const maxBatch = 1024

// local charges c cycles of purely local time: no yield, no event — the
// delay is replayed on the next sync.
func (p *Proc) local(c sim.Time) {
	p.hops = append(p.hops, c)
	p.lag += c
	p.stats.Busy += c
	if len(p.hops) >= maxBatch {
		p.sync()
	}
}

// sync replays the accumulated local delays into the engine clock and
// returns with the clock at the processor's logical time. It must be called
// before any interaction with shared simulation state (network, write
// buffer, controllers). The replay is a chain of typed events — hop i
// schedules hop i+1 when it fires — reproducing the exact (time, sequence)
// event structure the unbatched kernel produced, which keeps runs
// bit-identical.
func (p *Proc) sync() {
	if len(p.hops) == 0 {
		return
	}
	p.hopIdx = 1
	p.lag = 0
	p.eng.AfterStep(p.hops[0], p, 0)
	p.wait()
}

// OnStep implements sim.Stepper: it advances the hop-replay chain, resuming
// the program once the last hop has fired. Called from the event loop only.
func (p *Proc) OnStep(uint64) {
	if p.hopIdx < len(p.hops) {
		d := p.hops[p.hopIdx]
		p.hopIdx++
		p.eng.AfterStep(d, p, 0)
		return
	}
	p.hops = p.hops[:0]
	p.hopIdx = 0
	p.step(0)
}

// abortSignal is the panic value that unwinds a program when its machine's
// run is abandoned (cancelled, horizon, deadlock). It is absorbed by the
// recover in start and never reported as a program error.
type abortSignal struct{}

// waitAs parks the program and charges the elapsed cycles to a stall
// category.
func (p *Proc) waitAs(cat stallCat) mem.Word {
	start := p.eng.Now()
	w := p.wait()
	d := p.eng.Now() - start
	switch cat {
	case catBusy:
		p.stats.Busy += d
	case catMem:
		p.stats.MemStall += d
	case catSync:
		p.stats.SyncStall += d
	}
	return w
}

// Id returns the processor's node id.
func (p *Proc) Id() int { return p.id }

// Now returns the current simulation time as seen by this processor: the
// engine clock plus any batched local cycles not yet replayed into it.
func (p *Proc) Now() sim.Time { return p.now() }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Think models c cycles of local computation. The delay is batched: it
// accumulates locally and is replayed into the event loop at the next
// shared-state operation, costing no coroutine switch of its own.
func (p *Proc) Think(c sim.Time) {
	if c == 0 {
		return
	}
	defer p.beginOp(OpRecord{Kind: OpThink, Cycles: c})()
	p.local(c)
}

// PrivateRef models one reference to private data (the probabilistic
// workload models decide hit/miss per Table 4's hit ratio). A hit costs one
// cache cycle; a miss fetches the block from the node's local memory module
// (distributed memory: private data is homed locally, so no network
// traversal).
func (p *Proc) PrivateRef(write, hit bool) {
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpPrivate, Write: write, Hit: hit})()
	t := p.m.cfg.Timing
	if hit {
		p.PrivHits++
		p.Think(t.CacheHit)
		return
	}
	p.PrivMisses++
	hop := p.m.cfg.LocalDelay
	if p.m.cfg.DanceHall {
		// All memory is across the network: a miss pays the full
		// round-trip transit.
		hop = p.m.net.UncontendedLatency(0)
	}
	p.Think(t.CacheHit + 2*hop + t.TMem)
}

func (p *Proc) requireCBL(op string) {
	if p.m.cfg.Protocol != ProtoCBL {
		panic(fmt.Sprintf("core: %s is not a primitive of the %v machine", op, p.m.cfg.Protocol))
	}
}

func (p *Proc) requireWBI(op string) {
	if p.m.cfg.Protocol != ProtoWBI {
		panic(fmt.Sprintf("core: %s is not a primitive of the %v machine", op, p.m.cfg.Protocol))
	}
}

// Read performs the READ primitive. On the CBL machine it is a private read
// (no coherence action), served from the lock cache when this node holds a
// lock on the block; on the WBI machine it is a coherent read.
func (p *Proc) Read(a mem.Addr) mem.Word {
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpRead, Addr: a})()
	start := p.now()
	if p.m.cfg.Protocol == ProtoWBI {
		p.sync()
		p.n.wbiN.Read(a, p.cbW)
		w := p.waitAs(catMem)
		p.record(false, false, a, w, 0, start)
		return w
	}
	if p.n.cblU.Holds(a) {
		// Lock-cache hit: the block's contents are unobservable remotely
		// while the lock is held, so this is a purely local operation and
		// stays in the batch.
		w, err := p.n.cblU.ReadLocked(a)
		if err != nil {
			panic(err)
		}
		p.Think(p.m.cfg.Timing.CacheHit)
		p.record(false, false, a, w, 0, start)
		return w
	}
	p.sync()
	p.n.rucN.Read(a, p.cbW)
	w := p.waitAs(catMem)
	p.record(false, false, a, w, 0, start)
	return w
}

// Write performs the WRITE primitive. On the CBL machine it is a private
// write (propagated only on replacement or an explicit global write),
// routed to the lock cache when this node holds a write lock on the block;
// on the WBI machine it is a strongly consistent coherent write.
func (p *Proc) Write(a mem.Addr, w mem.Word) {
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpWrite, Addr: a, Value: w})()
	start := p.now()
	if p.m.cfg.Protocol == ProtoWBI {
		p.sync()
		p.n.wbiN.Write(a, w, p.cb0)
		p.waitAs(catMem)
		p.record(true, false, a, w, 0, start)
		return
	}
	if p.n.cblU.Holds(a) {
		if err := p.n.cblU.WriteLocked(a, w); err != nil {
			panic(err)
		}
		p.Think(p.m.cfg.Timing.CacheHit)
		p.record(true, false, a, w, 0, start)
		return
	}
	p.sync()
	p.n.rucN.Write(a, w, p.cb0)
	p.waitAs(catMem)
	p.record(true, false, a, w, 0, start)
}

// ReadGlobal performs READ-GLOBAL: reads the word from main memory,
// bypassing the local cache. On the WBI machine a coherent read is already
// globally fresh and is used instead.
func (p *Proc) ReadGlobal(a mem.Addr) mem.Word {
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpReadGlobal, Addr: a})()
	start := p.now()
	p.sync()
	if p.m.cfg.Protocol == ProtoWBI {
		p.n.wbiN.Read(a, p.cbW)
		w := p.waitAs(catMem)
		p.record(false, false, a, w, 0, start)
		return w
	}
	p.n.rucN.ReadGlobal(a, p.cbW)
	w := p.waitAs(catMem)
	p.record(false, false, a, w, 0, start)
	return w
}

// WriteGlobal performs WRITE-GLOBAL. Under buffered consistency the write
// enters the write buffer and the processor continues immediately; under
// sequential consistency the processor stalls until the memory
// acknowledgment. On the WBI machine it is an ordinary strongly consistent
// write. A write to a block this node holds a write lock on goes to the
// lock line: the data is secured by the lock and travels home on unlock.
func (p *Proc) WriteGlobal(a mem.Addr, w mem.Word) {
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpWriteGlobal, Addr: a, Value: w})()
	start := p.now()
	if p.m.cfg.Protocol == ProtoWBI {
		p.sync()
		p.n.wbiN.Write(a, w, p.cb0)
		p.waitAs(catMem)
		p.record(true, false, a, w, 0, start)
		return
	}
	if p.n.cblU.Holds(a) {
		if err := p.n.cblU.WriteLocked(a, w); err != nil {
			panic(err)
		}
		p.Think(p.m.cfg.Timing.CacheHit)
		p.record(true, false, a, w, 0, start)
		return
	}
	p.sync()
	b := p.m.geom.BlockOf(a)
	wi := p.m.geom.WordIndex(a)
	for !p.n.buf.Add(b, wi, w) {
		// Bounded buffer full: stall until an ack frees a slot.
		p.n.buf.OnSpace(p.cb0)
		p.waitAs(catMem)
	}
	if p.m.cfg.Consistency == SC {
		// Sequential consistency: stall until the memory ack.
		if !p.n.buf.Empty() {
			p.n.buf.OnEmpty(p.cb0)
			p.waitAs(catMem)
		}
		p.record(true, false, a, w, 0, start)
		return
	}
	p.Think(p.m.cfg.Timing.CacheHit)
	// Under BC the write is buffered: its interval ends locally even
	// though global completion is later — exactly why BC histories fail
	// a linearizability check.
	p.record(true, false, a, w, 0, start)
}

// FlushBuffer performs FLUSH-BUFFER: stalls until every buffered global
// write has been performed at memory. A no-op on the WBI machine, whose
// writes are already strongly consistent.
func (p *Proc) FlushBuffer() {
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpFlush})()
	if p.m.cfg.Protocol == ProtoWBI {
		return
	}
	// The buffer drains on its own schedule; batched local time must be
	// replayed before observing it, or a pump completion due before the
	// processor's logical now would be missed.
	p.sync()
	if p.n.buf.Empty() {
		return
	}
	p.n.buf.OnEmpty(p.cb0)
	p.waitAs(catSync)
}

// ReadUpdate performs READ-UPDATE: reads the word and subscribes this node
// to future updates of its block (CBL machine only).
func (p *Proc) ReadUpdate(a mem.Addr) mem.Word {
	p.requireCBL("READ-UPDATE")
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpReadUpdate, Addr: a})()
	p.sync()
	p.n.rucN.ReadUpdate(a, p.cbW)
	return p.waitAs(catMem)
}

// ResetUpdate performs RESET-UPDATE: cancels the subscription (CBL machine
// only).
func (p *Proc) ResetUpdate(a mem.Addr) {
	p.requireCBL("RESET-UPDATE")
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpResetUpdate, Addr: a})()
	p.sync()
	p.n.rucN.ResetUpdate(a, p.cb0)
	p.waitAs(catMem)
}

func (p *Proc) lock(a mem.Addr, mode msg.LockMode) {
	p.requireCBL(mode.String())
	p.Ops++
	k := OpReadLock
	if mode == msg.LockWrite {
		k = OpWriteLock
	}
	defer p.beginOp(OpRecord{Kind: k, Addr: a})()
	p.sync()
	if err := p.n.cblU.Lock(a, mode, p.cb0); err != nil {
		panic(fmt.Sprintf("core: processor %d %v on %d: %v", p.id, mode, a, err))
	}
	p.waitAs(catSync)
	p.LockAcquires++
}

// ReadLock performs READ-LOCK: acquires a shared lock on the block
// containing a, blocking until granted. The grant carries the block's data
// into the lock cache. An NP-Synch operation: no write-buffer flush.
func (p *Proc) ReadLock(a mem.Addr) { p.lock(a, msg.LockRead) }

// WriteLock performs WRITE-LOCK: acquires an exclusive lock on the block
// containing a, blocking until granted. An NP-Synch operation.
func (p *Proc) WriteLock(a mem.Addr) { p.lock(a, msg.LockWrite) }

// Unlock performs UNLOCK, a CP-Synch operation: under buffered consistency
// the write buffer is flushed first (all global writes preceding the
// release must be globally performed, §2); the release itself does not
// stall the processor beyond the local cache access.
func (p *Proc) Unlock(a mem.Addr) {
	p.requireCBL("UNLOCK")
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpUnlock, Addr: a})()
	// FlushBuffer replays any batched local time, so the clock is synced
	// here even when the buffer is already empty.
	p.FlushBuffer()
	if err := p.n.cblU.Unlock(a, p.cb0); err != nil {
		panic(fmt.Sprintf("core: processor %d unlock on %d: %v", p.id, a, err))
	}
	p.waitAs(catSync)
}

// Barrier joins the hardware barrier named by address a with the given
// participant count, blocking until every participant arrives. A CP-Synch
// operation: the write buffer is flushed before arrival.
func (p *Proc) Barrier(a mem.Addr, participants int) {
	p.requireCBL("BARRIER")
	p.Ops++
	defer p.beginOp(OpRecord{Kind: OpBarrier, Addr: a, Participants: participants})()
	p.FlushBuffer()
	p.n.barU.Arrive(a, participants, p.cb0)
	p.waitAs(catSync)
}

// RMW performs an atomic read-modify-write on the WBI machine, returning
// the old value. This is the primitive software locks are built from.
func (p *Proc) RMW(a mem.Addr, op func(mem.Word) mem.Word) mem.Word {
	p.requireWBI("RMW")
	p.Ops++
	// Capture normalizes the RMW to fetch-and-add by probing the function
	// at zero (exact for fetch-and-add and test-and-set-from-free; an
	// approximation for exotic ops, which the trace format cannot carry).
	defer p.beginOp(OpRecord{Kind: OpRMW, Addr: a, Delta: op(0)})()
	start := p.now()
	p.sync()
	p.n.wbiN.RMW(a, op, p.cbW)
	old := p.waitAs(catSync)
	p.record(true, true, a, op(old), old, start)
	return old
}

// SharedRead reads shared data in the machine-appropriate way: a plain READ
// on either machine (coherent under WBI; possibly stale under the CBL
// machine's buffered consistency, which is the model's intent — readers
// that need fresh data synchronize or use READ-UPDATE).
func (p *Proc) SharedRead(a mem.Addr) mem.Word { return p.Read(a) }

// SharedWrite writes shared data in the machine-appropriate way:
// WRITE-GLOBAL on the CBL machine, a coherent write on WBI.
func (p *Proc) SharedWrite(a mem.Addr, w mem.Word) { p.WriteGlobal(a, w) }

// HoldsLock reports whether this node currently holds a CBL lock on the
// block containing a.
func (p *Proc) HoldsLock(a mem.Addr) bool {
	return p.m.cfg.Protocol == ProtoCBL && p.n.cblU.Holds(a)
}
