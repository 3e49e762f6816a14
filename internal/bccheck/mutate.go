package bccheck

// Model mutations: single-axiom ablations of the §2 model, used to
// compute axiom-coverage vectors for litmus tests (internal/litmus).
// Each mutation perturbs exactly one axiom family — relaxing it where
// the axiom is a constraint, strengthening it where the axiom asserts a
// weakness (NP-Synch) — so that a test's allowed set changes under the
// mutation iff that axiom family constrains (or licenses) one of the
// test's outcomes.
//
// A mutated model is not the BC model: the POR soundness argument is
// proved against the real semantics, so compile() forces DisablePOR
// whenever a mutation is active. Coverage analysis runs the mutated
// enumerations on every corpus test it replays and on every farm
// candidate and shrink step, so each mutation also states, in
// Reachable, which programs can reach the code it changes: the others
// would only re-explore the unmutated graph.

import "fmt"

// Mutation selects one axiom-family ablation. The zero value is the
// unmutated model.
type Mutation uint8

const (
	MutNone Mutation = iota
	// MutFIFO lets the write buffer retire any buffered entry, not just
	// the head (ablates write-buffer FIFO order).
	MutFIFO
	// MutNPSynch strengthens lock acquisition into a synchronization
	// point: a grant refreshes the clean words of every present data
	// line from memory. Tests whose allowed set shrinks witness the
	// NP-Synch axiom — an outcome they allow exists only because locks
	// order nothing.
	MutNPSynch
	// MutCPSynch removes the buffer drain from FLUSH-BUFFER, UNLOCK and
	// BARRIER (ablates the CP-Synch axiom).
	MutCPSynch
	// MutLockData makes UNLOCK discard dirty lock-line words instead of
	// merging them to memory (ablates lock-carried data).
	MutLockData
	// MutCoherence makes update propagations clobber dirty words
	// (ablates the per-word coherence merge).
	MutCoherence
	// MutFresh removes READ-UPDATE freshness: subscribing over a present
	// line skips the memory refresh, and retiring writes generate no
	// propagations to subscribers.
	MutFresh
	// MutBarrier removes the barrier rendezvous: an arriving processor
	// continues immediately (the pre-arrival buffer flush remains).
	MutBarrier
	mutCount
)

var mutNames = [...]string{
	"none", "fifo", "np-synch", "cp-synch", "lock-data", "coherence",
	"freshness", "barrier",
}

// String names the mutated axiom family.
func (m Mutation) String() string {
	if int(m) < len(mutNames) {
		return mutNames[m]
	}
	return fmt.Sprintf("Mutation(%d)", uint8(m))
}

// Reachable reports whether prog can reach a transition m changes. When
// it reports false, enumerating prog under m explores exactly the
// unmutated model with POR off: the same states, transitions, outcomes
// and errors. Each case names the only code in model.go that consults
// the mutation, and why that code cannot act differently without the
// instructions the case asks for:
//
//   - fifo: expand retires any buffered entry, not just the head. Only a
//     WRITE-GLOBAL puts an entry in its own processor's buffer, so with
//     fewer than two per processor the head is the only entry.
//   - np-synch: grant's refresh and the drain before an acquire. grant
//     runs from READ-LOCK/WRITE-LOCK and from release, and an UNLOCK
//     only validates after an acquire, so both need a READ-/WRITE-LOCK.
//   - cp-synch: FLUSH-BUFFER, UNLOCK and BARRIER skip the drain. The
//     mutated and the real path agree when the buffer is empty, and a
//     processor's buffer can hold an entry only after it has issued a
//     WRITE-GLOBAL.
//   - lock-data: release drops the lock line's dirty words. Only a WRITE
//     or WRITE-GLOBAL to a block while its lock line is present dirties
//     that line, and the line is present from the acquire of that block
//     to its UNLOCK.
//   - coherence: a propagation overwrites dirty words of the data line.
//     Propagations reach only a block's subscribers, READ-UPDATE is the
//     only way to subscribe, and only the processor's own WRITE dirties
//     its data line, so one processor must do both to one block.
//   - freshness: subscribeRU's refresh and retireStepAt's propagations,
//     which both need a READ-UPDATE.
//   - barrier: the rendezvous, run only by BARRIER.
//
// MutNone changes nothing and is never reachable; a mutation outside the
// known range is reported reachable.
func (m Mutation) Reachable(prog Program) bool {
	var r reach
	for _, instrs := range prog {
		r.scan(instrs)
	}
	switch m {
	case MutNone:
		return false
	case MutFIFO:
		return r.twoWG
	case MutNPSynch:
		return r.lock
	case MutCPSynch:
		return r.drainAfterWG
	case MutLockData:
		return r.writeUnderLock
	case MutCoherence:
		return r.writeAndSubscribe
	case MutFresh:
		return r.subscribe
	case MutBarrier:
		return r.barrier
	}
	return true
}

// reach collects, over a program's processors, the instruction patterns
// Reachable tests for.
type reach struct {
	lock, subscribe, barrier bool // any READ-/WRITE-LOCK, READ-UPDATE, BARRIER
	twoWG                    bool // a processor with two WRITE-GLOBALs
	drainAfterWG             bool // a FLUSH-BUFFER, UNLOCK or BARRIER after its processor's WRITE-GLOBAL
	writeUnderLock           bool // a WRITE or WRITE-GLOBAL to a block its processor holds locked
	writeAndSubscribe        bool // a processor that both WRITEs and READ-UPDATEs one block
}

func (r *reach) scan(instrs []Instr) {
	wg := 0
	held := -1 // locked block; locks never nest
	written := map[int]bool{}
	subscribed := map[int]bool{}
	for _, in := range instrs {
		switch in.Op {
		case OpWrite, OpWriteGlobal:
			r.writeUnderLock = r.writeUnderLock || in.Loc.Block == held
			if in.Op == OpWrite {
				written[in.Loc.Block] = true
			} else {
				wg++
			}
		case OpReadUpdate:
			r.subscribe = true
			subscribed[in.Loc.Block] = true
		case OpReadLock, OpWriteLock:
			r.lock = true
			held = in.Loc.Block
		case OpUnlock, OpFlush, OpBarrier:
			r.drainAfterWG = r.drainAfterWG || wg > 0
			r.barrier = r.barrier || in.Op == OpBarrier
			if in.Op == OpUnlock {
				held = -1
			}
		}
	}
	r.twoWG = r.twoWG || wg >= 2
	for b := range subscribed {
		r.writeAndSubscribe = r.writeAndSubscribe || written[b]
	}
}
