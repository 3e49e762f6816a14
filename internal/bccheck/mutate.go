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
// whenever a mutation is active. Mutated enumerations are only ever run
// on small (shrunk) programs, where the full graph is cheap.

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
