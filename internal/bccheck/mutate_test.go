package bccheck

import (
	"reflect"
	"testing"
)

// mutKeys enumerates prog under the given mutation (full graph, serial)
// and returns its outcome keys plus the result.
func mutKeys(t *testing.T, prog Program, m Mutation) (*Result, []string) {
	t.Helper()
	res, err := Enumerate(prog, Options{Mutate: m, Tuning: Tuning{Workers: 1}})
	if err != nil {
		t.Fatalf("enumerate mutate=%v: %v", m, err)
	}
	return res, res.Keys()
}

// mutPair returns prog's outcome keys under the real model and under m,
// after checking that m.Reachable counts prog: a program whose allowed
// set m changes must never be skipped.
func mutPair(t *testing.T, prog Program, m Mutation) (strict, mutated []string) {
	t.Helper()
	if !m.Reachable(prog) {
		t.Fatalf("%v.Reachable is false for a program it changes", m)
	}
	_, strict = mutKeys(t, prog, MutNone)
	_, mutated = mutKeys(t, prog, m)
	return strict, mutated
}

func TestMutationString(t *testing.T) {
	want := map[Mutation]string{
		MutNone:      "none",
		MutFIFO:      "fifo",
		MutNPSynch:   "np-synch",
		MutCPSynch:   "cp-synch",
		MutLockData:  "lock-data",
		MutCoherence: "coherence",
		MutFresh:     "freshness",
		MutBarrier:   "barrier",
		mutCount:     "Mutation(8)",
	}
	for m, s := range want {
		if got := m.String(); got != s {
			t.Errorf("Mutation(%d).String() = %q, want %q", m, got, s)
		}
	}
}

func TestUnknownMutationRejected(t *testing.T) {
	prog := Program{{{Op: OpReadGlobal, Loc: Loc{Block: 0}}}}
	if _, err := Enumerate(prog, Options{Mutate: mutCount}); err == nil {
		t.Fatal("Enumerate accepted an out-of-range mutation")
	}
	if _, err := Enumerate(prog, Options{Mutate: Mutation(200)}); err == nil {
		t.Fatal("Enumerate accepted Mutation(200)")
	}
}

// TestMutationsDisableReductions: a mutated model explores the full
// interleaving graph — POR pruning is proved against the real semantics
// only.
func TestMutationsDisableReductions(t *testing.T) {
	prog := enginePrograms()["sb"]
	full, err := Enumerate(prog, Options{Tuning: Tuning{DisablePOR: true, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for m := MutFIFO; m < mutCount; m++ {
		res, _ := mutKeys(t, prog, m)
		if res.Pruned != 0 {
			t.Errorf("mutate=%v pruned %d transitions, want 0", m, res.Pruned)
		}
		if res.States < full.States {
			t.Errorf("mutate=%v explored %d states, fewer than the full graph's %d", m, res.States, full.States)
		}
	}
}

// TestMutFIFOWeakens: message-passing through two buffered global writes
// is ordered only by the FIFO axiom; ablating it lets the flag overtake
// the data.
func TestMutFIFOWeakens(t *testing.T) {
	x, f := Loc{Block: 0}, Loc{Block: 1}
	prog := Program{
		{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpWriteGlobal, Loc: f, Val: 1}},
		{{Op: OpReadGlobal, Loc: f}, {Op: OpReadGlobal, Loc: x}},
	}
	strict, mutated := mutPair(t, prog, MutFIFO)
	if reflect.DeepEqual(strict, mutated) {
		t.Fatal("MutFIFO did not change the allowed set of buffered MP")
	}
	if !subset(strict, mutated) {
		t.Fatalf("MutFIFO removed outcomes:\nstrict  %v\nmutated %v", strict, mutated)
	}
	if !contains(mutated, "0:. 1:r0=1 1:r1=0") && !contains(mutated, "1:r0=1 1:r1=0") {
		t.Fatalf("MutFIFO failed to admit the reordered outcome: %v", mutated)
	}
}

// TestMutBarrierWeakens: barrier-separated MP loses its ordering when the
// rendezvous is ablated.
func TestMutBarrierWeakens(t *testing.T) {
	prog := enginePrograms()["barrier-mp"]
	strict, mutated := mutPair(t, prog, MutBarrier)
	if reflect.DeepEqual(strict, mutated) {
		t.Fatal("MutBarrier did not change the allowed set of barrier-mp")
	}
	if !subset(strict, mutated) {
		t.Fatalf("MutBarrier removed outcomes:\nstrict  %v\nmutated %v", strict, mutated)
	}
}

// TestMutNPSynchStrengthens is the one inverted mutation: NP-Synch is an
// axiom of weakness (lock grants synchronize nothing), so its ablation
// REMOVES outcomes. A reader that acquires a lock after a remote buffered
// write can miss the write under the real model; with acquisition
// strengthened into a synch point the acquiring proc's own buffer drains
// first, ordering its earlier global write before the critical section.
func TestMutNPSynchStrengthens(t *testing.T) {
	x, l := Loc{Block: 0}, Loc{Block: 2}
	// P0 buffers a write to x, acquires l, and reads x globally INSIDE the
	// critical section (before the unlock's CP-Synch drain). Strict model:
	// the buffered write may still be in flight at the read, so r0=0 is
	// allowed. Strengthened: acquisition drained it, forcing r0=1.
	prog := Program{
		{
			{Op: OpWriteGlobal, Loc: x, Val: 1},
			{Op: OpWriteLock, Loc: l},
			{Op: OpReadGlobal, Loc: x},
			{Op: OpUnlock, Loc: l},
		},
	}
	strict, mutated := mutPair(t, prog, MutNPSynch)
	if reflect.DeepEqual(strict, mutated) {
		t.Fatal("MutNPSynch did not change the allowed set")
	}
	if !subset(mutated, strict) {
		t.Fatalf("MutNPSynch added outcomes (it must only remove):\nstrict  %v\nmutated %v", strict, mutated)
	}
	if contains(mutated, "0:r0=0") {
		t.Fatalf("strengthened acquisition still allows the stale read: %v", mutated)
	}
	if !contains(strict, "0:r0=0") {
		t.Fatalf("strict model lost the NP-Synch-licensed stale read: %v", strict)
	}
}

// TestMutCoherenceWeakens: an update propagation clobbering a dirty word
// lets a locally-written value be overwritten by a stale remote update.
func TestMutCoherenceWeakens(t *testing.T) {
	x := Loc{Block: 0}
	prog := Program{
		{{Op: OpReadUpdate, Loc: x}, {Op: OpWrite, Loc: x, Val: 9}, {Op: OpRead, Loc: x}},
		{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpFlush}},
	}
	strict, mutated := mutPair(t, prog, MutCoherence)
	if reflect.DeepEqual(strict, mutated) {
		t.Fatal("MutCoherence did not change the allowed set")
	}
	if !subset(strict, mutated) {
		t.Fatalf("MutCoherence removed outcomes:\nstrict  %v\nmutated %v", strict, mutated)
	}
}

func subset(a, b []string) bool {
	set := map[string]bool{}
	for _, k := range b {
		set[k] = true
	}
	for _, k := range a {
		if !set[k] {
			return false
		}
	}
	return true
}

func contains(ks []string, k string) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}
