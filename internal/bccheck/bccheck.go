package bccheck

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Op is an event kind: one of the hardware primitives of Table 1, plus
// BARRIER.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	OpReadGlobal
	OpWriteGlobal
	OpReadUpdate
	OpResetUpdate
	OpFlush
	OpReadLock
	OpWriteLock
	OpUnlock
	OpBarrier
	opCount
)

var opNames = [...]string{
	"READ", "WRITE", "READ-GLOBAL", "WRITE-GLOBAL", "READ-UPDATE",
	"RESET-UPDATE", "FLUSH-BUFFER", "READ-LOCK", "WRITE-LOCK", "UNLOCK",
	"BARRIER",
}

// String names the op as the paper spells it.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Reads reports whether the op returns a value into a register.
func (o Op) Reads() bool {
	return o == OpRead || o == OpReadGlobal || o == OpReadUpdate
}

// Loc is an abstract memory location: a block and a word within it.
// Locations in the same block share a cache line, a subscription, and a
// lock. For OpBarrier, Block is the barrier's identity and Word is ignored.
type Loc struct {
	Block int
	Word  int
}

// Instr is one instruction of a litmus program. Val is the value written
// (write ops only). Loc is ignored for OpFlush.
type Instr struct {
	Op  Op
	Loc Loc
	Val uint64
}

// Program is one instruction sequence per processor.
type Program [][]Instr

// Options parameterizes Enumerate.
type Options struct {
	// Observe lists locations whose final memory value is part of the
	// outcome.
	Observe []Loc
	// Init gives initial memory values; unmentioned locations start at 0.
	Init map[Loc]uint64
	// MaxStates aborts the search beyond this many distinct states
	// (default 2,000,000).
	MaxStates int
	// LocName renders locations in witness labels (default "b<B>w<W>").
	LocName func(Loc) string
	// Witnesses asks for one witness trace per outcome. Witness mode
	// forces the serial canonical engine (see Tuning).
	Witnesses bool
	// Mutate ablates one axiom family of the model (see Mutation). Used
	// by axiom-coverage analysis; a non-zero mutation forces DisablePOR,
	// since the reduction is proved against the unmutated semantics.
	Mutate Mutation
	// Tuning selects exploration-engine variants. The zero value — POR
	// on, workers = GOMAXPROCS — is correct for all programs; Tuning
	// only trades time for reproduction of the unreduced state count.
	Tuning Tuning
}

// Tuning selects exploration strategies. Every setting preserves the
// outcome set; DisablePOR additionally preserves the unreduced state
// count, and any Workers value yields results bit-identical to
// Workers=1.
type Tuning struct {
	// DisablePOR turns off partial-order reduction, exploring the full
	// interleaving graph (the pre-reduction semantics).
	DisablePOR bool
	// DisableSymmetry has no effect. It once turned off a symmetry
	// quotient that cost more time than it saved and was removed; the
	// field stays so existing callers keep compiling.
	DisableSymmetry bool
	// Workers caps exploration parallelism. 0 means GOMAXPROCS; 1 forces
	// the serial engine.
	Workers int
}

// ErrStateLimit is returned when the search exceeds Options.MaxStates.
// The concrete error is a *StateLimitError; errors.Is(err, ErrStateLimit)
// matches it.
var ErrStateLimit = errors.New("bccheck: state limit exceeded")

// StateLimitError reports an aborted search: how many states were
// explored, the configured cap, and a canonical prefix of the exploration
// (the first-successor walk from the initial state) to show where the
// blow-up lives.
type StateLimitError struct {
	States int
	Limit  int
	Prefix []string
}

func (e *StateLimitError) Error() string {
	msg := fmt.Sprintf("bccheck: state limit exceeded: %d states explored, cap %d", e.States, e.Limit)
	if len(e.Prefix) > 0 {
		msg += "; deepest canonical prefix: " + strings.Join(e.Prefix, "; ")
	}
	return msg
}

// Is makes errors.Is(err, ErrStateLimit) work for wrapped limit errors.
func (e *StateLimitError) Is(target error) bool { return target == ErrStateLimit }

// Outcome is one allowed final state: the values each processor's reads
// returned, in program order, plus the final memory values of the observed
// locations.
type Outcome struct {
	Regs [][]uint64 // per processor, per read
	Mem  []uint64   // per Options.Observe entry

	// Witness is one sequence of machine steps that produces this outcome.
	Witness []string
}

// Key is the outcome's canonical form: "p:rN=v" tokens in processor and
// read order, then "mI=v" tokens in observe order.
func (o Outcome) Key() string {
	var b strings.Builder
	for p, regs := range o.Regs {
		for i, v := range regs {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:r%d=%d", p, i, v)
		}
	}
	for i, v := range o.Mem {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "m%d=%d", i, v)
	}
	return b.String()
}

// Result is the full answer for one program.
type Result struct {
	// Outcomes is the allowed set, sorted by Key.
	Outcomes []Outcome
	// States is the number of distinct abstract-machine states visited.
	// With partial-order reduction on (the default) this counts the
	// reduced graph; with Tuning.DisablePOR it matches the full graph.
	States int
	// Pruned counts enabled transitions skipped by partial-order
	// reduction. Zero when Tuning.DisablePOR is set.
	Pruned int
}

// Has reports whether the allowed set contains an outcome with the given
// canonical key.
func (r *Result) Has(key string) bool {
	for _, o := range r.Outcomes {
		if o.Key() == key {
			return true
		}
	}
	return false
}

// Keys returns the sorted canonical keys of the allowed set.
func (r *Result) Keys() []string {
	out := make([]string, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Key()
	}
	return out
}

// Enumerate computes the allowed outcome set of a program under the BC
// axioms. It returns an error for ill-formed programs (unbalanced locks,
// writes under a read lock, mismatched barriers), for programs whose
// exploration exceeds MaxStates, and for programs that can deadlock.
func Enumerate(prog Program, opts Options) (*Result, error) {
	c, err := compile(prog, opts)
	if err != nil {
		return nil, err
	}
	return c.enumerate()
}

// Validate checks program well-formedness without enumerating: every lock
// acquired is released (and not re-acquired while held), no plain or global
// write targets a block the processor holds under a READ-LOCK, and every
// barrier is joined exactly once by every processor.
func Validate(prog Program, opts Options) error {
	_, err := compile(prog, opts)
	return err
}

// sortOutcomes orders outcomes by canonical key.
func sortOutcomes(outs []Outcome) {
	sort.Slice(outs, func(i, j int) bool { return outs[i].Key() < outs[j].Key() })
}
