package bccheck

import (
	"errors"
	"reflect"
	"regexp"
	"testing"
)

// enginePrograms is a small spread of shapes: racing global writes,
// update subscriptions, locks, barriers, and the IRIW family that
// stresses propagation interleavings.
func enginePrograms() map[string]Program {
	x := Loc{Block: 0}
	y := Loc{Block: 1}
	l := Loc{Block: 2}
	return map[string]Program{
		"sb": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}, {Op: OpReadGlobal, Loc: x}},
		},
		"mp-update": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpWriteGlobal, Loc: y, Val: 1}, {Op: OpFlush}},
			{{Op: OpReadUpdate, Loc: y}, {Op: OpReadUpdate, Loc: x}},
		},
		"iriw-update": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}},
			{{Op: OpReadUpdate, Loc: x}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpReadUpdate, Loc: y}, {Op: OpReadGlobal, Loc: x}},
		},
		"locked-counter": {
			{{Op: OpWriteLock, Loc: l}, {Op: OpRead, Loc: l}, {Op: OpWrite, Loc: l, Val: 1}, {Op: OpUnlock, Loc: l}},
			{{Op: OpWriteLock, Loc: l}, {Op: OpRead, Loc: l}, {Op: OpWrite, Loc: l, Val: 2}, {Op: OpUnlock, Loc: l}},
		},
		"barrier-mp": {
			{{Op: OpWriteGlobal, Loc: x, Val: 7}, {Op: OpBarrier, Loc: Loc{Block: 9}}},
			{{Op: OpBarrier, Loc: Loc{Block: 9}}, {Op: OpReadGlobal, Loc: x}, {Op: OpRead, Loc: x}},
		},
		"reset-race": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpFlush}},
			{{Op: OpReadUpdate, Loc: x}, {Op: OpResetUpdate, Loc: x}, {Op: OpRead, Loc: x}},
		},
	}
}

func snapshot(t *testing.T, prog Program, opts Options) (keys []string, states, pruned int) {
	t.Helper()
	res, err := Enumerate(prog, opts)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return res.Keys(), res.States, res.Pruned
}

// TestParallelMatchesSerial pins the determinism contract: for every
// worker count, with POR on and off, outcome keys, state counts, and
// pruned counts are bit-identical to the serial engine.
func TestParallelMatchesSerial(t *testing.T) {
	for name, prog := range enginePrograms() {
		for _, por := range []bool{false, true} {
			base := Options{Tuning: Tuning{Workers: 1, DisablePOR: !por}}
			wantK, wantS, wantP := snapshot(t, prog, base)
			for _, workers := range []int{2, 4, 8} {
				opts := base
				opts.Tuning.Workers = workers
				gotK, gotS, gotP := snapshot(t, prog, opts)
				if !reflect.DeepEqual(gotK, wantK) {
					t.Errorf("%s por=%v workers=%d: keys %v, want %v", name, por, workers, gotK, wantK)
				}
				if gotS != wantS || gotP != wantP {
					t.Errorf("%s por=%v workers=%d: states/pruned %d/%d, want %d/%d",
						name, por, workers, gotS, gotP, wantS, wantP)
				}
			}
		}
	}
}

// TestPORPreservesOutcomes pins POR soundness on the program spread:
// identical outcome sets, never more states than the full graph, and
// States+Pruned as a sanity bound on the work saved.
func TestPORPreservesOutcomes(t *testing.T) {
	for name, prog := range enginePrograms() {
		full := Options{Tuning: Tuning{Workers: 1, DisablePOR: true}}
		red := Options{Tuning: Tuning{Workers: 1}}
		fullK, fullS, fullP := snapshot(t, prog, full)
		redK, redS, redP := snapshot(t, prog, red)
		if !reflect.DeepEqual(redK, fullK) {
			t.Errorf("%s: POR changed outcomes: %v, want %v", name, redK, fullK)
		}
		if fullP != 0 {
			t.Errorf("%s: DisablePOR still pruned %d transitions", name, fullP)
		}
		if redS > fullS {
			t.Errorf("%s: reduced graph larger than full: %d > %d", name, redS, fullS)
		}
		if redP > 0 && redS >= fullS {
			t.Errorf("%s: pruned %d transitions but explored %d >= %d states", name, redP, redS, fullS)
		}
	}
}

// TestPORReducesIRIW pins the headline win: IRIW-class propagation
// interleavings collapse measurably under POR.
func TestPORReducesIRIW(t *testing.T) {
	prog := enginePrograms()["iriw-update"]
	_, fullS, _ := snapshot(t, prog, Options{Tuning: Tuning{Workers: 1, DisablePOR: true}})
	_, redS, redP := snapshot(t, prog, Options{Tuning: Tuning{Workers: 1}})
	// Most IRIW interleavings are genuinely observable — that is the
	// test's point — so the reduction trims the invisible tail (post-read
	// retires and deliveries), not the core diamond.
	if redS >= fullS*95/100 {
		t.Errorf("IRIW: POR explored %d of %d states; want a measurable reduction", redS, fullS)
	}
	if redP == 0 {
		t.Errorf("IRIW: POR pruned nothing")
	}
	t.Logf("IRIW: %d states full, %d reduced, %d pruned", fullS, redS, redP)
}

// TestWitnessStableAcrossTunings pins the canonical-witness contract:
// witness mode forces the serial canonical engine, so traces don't vary
// with the Workers setting.
func TestWitnessStableAcrossTunings(t *testing.T) {
	prog := enginePrograms()["sb"]
	a, err := Enumerate(prog, Options{Witnesses: true, Tuning: Tuning{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(prog, Options{Witnesses: true, Tuning: Tuning{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("witnesses differ across worker settings")
	}
	for _, o := range a.Outcomes {
		if len(o.Witness) == 0 {
			t.Errorf("outcome %q missing witness", o.Key())
		}
	}
}

// symProgs returns programs with processor/location symmetries: the
// shapes a symmetry quotient would collapse, kept as engine stress
// because their states come in large mirror-image families.
func symProgs() map[string]Program {
	x := Loc{Block: 0}
	y := Loc{Block: 1}
	return map[string]Program{
		"sb-swap": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}, {Op: OpReadGlobal, Loc: x}},
		},
		"three-writers": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: x}},
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: x}},
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: x}},
		},
		"iriw-pairs": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}},
			{{Op: OpReadGlobal, Loc: x}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpReadGlobal, Loc: y}, {Op: OpReadGlobal, Loc: x}},
		},
		"asymmetric-values": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpWriteGlobal, Loc: y, Val: 2}, {Op: OpReadGlobal, Loc: x}},
		},
	}
}

// TestSymmetryMatrix is the combos net on the symmetric programs: every
// DisablePOR × Workers configuration agrees on outcome keys, and
// configurations that differ only in worker count agree on
// States/Pruned exactly.
func TestSymmetryMatrix(t *testing.T) {
	for name, prog := range symProgs() {
		var ref []string
		for _, por := range []bool{false, true} {
			wantK, wantS, wantP := snapshot(t, prog, Options{Tuning: Tuning{DisablePOR: por, Workers: 1}})
			if ref == nil {
				ref = wantK
			} else if !reflect.DeepEqual(wantK, ref) {
				t.Errorf("%s por=%v: keys %v, want %v", name, por, wantK, ref)
			}
			for _, workers := range []int{2, 4} {
				gotK, gotS, gotP := snapshot(t, prog, Options{Tuning: Tuning{DisablePOR: por, Workers: workers}})
				if !reflect.DeepEqual(gotK, ref) {
					t.Errorf("%s por=%v w=%d: keys %v, want %v", name, por, workers, gotK, ref)
				}
				if gotS != wantS || gotP != wantP {
					t.Errorf("%s por=%v w=%d: states/pruned %d/%d, want %d/%d",
						name, por, workers, gotS, gotP, wantS, wantP)
				}
			}
		}
	}
}

// TestStateLimitPrefixUnderSymmetry: the canonical prefix attached to a
// state-limit error on a symmetric program renders in the program's own
// numbering and is identical across worker counts (it is recomputed by
// a deterministic serial walk).
func TestStateLimitPrefixUnderSymmetry(t *testing.T) {
	prog := symProgs()["three-writers"]
	label := regexp.MustCompile(`^P[0-2][:']`)
	var prefixes [][]string
	for _, workers := range []int{1, 4} {
		_, err := Enumerate(prog, Options{MaxStates: 4, Tuning: Tuning{Workers: workers}})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("workers=%d: want ErrStateLimit, got %v", workers, err)
		}
		var sle *StateLimitError
		if !errors.As(err, &sle) {
			t.Fatalf("workers=%d: want *StateLimitError, got %T", workers, err)
		}
		if len(sle.Prefix) == 0 {
			t.Fatalf("workers=%d: empty canonical prefix", workers)
		}
		for _, l := range sle.Prefix {
			if !label.MatchString(l) {
				t.Errorf("workers=%d: prefix label %q not in program numbering", workers, l)
			}
		}
		prefixes = append(prefixes, sle.Prefix)
	}
	if !reflect.DeepEqual(prefixes[0], prefixes[1]) {
		t.Errorf("prefix differs across worker counts:\n%v\n%v", prefixes[0], prefixes[1])
	}
}

func TestHash128(t *testing.T) {
	seen := make(map[hkey][]byte)
	var inputs [][]byte
	for n := 0; n < 40; n++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		inputs = append(inputs, buf)
		if n > 0 {
			alt := append([]byte(nil), buf...)
			alt[n-1] ^= 1
			inputs = append(inputs, alt)
		}
	}
	for _, in := range inputs {
		k := hash128(in)
		if prev, ok := seen[k]; ok {
			t.Fatalf("collision between %v and %v", prev, in)
		}
		seen[k] = in
		if k2 := hash128(in); k2 != k {
			t.Fatalf("hash not deterministic for %v", in)
		}
	}
}
