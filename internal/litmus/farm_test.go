package litmus

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ssmp/internal/bccheck"
)

// TestCanonicalizeInvariance: permuting processors and renaming locations
// and values must land every member of the equivalence class on the same
// canonical form and name.
func TestCanonicalizeInvariance(t *testing.T) {
	base := &Test{Name: "a", Procs: [][]Stmt{
		{{Op: "write-global", Loc: "x", Val: 7}, {Op: "flush"}, {Op: "read-global", Loc: "y"}},
		{{Op: "write-global", Loc: "y", Val: 3}, {Op: "flush"}, {Op: "read-global", Loc: "x"}},
	}}
	// The same program with procs swapped, locations swapped, and values
	// relabeled.
	twin := &Test{Name: "b", Procs: [][]Stmt{
		{{Op: "write-global", Loc: "q", Val: 100}, {Op: "flush"}, {Op: "read-global", Loc: "p"}},
		{{Op: "write-global", Loc: "p", Val: 42}, {Op: "flush"}, {Op: "read-global", Loc: "q"}},
	}}
	c1, k1, err := canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	c2, k2, err := canonicalize(twin)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || c1.Name != c2.Name {
		t.Fatalf("equivalence class split: %q vs %q (keys %q vs %q)", c1.Name, c2.Name, k1, k2)
	}
	if !reflect.DeepEqual(c1.Procs, c2.Procs) {
		t.Fatalf("canonical programs differ:\n%v\n%v", c1.Procs, c2.Procs)
	}
	// Canonicalization is a fixpoint.
	c3, k3, err := canonicalize(c1)
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 || !reflect.DeepEqual(c3.Procs, c1.Procs) {
		t.Fatalf("canonical form is not a fixpoint")
	}
}

// FuzzLitmusParse checks that canonicalization is a fixpoint on any test
// Parse accepts: re-parsing the canonical test and canonicalizing it again
// gives the same class key. Tests with pinned locations, init values or
// observes are outside canonicalize's domain and are skipped.
func FuzzLitmusParse(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lt, err := Parse(data)
		if err != nil || len(lt.Locations) > 0 || len(lt.Init) > 0 || len(lt.Observe) > 0 {
			return
		}
		canon, key, err := canonicalize(lt)
		if err != nil {
			t.Fatalf("canonicalize of a parsed test: %v", err)
		}
		enc, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical test does not parse: %v\n%s", err, enc)
		}
		_, key2, err := canonicalize(back)
		if err != nil {
			t.Fatalf("canonicalize of the canonical test: %v", err)
		}
		if key2 != key {
			t.Fatalf("canonical form is not a fixpoint:\n first %q\nsecond %q", key, key2)
		}
	})
}

// TestCanonicalizeClassifiesLocks: a block touched by lock ops keeps one
// identity even when it also carries plain reads/writes (the lock-data
// pattern), and barriers stay barriers.
func TestCanonicalizeClassifiesLocks(t *testing.T) {
	lt := &Test{Name: "a", Procs: [][]Stmt{
		{{Op: "write-lock", Loc: "m"}, {Op: "write", Loc: "m", Val: 5}, {Op: "unlock", Loc: "m"}, {Op: "barrier", Loc: "bb"}},
		{{Op: "barrier", Loc: "bb"}, {Op: "read-lock", Loc: "m"}, {Op: "read", Loc: "m"}, {Op: "unlock", Loc: "m"}},
	}}
	c, _, err := canonicalize(lt)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmts := range c.Procs {
		for _, s := range stmts {
			switch s.Op {
			case "read-lock", "write-lock", "unlock", "write", "read":
				if s.Loc != "l" {
					t.Fatalf("lock block renamed to %q, want l", s.Loc)
				}
			case "barrier":
				if s.Loc != "b" {
					t.Fatalf("barrier renamed to %q, want b", s.Loc)
				}
			}
		}
	}
}

// TestCanonicalizeRejectsPinned: tests with explicit placement, init, or
// observes are outside the generator's shape and must be refused rather
// than silently mangled.
func TestCanonicalizeRejectsPinned(t *testing.T) {
	lt := &Test{Name: "a", Init: map[string]uint64{"x": 1},
		Procs: [][]Stmt{{{Op: "read-global", Loc: "x"}}}}
	if _, _, err := canonicalize(lt); err == nil {
		t.Fatal("canonicalize accepted a test with Init")
	}
}

// TestFarmDeterministic: the accepted corpus is a pure function of the
// campaign parameters — worker count must not change a single byte.
func TestFarmDeterministic(t *testing.T) {
	opts := FarmOptions{Rng: 99, Count: 40}
	opts.Workers = 1
	_, corpus1, err := Farm(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	_, corpus4, err := Farm(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(corpus1)
	j4, _ := json.Marshal(corpus4)
	if string(j1) != string(j4) {
		t.Fatalf("farm output depends on worker count:\n1 worker: %d tests\n4 workers: %d tests",
			len(corpus1), len(corpus4))
	}
	if len(corpus1) == 0 {
		t.Fatal("40-candidate campaign accepted nothing")
	}
	for _, lt := range corpus1 {
		if len(lt.Coverage) == 0 {
			t.Errorf("%s: accepted with empty coverage vector", lt.Name)
		}
		if len(lt.Allowed) == 0 {
			t.Errorf("%s: accepted without a pinned allowed set", lt.Name)
		}
	}
}

// TestWriteGeneratedCorpus: writing replaces stale generated files and
// the written files round-trip through Parse.
func TestWriteGeneratedCorpus(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "gdeadbeef0000.json")
	if err := os.WriteFile(stale, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []*Test{{Name: "gtest00000000", Procs: [][]Stmt{{{Op: "read-global", Loc: "x"}}}}}
	if err := WriteGeneratedCorpus(dir, tests); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale generated file survived: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "gtest00000000.json"))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name != "gtest00000000" {
		t.Fatalf("round-trip name %q", rt.Name)
	}
}

// TestGeneratedCorpusReplay is the CI gate on the committed farm corpus:
// at least 200 canonical tests, every §2 axiom family covered, and each
// test still (a) canonical under today's canonicalization, (b) pinned to
// today's allowed set (checked inside RunTuned), (c) tagged with today's
// coverage vector, and (d) clean under simulator cross-validation.
func TestGeneratedCorpusReplay(t *testing.T) {
	gen, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	if len(gen) < 200 {
		t.Fatalf("generated corpus has %d tests, want >= 200", len(gen))
	}

	// Axiom coverage over the whole corpus: hand-written vectors are
	// recomputed, generated ones recomputed below per test.
	counts := map[string]int{}
	hand, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range hand {
		cov, err := CoverageVector(lt)
		if err != nil {
			t.Fatalf("%s: coverage: %v", lt.Name, err)
		}
		if !equalKeys(cov, lt.Coverage) {
			t.Errorf("%s: stored coverage %v, computed %v", lt.Name, lt.Coverage, cov)
		}
		for _, ax := range cov {
			counts[ax]++
		}
	}

	replay := gen
	if testing.Short() {
		replay = gen[:40]
	}
	for _, lt := range gen {
		for _, ax := range lt.Coverage {
			counts[ax]++
		}
	}
	for _, ax := range Axioms {
		if counts[ax] == 0 {
			t.Errorf("axiom family %q has no covering test in the corpus", ax)
		}
	}

	for _, lt := range replay {
		canon, _, err := canonicalize(lt)
		if err != nil {
			t.Errorf("%s: canonicalize: %v", lt.Name, err)
			continue
		}
		if canon.Name != lt.Name || !reflect.DeepEqual(canon.Procs, lt.Procs) {
			t.Errorf("%s: not in canonical form (canonicalizes to %s)", lt.Name, canon.Name)
		}
		cov, err := CoverageVector(lt)
		if err != nil {
			t.Errorf("%s: coverage: %v", lt.Name, err)
			continue
		}
		if !equalKeys(cov, lt.Coverage) {
			t.Errorf("%s: stored coverage %v, computed %v", lt.Name, lt.Coverage, cov)
		}
		rep, err := RunTuned(lt, Seeds(8), bccheck.Tuning{})
		if err != nil {
			t.Errorf("%s: run: %v", lt.Name, err)
			continue
		}
		if !rep.Ok() {
			t.Errorf("%s: replay failed: violations=%v asserts=%v", lt.Name, rep.Violations, rep.AssertFailures)
		}
	}
}
