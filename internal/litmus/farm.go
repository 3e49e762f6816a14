package litmus

// The litmus farm: a bulk campaign over the fuzzer's generator that grows
// a persisted, deduplicated, axiom-tagged corpus instead of hunting for a
// single violation. Each candidate is cross-validated (machine vs. model),
// tagged with its axiom-coverage vector, shrunk while preserving that
// vector, and canonicalized under processor permutation and location/value
// renaming, so the campaign keeps one representative per behavioral
// equivalence class. Accepted tests pin their exact allowed set, letting
// CI replay detect model drift in either direction.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssmp/internal/bccheck"
)

// FarmOptions configures a farm campaign.
type FarmOptions struct {
	// Rng seeds the campaign; candidate i derives its own generator state
	// from (Rng, i), so results are independent of worker count.
	Rng uint64
	// Count bounds the number of candidates when Budget is zero
	// (default 400).
	Count int
	// Budget bounds the wall-clock time; when set it overrides Count.
	Budget time.Duration
	// Workers is the number of concurrent candidate pipelines (default 4).
	Workers int
	// Seeds is the jitter sweep for cross-validation (default Seeds(16)).
	Seeds []uint64
	// Tuning is passed to the enumerator for cross-validation runs.
	Tuning bccheck.Tuning
	// MaxStates caps the strict enumeration of an accepted test (default
	// 20000): candidates beyond it are skipped so replaying the corpus
	// stays cheap. Coverage ablations are separately capped by
	// coverageMaxStates.
	MaxStates int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// FarmStats summarizes a campaign.
type FarmStats struct {
	// Candidates counts programs generated.
	Candidates int
	// Skipped counts candidates abandoned at a state limit (strict run,
	// acceptance cap, or a coverage ablation).
	Skipped int
	// Uncovered counts candidates discarded for an empty coverage vector:
	// no §2 axiom is load-bearing for their allowed set.
	Uncovered int
	// Duplicates counts candidates whose canonical form was already
	// accepted.
	Duplicates int
	// Accepted is the number of surviving tests.
	Accepted int
	// States totals abstract states across strict enumerations.
	States int
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
	// Coverage counts accepted tests per axiom family.
	Coverage map[string]int
	// Failure is set when a candidate's simulator run escaped the
	// axiomatic allowed set — a soundness bug, reported shrunk.
	Failure *FuzzFailure
}

// Summary renders the campaign's one-line result.
func (st *FarmStats) Summary() string {
	var cov []string
	for _, ax := range Axioms {
		cov = append(cov, fmt.Sprintf("%s:%d", ax, st.Coverage[ax]))
	}
	return fmt.Sprintf("farm: %d candidates -> %d accepted (%d skipped, %d uncovered, %d duplicates) in %s; coverage %s",
		st.Candidates, st.Accepted, st.Skipped, st.Uncovered, st.Duplicates,
		st.Elapsed.Round(time.Millisecond), strings.Join(cov, " "))
}

// farmSeed derives candidate i's generator seed from the campaign seed
// with a splitmix64 step, so neighboring candidates are uncorrelated and
// the derivation is independent of worker scheduling.
func farmSeed(campaign uint64, i int) int64 {
	z := campaign + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// FarmCandidate returns candidate i of the campaign seeded rng: the
// generated program a farm run cross-validates, tags and shrinks.
func FarmCandidate(rng uint64, i int) *Test {
	return generate(rand.New(rand.NewSource(farmSeed(rng, i))), i)
}

// Farm runs a campaign and returns the accepted corpus sorted by name.
// The corpus content is a pure function of (Rng, Count, Seeds, MaxStates):
// worker count and scheduling affect only throughput, and under a Budget
// only how many candidates are reached.
func Farm(ctx context.Context, o FarmOptions) (*FarmStats, []*Test, error) {
	seeds := o.Seeds
	if len(seeds) == 0 {
		seeds = Seeds(16)
	}
	count := o.Count
	if o.Budget == 0 && count == 0 {
		count = 400
	}
	maxStates := o.MaxStates
	if maxStates == 0 {
		maxStates = 20_000
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	logf := o.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	start := time.Now()
	st := &FarmStats{Coverage: map[string]int{}}
	byKey := map[string]*Test{}
	var (
		mu      sync.Mutex
		next    atomic.Int64
		stop    atomic.Bool
		failIdx = -1
		runErr  error
	)
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fail := func(i int, f *FuzzFailure, err error) {
		mu.Lock()
		if err != nil && runErr == nil {
			runErr = err
		}
		if f != nil && (failIdx < 0 || i < failIdx) {
			failIdx, st.Failure = i, f
		}
		mu.Unlock()
		stop.Store(true)
		cancel()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && fctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if o.Budget > 0 {
					if time.Since(start) >= o.Budget {
						return
					}
				} else if i >= count {
					return
				}
				res := farmOne(i, o.Rng, seeds, o.Tuning, maxStates)
				mu.Lock()
				st.Candidates++
				st.States += res.states
				switch {
				case res.err != nil:
					mu.Unlock()
					fail(i, res.failure, res.err)
					continue
				case res.failure != nil:
					mu.Unlock()
					fail(i, res.failure, nil)
					continue
				case res.skipped:
					st.Skipped++
				case res.uncovered:
					st.Uncovered++
				case byKey[res.key] != nil:
					st.Duplicates++
				default:
					byKey[res.key] = res.test
					st.Accepted++
					for _, ax := range res.test.Coverage {
						st.Coverage[ax]++
					}
				}
				if st.Candidates%100 == 0 {
					logf("farm: %d candidates, %d accepted, %d dup, %s elapsed",
						st.Candidates, st.Accepted, st.Duplicates, time.Since(start).Round(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.Elapsed = time.Since(start)

	if runErr != nil {
		return st, nil, runErr
	}
	tests := make([]*Test, 0, len(byKey))
	for _, t := range byKey {
		tests = append(tests, t)
	}
	sort.Slice(tests, func(i, j int) bool { return tests[i].Name < tests[j].Name })
	logf("%s", st.Summary())
	return st, tests, nil
}

// farmResult is one candidate's pipeline outcome.
type farmResult struct {
	test      *Test
	key       string
	states    int
	skipped   bool
	uncovered bool
	failure   *FuzzFailure
	err       error
}

// farmOne runs the full per-candidate pipeline: generate, cross-validate,
// coverage-tag, shrink preserving the vector, canonicalize, pin.
func farmOne(i int, campaign uint64, seeds []uint64, tune bccheck.Tuning, maxStates int) farmResult {
	t := FarmCandidate(campaign, i)
	rep, err := RunTuned(t, seeds, tune)
	if err != nil {
		if errors.Is(err, bccheck.ErrStateLimit) {
			return farmResult{skipped: true}
		}
		return farmResult{err: fmt.Errorf("farm candidate %d: %w", i, err)}
	}
	if len(rep.Violations) > 0 {
		shrunk := shrink(t, func(c *Test) bool {
			r, err := RunTuned(c, seeds, tune)
			return err == nil && len(r.Violations) > 0
		})
		srep, err := RunTuned(shrunk, seeds, tune)
		if err != nil {
			return farmResult{err: fmt.Errorf("farm: re-running shrunk candidate %d: %w", i, err)}
		}
		return farmResult{states: rep.States,
			failure: &FuzzFailure{Test: t, Report: rep, Shrunk: shrunk, ShrunkReport: srep}}
	}
	if rep.States > maxStates {
		return farmResult{states: rep.States, skipped: true}
	}
	cov, err := CoverageVector(t)
	if err != nil {
		if errors.Is(err, bccheck.ErrStateLimit) {
			return farmResult{states: rep.States, skipped: true}
		}
		return farmResult{err: fmt.Errorf("farm candidate %d coverage: %w", i, err)}
	}
	if len(cov) == 0 {
		return farmResult{states: rep.States, uncovered: true}
	}
	// Shrink while the coverage vector is preserved exactly: the minimal
	// program that still exercises the same axiom families.
	shrunk := shrink(t, func(c *Test) bool {
		cv, err := CoverageVector(c)
		return err == nil && equalKeys(cv, cov)
	})
	canon, key, err := canonicalize(shrunk)
	if err != nil {
		return farmResult{err: fmt.Errorf("farm candidate %d canonicalize: %w", i, err)}
	}
	// Re-validate the canonical form and pin its exact allowed set. Its
	// coverage vector equals the shrunk test's up to renaming, but it is
	// recomputed so the stored tag is self-consistent by construction.
	crep, err := RunTuned(canon, seeds, tune)
	if err != nil {
		return farmResult{err: fmt.Errorf("farm candidate %d canonical run: %w", i, err)}
	}
	if len(crep.Violations) > 0 {
		return farmResult{states: rep.States,
			failure: &FuzzFailure{Test: canon, Report: crep, Shrunk: canon, ShrunkReport: crep}}
	}
	ccov, err := CoverageVector(canon)
	if err != nil {
		return farmResult{err: fmt.Errorf("farm candidate %d canonical coverage: %w", i, err)}
	}
	canon.Coverage = ccov
	canon.Allowed = crep.Allowed
	canon.Doc = fmt.Sprintf("Farm-generated; canonical under proc permutation and renaming. Axioms: %s.",
		strings.Join(ccov, ", "))
	return farmResult{test: canon, key: key, states: rep.States}
}

// canonNames is the renaming vocabulary for canonical forms, matching the
// generator's so canonical tests read like hand-written ones.
var canonDataNames = []string{"x", "y", "z", "w", "v", "u"}

// canonicalize rewrites a generated test into the lexicographically least
// member of its equivalence class under (a) processor permutation, (b)
// renaming of data/lock/barrier locations by first occurrence, and (c)
// renaming of written values by first occurrence. The returned key
// identifies the class; the test's deterministic name is derived from it.
// Only structure the generator emits is considered (no Locations pinning,
// Init, or Observe).
func canonicalize(t *Test) (*Test, string, error) {
	if len(t.Locations) > 0 || len(t.Init) > 0 || len(t.Observe) > 0 {
		return nil, "", fmt.Errorf("litmus %s: canonicalize requires a plain generated test", t.Name)
	}
	// Classify locations: any name touched by a lock op is a lock block
	// (it may also carry plain reads/writes — the lock-data pattern);
	// barrier names are disjoint by construction.
	lockLoc := map[string]bool{}
	barLoc := map[string]bool{}
	for _, stmts := range t.Procs {
		for _, s := range stmts {
			switch s.Op {
			case "read-lock", "write-lock", "unlock":
				lockLoc[s.Loc] = true
			case "barrier":
				barLoc[s.Loc] = true
			}
		}
	}

	perms := permutations(len(t.Procs))
	var best *Test
	var bestKey string
	for _, perm := range perms {
		cand, key := renameUnder(t, perm, lockLoc, barLoc)
		if best == nil || key < bestKey {
			best, bestKey = cand, key
		}
	}
	best.Name = "g" + hashName(bestKey)
	if _, err := best.compile(); err != nil {
		return nil, "", err
	}
	return best, bestKey, nil
}

// renameUnder builds the candidate for one processor order: procs are
// emitted in perm order, and locations/values are renamed in order of
// first occurrence in that emission.
func renameUnder(t *Test, perm []int, lockLoc, barLoc map[string]bool) (*Test, string) {
	locMap := map[string]string{}
	valMap := map[uint64]uint64{}
	nData, nLock, nBar := 0, 0, 0
	renLoc := func(name string) string {
		if name == "" {
			return ""
		}
		if r, ok := locMap[name]; ok {
			return r
		}
		var r string
		switch {
		case barLoc[name]:
			r = "b"
			if nBar > 0 {
				r = "b" + strconv.Itoa(nBar)
			}
			nBar++
		case lockLoc[name]:
			r = "l"
			if nLock > 0 {
				r = "l" + strconv.Itoa(nLock)
			}
			nLock++
		default:
			if nData < len(canonDataNames) {
				r = canonDataNames[nData]
			} else {
				r = "d" + strconv.Itoa(nData)
			}
			nData++
		}
		locMap[name] = r
		return r
	}
	renVal := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		if r, ok := valMap[v]; ok {
			return r
		}
		r := uint64(len(valMap) + 1)
		valMap[v] = r
		return r
	}

	c := &Test{Procs: make([][]Stmt, len(perm))}
	var key strings.Builder
	for out, in := range perm {
		stmts := make([]Stmt, len(t.Procs[in]))
		for j, s := range t.Procs[in] {
			ns := Stmt{Op: s.Op, Loc: renLoc(s.Loc)}
			if s.Op == "write" || s.Op == "write-global" {
				ns.Val = renVal(s.Val)
			}
			stmts[j] = ns
			key.WriteString(ns.Op)
			key.WriteByte(' ')
			key.WriteString(ns.Loc)
			key.WriteByte(' ')
			key.WriteString(strconv.FormatUint(ns.Val, 10))
			key.WriteByte(';')
		}
		c.Procs[out] = stmts
		key.WriteByte('|')
	}
	return c, key.String()
}

// hashName folds a canonical key to the 12-hex-digit content name used
// for generated corpus files.
func hashName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])[:12]
}

// permutations returns all orderings of 0..n-1 (n <= 8 in any litmus
// test; the generator emits at most 4 processors).
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}
