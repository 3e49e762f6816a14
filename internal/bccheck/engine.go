package bccheck

// The exploration drivers. Two engines share the transition semantics,
// the POR filter, the hash-interned visited set, and the pooled state
// representation:
//
//   - a serial depth-first engine that maintains the canonical path, used
//     when Workers == 1, when witnesses are requested, and to produce
//     deterministic deadlock reports;
//   - a parallel work-stealing frontier engine across N workers with
//     worker-local outcome maps merged at the end.
//
// Both explore the same reduced graph (the ample choice is a function of
// the state), so outcome set, state count, and pruned count are
// bit-identical between them at any worker count.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type engine struct {
	c      *compiled
	vis    *visitedSet
	limit  int64
	states atomic.Int64
	pruned atomic.Int64

	// Parallel-run coordination.
	pending     atomic.Int64
	stop        atomic.Bool
	sawDeadlock atomic.Bool
	failMu      sync.Mutex
	fail        error
}

func newEngine(c *compiled) *engine {
	return &engine{c: c, vis: newVisitedSet(), limit: int64(c.max)}
}

func (e *engine) limitError() error {
	return &StateLimitError{
		States: int(e.states.Load()),
		Limit:  e.c.max,
		Prefix: e.canonicalPrefix(16),
	}
}

// deadlockError renders the serial path to a stuck state.
func (e *engine) deadlockError(path []sdesc) error {
	labels := make([]string, len(path))
	for i := range path {
		labels[i] = e.c.render(&path[i])
	}
	return fmt.Errorf("bccheck: deadlock after: %s", strings.Join(labels, "; "))
}

// canonicalPrefix walks the reduced graph from the initial state taking
// the first transition at every step, rendering up to n labels. It is a
// deterministic sketch of where the exploration's branching lives,
// attached to state-limit errors regardless of which worker tripped the
// cap. Error path only; prune accounting from the walk is discarded by
// the caller.
func (e *engine) canonicalPrefix(n int) []string {
	w := newWorker(e)
	s := e.c.initial(w)
	var out []string
	for len(out) < n {
		var first *mstate
		var fd sdesc
		e.expandReduced(w, s, func(d sdesc, ns *mstate) {
			if first == nil {
				fd, first = d, ns
			} else {
				w.put(ns)
			}
		})
		if first == nil {
			break
		}
		out = append(out, e.c.render(&fd))
		w.put(s)
		s = first
	}
	w.put(s)
	return out
}

// runSerial explores depth-first with an explicit canonical path. The
// first terminal reaching each outcome key defines its witness; the
// first stuck state in canonical order defines the deadlock report.
func (e *engine) runSerial() (map[string]*Outcome, error) {
	w := newWorker(e)
	s0 := e.c.initial(w)
	e.vis.add(w.hash(s0))
	e.states.Store(1)
	var path []sdesc
	var dfs func(s *mstate) error
	dfs = func(s *mstate) error {
		emitted := 0
		var ferr error
		e.expandReduced(w, s, func(d sdesc, ns *mstate) {
			emitted++
			if ferr != nil || !e.vis.add(w.hash(ns)) {
				w.put(ns)
				return
			}
			if e.states.Add(1) > e.limit {
				w.put(ns)
				ferr = e.limitError()
				return
			}
			path = append(path, d)
			ferr = dfs(ns)
			path = path[:len(path)-1]
			w.put(ns)
		})
		if ferr != nil {
			return ferr
		}
		if emitted == 0 {
			if !e.c.quiescent(s) {
				return e.deadlockError(path)
			}
			w.record(s, path)
		}
		return nil
	}
	err := dfs(s0)
	w.put(s0)
	if err != nil {
		return nil, err
	}
	return w.outcomes, nil
}

// pworker is a parallel worker: an exploration context plus a mutex-
// guarded ring deque. The owner pushes and pops at the back (depth-first
// locally, keeping the frontier small); thieves steal from the front,
// taking the shallowest — widest — subtrees.
type pworker struct {
	worker
	mu   sync.Mutex
	ring []item
	head int
	tail int // tail-head = live count; indices are logical, mod len(ring)
}

type item struct{ s *mstate }

func (p *pworker) grow() {
	old := len(p.ring)
	next := make([]item, max(64, old*2))
	for i := p.head; i < p.tail; i++ {
		next[i%len(next)] = p.ring[i%old]
	}
	p.ring = next
}

func (p *pworker) pushBack(it item) {
	p.mu.Lock()
	if len(p.ring) == 0 || p.tail-p.head == len(p.ring) {
		p.grow()
	}
	p.ring[p.tail%len(p.ring)] = it
	p.tail++
	p.mu.Unlock()
}

func (p *pworker) popBack() (item, bool) {
	p.mu.Lock()
	if p.tail == p.head {
		p.mu.Unlock()
		return item{}, false
	}
	p.tail--
	it := p.ring[p.tail%len(p.ring)]
	p.mu.Unlock()
	return it, true
}

func (p *pworker) popFront() (item, bool) {
	p.mu.Lock()
	if p.tail == p.head {
		p.mu.Unlock()
		return item{}, false
	}
	it := p.ring[p.head%len(p.ring)]
	p.head++
	p.mu.Unlock()
	return it, true
}

func (e *engine) failWith(err error) {
	e.failMu.Lock()
	if e.fail == nil {
		e.fail = err
	}
	e.failMu.Unlock()
	e.stop.Store(true)
}

// runParallel explores the frontier across nw workers. Workers expand
// from their own deque backs and steal from others' fronts; a global
// pending counter (items pushed but not yet fully expanded) detects
// termination. Outcome maps are worker-local and merged by key, which is
// deterministic because an outcome's content is exactly its key.
func (e *engine) runParallel(nw int) (map[string]*Outcome, error) {
	ws := make([]*pworker, nw)
	for i := range ws {
		ws[i] = &pworker{worker: worker{e: e, outcomes: make(map[string]*Outcome)}}
	}
	s0 := e.c.initial(&ws[0].worker)
	e.vis.add(ws[0].hash(s0))
	e.states.Store(1)
	e.pending.Store(1)
	ws[0].pushBack(item{s: s0})

	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			e.workLoop(self, ws)
		}(i)
	}
	wg.Wait()
	if e.fail != nil {
		return nil, e.fail
	}
	merged := ws[0].outcomes
	for _, w := range ws[1:] {
		for k, o := range w.outcomes {
			if _, ok := merged[k]; !ok {
				merged[k] = o
			}
		}
	}
	return merged, nil
}

func (e *engine) workLoop(self int, ws []*pworker) {
	w := ws[self]
	idle := 0
	for {
		if e.stop.Load() {
			return
		}
		it, ok := w.popBack()
		for j := 1; !ok && j < len(ws); j++ {
			it, ok = ws[(self+j)%len(ws)].popFront()
		}
		if !ok {
			if e.pending.Load() == 0 {
				return
			}
			if idle++; idle > 64 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		e.expandItem(w, it.s)
		e.pending.Add(-1)
	}
}

func (e *engine) expandItem(w *pworker, s *mstate) {
	emitted := 0
	e.expandReduced(&w.worker, s, func(d sdesc, ns *mstate) {
		emitted++
		if e.stop.Load() || !e.vis.add(w.hash(ns)) {
			w.put(ns)
			return
		}
		if e.states.Add(1) > e.limit {
			w.put(ns)
			e.failWith(e.limitError())
			return
		}
		e.pending.Add(1)
		w.pushBack(item{s: ns})
	})
	if emitted == 0 {
		if !e.c.quiescent(s) {
			// Record that a deadlock exists and let the caller rerun the
			// serial engine for the canonical, deterministic report.
			e.sawDeadlock.Store(true)
			e.stop.Store(true)
		} else {
			w.record(s, nil)
		}
	}
	w.put(s)
}

func (e *engine) result(out map[string]*Outcome) *Result {
	res := &Result{
		States: int(e.states.Load()),
		Pruned: int(e.pruned.Load()),
	}
	for _, o := range out {
		res.Outcomes = append(res.Outcomes, *o)
	}
	sortOutcomes(res.Outcomes)
	return res
}

// enumerate runs the exploration engine per the compiled tuning. Witness
// mode forces the serial engine: witnesses are defined as the canonical
// DFS's first path to each outcome, so they are identical however the
// non-witness exploration was parallelized.
func (c *compiled) enumerate() (*Result, error) {
	nw := c.tune.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if c.wit {
		nw = 1
	}
	if nw > 1 {
		e := newEngine(c)
		out, err := e.runParallel(nw)
		if e.sawDeadlock.Load() {
			// Fall through to a fresh serial run for the canonical error.
		} else if err != nil {
			return nil, err
		} else {
			return e.result(out), nil
		}
	}
	e := newEngine(c)
	out, err := e.runSerial()
	if err != nil {
		return nil, err
	}
	return e.result(out), nil
}
