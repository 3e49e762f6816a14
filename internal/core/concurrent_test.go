package core_test

import (
	"sync"
	"testing"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/workload"
)

// TestConcurrentMachinesMatchSerial runs a batch of independent machines
// in parallel and asserts every result is bit-identical to the same
// configuration run serially. This is the safety property ssmpd's worker
// pool rests on: machines share no mutable state, so running them on
// concurrent goroutines (each machine itself an event loop and its
// processors' coroutines) must not perturb determinism. Run under -race this also
// checks for accidental sharing.
func TestConcurrentMachinesMatchSerial(t *testing.T) {
	type job struct {
		procs   int
		proto   core.Protocol
		cons    core.Consistency
		backoff bool
		seed    uint64
	}
	var jobs []job
	for _, procs := range []int{2, 4, 8} {
		for _, proto := range []core.Protocol{core.ProtoCBL, core.ProtoWBI} {
			cons := core.SC
			if proto == core.ProtoCBL {
				cons = core.BC
			}
			jobs = append(jobs, job{procs, proto, cons, false, uint64(procs)})
		}
	}
	// Duplicates in the same parallel batch: identical jobs racing each
	// other is exactly the cache-miss stampede shape.
	jobs = append(jobs, jobs[0], jobs[1])

	run := func(j job) (core.Result, error) {
		cfg := core.DefaultConfig(j.procs)
		cfg.Protocol = j.proto
		cfg.Consistency = j.cons
		p := workload.DefaultParams()
		p.Grain = workload.FineGrain
		layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: j.procs}, p)
		var kit workload.SyncKit
		if j.proto == core.ProtoCBL {
			kit = workload.CBLKit(layout, j.procs)
		} else {
			kit = workload.WBIKit(layout, j.procs, j.backoff)
		}
		progs, _ := workload.WorkQueue(j.procs, 32, 0.1, p, layout, kit, j.seed)
		return core.NewMachine(cfg).Run(progs)
	}

	serial := make([]core.Result, len(jobs))
	for i, j := range jobs {
		res, err := run(j)
		if err != nil {
			t.Fatalf("serial job %d (%+v): %v", i, j, err)
		}
		serial[i] = res
	}

	const rounds = 3 // repeat to give the scheduler chances to interleave
	for round := 0; round < rounds; round++ {
		parallel := make([]core.Result, len(jobs))
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			i, j := i, j
			wg.Add(1)
			go func() {
				defer wg.Done()
				parallel[i], errs[i] = run(j)
			}()
		}
		wg.Wait()
		for i := range jobs {
			if errs[i] != nil {
				t.Fatalf("round %d job %d: %v", round, i, errs[i])
			}
			if parallel[i] != serial[i] {
				t.Fatalf("round %d job %d (%+v) diverged under concurrency:\n serial   %+v\n parallel %+v",
					round, i, jobs[i], serial[i], parallel[i])
			}
		}
	}
}
