package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ssmp/internal/mem"
)

// spinProgs returns programs that never finish: each processor ping-pongs a
// shared word forever. Used to exercise the early-exit paths.
func spinProgs(nodes int) []Program {
	progs := make([]Program, nodes)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for {
				p.SharedWrite(0, p.SharedRead(0)+1)
			}
		}
	}
	return progs
}

// eachEngine runs an unwind case on the serial engine and on two lane
// workers, where aborted programs are stopped from the run's caller after
// lane workers have been resuming them.
func eachEngine(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, w := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.SimWorkers = w
			f(t, cfg)
		})
	}
}

// TestRunContextCancelUnwindsCleanly cancels mid-run, from inside a
// program, while every processor is suspended in or between operations.
func TestRunContextCancelUnwindsCleanly(t *testing.T) {
	eachEngine(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		progs := spinProgs(4)
		progs[0] = func(p *Proc) {
			for i := 0; ; i++ {
				if i == 50 {
					cancel()
				}
				p.SharedWrite(0, p.SharedRead(0)+1)
			}
		}
		_, err := NewMachine(cfg).RunContext(ctx, progs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		waitGoroutines(t, before)
	})
}

// TestAbortBeforeFirstStepUnwindsCleanly aborts a run before any processor
// has been resumed: the interrupt is polled ahead of the first event, so no
// program is ever entered, and stopping the never-started coroutines must
// still reclaim them.
func TestAbortBeforeFirstStepUnwindsCleanly(t *testing.T) {
	eachEngine(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		entered := make([]bool, cfg.Nodes)
		progs := make([]Program, cfg.Nodes)
		for i := range progs {
			progs[i] = func(p *Proc) {
				entered[p.Id()] = true
				p.Barrier(0, cfg.Nodes)
			}
		}
		m := NewMachine(cfg)
		if _, err := m.RunContext(ctx, progs); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		for i, e := range entered {
			if e {
				t.Errorf("processor %d entered its program after the run was cancelled", i)
			}
			if m.Proc(i).done {
				t.Errorf("processor %d marked finished though it never ran", i)
			}
		}
		waitGoroutines(t, before)
	})
}

func TestRunContextDeadlineUnwindsCleanly(t *testing.T) {
	eachEngine(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_, err := NewMachine(cfg).RunContext(ctx, spinProgs(4))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
		waitGoroutines(t, before)
	})
}

func TestHorizonUnwindsCleanly(t *testing.T) {
	eachEngine(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		cfg.Horizon = 10_000
		if _, err := NewMachine(cfg).Run(spinProgs(4)); err == nil {
			t.Fatal("want horizon error, got nil")
		}
		waitGoroutines(t, before)
	})
}

func TestDeadlockUnwindsCleanly(t *testing.T) {
	eachEngine(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		progs := make([]Program, cfg.Nodes)
		progs[0] = func(p *Proc) {
			p.WriteLock(0)
			// Never unlocks; processor 1 blocks forever.
		}
		progs[1] = func(p *Proc) {
			p.Think(100)
			p.WriteLock(0)
		}
		_, err := NewMachine(cfg).Run(progs)
		var dl *ErrDeadlock
		if !errors.As(err, &dl) {
			t.Fatalf("want ErrDeadlock, got %v", err)
		}
		if len(dl.Stuck) != 1 || dl.Stuck[0] != 1 {
			t.Fatalf("stuck = %v, want [1]", dl.Stuck)
		}
		waitGoroutines(t, before)
	})
}

// TestProgramPanicReported panics one program mid-run while the others wait
// for it at a barrier: the run reports the panic, not the deadlock it left
// behind, and the waiting programs are unwound through their defers.
func TestProgramPanicReported(t *testing.T) {
	eachEngine(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		unwound := make([]bool, cfg.Nodes)
		progs := make([]Program, cfg.Nodes)
		for i := range progs {
			progs[i] = func(p *Proc) {
				p.SharedWrite(mem.Addr(64*p.Id()), 1)
				if p.Id() == 2 {
					panic("boom")
				}
				defer func() { unwound[p.Id()] = true }()
				p.Barrier(0, cfg.Nodes)
			}
		}
		_, err := NewMachine(cfg).Run(progs)
		if err == nil || !strings.Contains(err.Error(), "core: processor 2 panicked: boom") {
			t.Fatalf("want processor 2's panic, got %v", err)
		}
		for i, u := range unwound {
			if i != 2 && !u {
				t.Errorf("processor %d was not unwound", i)
			}
		}
		waitGoroutines(t, before)
	})
}

// waitGoroutines asserts the goroutine count returns to its pre-run level
// (allowing scheduler slack: lane workers exit asynchronously after the
// run).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
