//go:build go1.23

// The go1.23 constraint gives this file the language version iter.Pull
// needs while the module's go directive stays at 1.22.

package core

import (
	"fmt"
	"iter"

	"ssmp/internal/mem"
)

// start wraps the program in a coroutine and schedules its first step. The
// coroutine body runs only when the first step resumes it; a run aborted
// before then stops it without ever entering the program.
func (p *Proc) start(prog Program) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, aborted := r.(abortSignal); !aborted {
					p.err = r
				}
			}
			p.done = true
			p.stats.Finished = p.eng.Now()
		}()
		prog(p)
		// Replay any trailing local time so the completion cycle (and
		// Result.Cycles) includes it.
		p.sync()
	})
	p.eng.AtStep(0, p, 0)
}

// step resumes the program with w and returns when it blocks on its next
// operation (or finishes). Called from the event loop only.
func (p *Proc) step(w mem.Word) {
	if p.done {
		panic(fmt.Sprintf("core: step on finished processor %d", p.id))
	}
	p.w = w
	p.next()
}

// wait suspends the program until the event loop steps it, and returns the
// word the step carried. Called from the program only. When the run is
// abandoned the coroutine is stopped instead: yield returns false and the
// program unwinds through an abortSignal panic.
func (p *Proc) wait() mem.Word {
	if !p.yield(struct{}{}) {
		panic(abortSignal{})
	}
	return p.w
}
