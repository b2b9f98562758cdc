package core

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/checkpoint"
)

// capture takes the engine state at a step boundary, after n completed
// steps, where the loop invariants make it minimal: valPrev holds the
// completed values, acc is back at the identity and touched is empty (both
// restored by the apply phase), active is the next frontier, and
// accNext/touchedNext stage BSP's cross-iteration contributions for the next
// iteration (the async schedule never stages any, and writes them at
// identity/empty). The schedule adds its own loop state.
func (e *Engine) capture(n int, s schedule) *checkpoint.State {
	ck := &checkpoint.State{
		Algorithm:   e.prog.Name(),
		NumVertices: e.n,
		P:           e.p,
		Iteration:   n,
		Values:      e.valPrev,
		Aux:         e.aux,
		AccNext:     e.accNext,
		Active:      e.active.Words(),
		TouchedNext: e.touchedNext.Words(),
		Threads:     1, // every run scatters on one goroutine; restore ignores it
	}
	s.capture(ck)
	return ck
}

// restore overwrites the freshly initialised engine state with a loaded
// checkpoint, after validating that it belongs to this schedule, program and
// layout shape. The schedule's start takes its own fields afterwards, and
// the loop re-enters at ck.Iteration.
func (e *Engine) restore(ck *checkpoint.State) error {
	switch {
	case ck.Async && !e.opts.Async:
		return fmt.Errorf("core: checkpoint was taken by the async engine; resume it with Options.Async")
	case !ck.Async && e.opts.Async:
		return fmt.Errorf("core: checkpoint was taken by the BSP engine; cannot resume it under -async")
	}
	if ck.Algorithm != e.prog.Name() {
		return fmt.Errorf("core: checkpoint is for algorithm %q, running %q", ck.Algorithm, e.prog.Name())
	}
	if ck.NumVertices != e.n || ck.P != e.p {
		return fmt.Errorf("core: checkpoint shape %d vertices / P=%d, layout has %d / P=%d",
			ck.NumVertices, ck.P, e.n, e.p)
	}
	if len(ck.Values) != e.n || len(ck.AccNext) != e.n {
		return fmt.Errorf("core: checkpoint arrays sized %d values / %d accumulators, want %d",
			len(ck.Values), len(ck.AccNext), e.n)
	}
	if (ck.Aux == nil) != (e.aux == nil) || len(ck.Aux) != len(e.aux) {
		return fmt.Errorf("core: checkpoint aux state length %d, program %s keeps %d",
			len(ck.Aux), e.prog.Name(), len(e.aux))
	}
	copy(e.valPrev, ck.Values)
	if e.aux != nil {
		copy(e.aux, ck.Aux)
	}
	copy(e.accNext, ck.AccNext)
	if err := e.active.LoadWords(ck.Active); err != nil {
		return fmt.Errorf("core: checkpoint active frontier: %w", err)
	}
	if err := e.touchedNext.LoadWords(ck.TouchedNext); err != nil {
		return fmt.Errorf("core: checkpoint touched set: %w", err)
	}
	return nil
}
