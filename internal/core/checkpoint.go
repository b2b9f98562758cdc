package core

import (
	"fmt"

	"github.com/graphsd/graphsd/internal/checkpoint"
)

// saveCheckpoint persists the engine state at the bottom of the iteration
// loop, where the BSP invariants make the capture minimal: valPrev holds the
// completed iteration's values, acc is back at the identity and touched is
// empty (both restored by the apply phase), active is the next frontier, and
// accNext/touchedNext stage the cross-iteration contributions for the next
// iteration. iter is the number of completed iterations.
func (e *Engine) saveCheckpoint(dir string, iter int, secondaryPending bool) error {
	st := &checkpoint.State{
		Algorithm:        e.prog.Name(),
		NumVertices:      e.n,
		P:                e.p,
		Iteration:        iter,
		SecondaryPending: secondaryPending,
		Values:           e.valPrev,
		Aux:              e.aux,
		AccNext:          e.accNext,
		Active:           e.active.Words(),
		TouchedNext:      e.touchedNext.Words(),
		Threads:          e.threads,
	}
	return checkpoint.Save(dir, st)
}

// restoreCheckpoint overwrites the freshly initialised engine state with a
// loaded checkpoint, after validating that it belongs to this program and
// layout shape. The caller re-enters the loop at st.Iteration; acc/touched
// already satisfy the loop invariant (identity/empty) from NewEngine.
func (e *Engine) restoreCheckpoint(st *checkpoint.State) error {
	if st.Async {
		return fmt.Errorf("core: checkpoint was taken by the async engine; resume it with Options.Async")
	}
	if st.Algorithm != e.prog.Name() {
		return fmt.Errorf("core: checkpoint is for algorithm %q, running %q", st.Algorithm, e.prog.Name())
	}
	if st.NumVertices != e.n || st.P != e.p {
		return fmt.Errorf("core: checkpoint shape %d vertices / P=%d, layout has %d / P=%d",
			st.NumVertices, st.P, e.n, e.p)
	}
	if len(st.Values) != e.n || len(st.AccNext) != e.n {
		return fmt.Errorf("core: checkpoint arrays sized %d values / %d accumulators, want %d",
			len(st.Values), len(st.AccNext), e.n)
	}
	if (st.Aux == nil) != (e.aux == nil) || len(st.Aux) != len(e.aux) {
		return fmt.Errorf("core: checkpoint aux state length %d, program %s keeps %d",
			len(st.Aux), e.prog.Name(), len(e.aux))
	}
	copy(e.valPrev, st.Values)
	copy(e.valCur, st.Values)
	if e.aux != nil {
		copy(e.aux, st.Aux)
	}
	copy(e.accNext, st.AccNext)
	if err := e.active.LoadWords(st.Active); err != nil {
		return fmt.Errorf("core: checkpoint active frontier: %w", err)
	}
	if err := e.touchedNext.LoadWords(st.TouchedNext); err != nil {
		return fmt.Errorf("core: checkpoint touched set: %w", err)
	}
	e.adoptThreads(st.Threads)
	return nil
}

// adoptThreads makes a resumed run scatter on as many threads as the run
// that wrote the checkpoint, whatever Options.Threads resolves to here: the
// parallel reduce associates a sum by thread count, and a resume must not
// change the bits. Checkpoints from before the count was recorded carry 0.
func (e *Engine) adoptThreads(recorded int) {
	if recorded > 0 {
		e.threads = recorded
	}
}
