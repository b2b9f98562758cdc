package core

// lumosSchedule runs a Lumos layout (partition.BuildLumos), the second of the
// paper's comparison systems (Vora, ATC '19; not open source, so this is its
// published behaviour as the GraphSD paper summarises it).
//
// Lumos performs dependency-driven out-of-order execution, which is GraphSD's
// FCIU pass without the state half: one physical pass over the grid
// ("lumos-1", runPass(fciuFirstCells)) computes iteration t for every vertex
// and proactively propagates iteration t+1 values along every edge whose
// source interval is updated before its destination interval — the upper
// triangle plus the diagonal. The following pass ("lumos-2",
// fciuSecondCells) therefore reads only the lower-triangle cells. With a
// single iteration left in the budget it runs a plain full pass
// ("lumos-full", fullCells). Unlike GraphSD, Lumos is not state-aware: the
// engine counts every row live (Engine.allLive), so a pass reads every cell it
// is due however few vertices are active and pays every interval's values both
// ways, and NewEngine leaves it no buffer for the twice-read cells — exactly
// the I/O gap Figures 5 and 7 measure. It makes no decision, so measured is a
// no-op.
type lumosSchedule struct {
	bspSchedule
}

func (l *lumosSchedule) step(iter int, st *IterStat) error {
	e := l.e
	e.promote()
	var err error
	switch {
	case l.secondaryPending:
		st.Path = "lumos-2"
		err = e.runPass(fciuSecondCells)
		l.secondaryPending = false
	case iter+1 >= l.maxIter:
		st.Path = "lumos-full"
		err = e.runPass(fullCells)
	default:
		st.Path = "lumos-1"
		err = e.runPass(fciuFirstCells)
		l.secondaryPending = !e.newActive.Empty() || !e.touchedNext.Empty()
	}
	if err != nil {
		return err
	}
	e.advance()
	return nil
}

func (l *lumosSchedule) measured(*IterStat) {}
