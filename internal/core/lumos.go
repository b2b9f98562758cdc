package core

import (
	"github.com/graphsd/graphsd/internal/graph"
	"github.com/graphsd/graphsd/internal/storage"
)

// lumosSchedule runs a Lumos layout (partition.BuildLumos), the second of the
// paper's comparison systems (Vora, ATC '19; not open source, so this is its
// published behaviour as the GraphSD paper summarises it).
//
// Lumos performs dependency-driven out-of-order execution: one physical pass
// over the grid ("lumos-1") computes iteration t for every vertex and
// proactively propagates iteration t+1 values along every edge whose source
// interval is updated before its destination interval — the upper triangle
// plus the diagonal. The following pass ("lumos-2") therefore reads only the
// lower-triangle cells. With a single iteration left in the budget it runs a
// plain full pass ("lumos-full"). Unlike GraphSD, Lumos is not state-aware:
// it streams every cell a pass is due, however few vertices are active, pays
// every interval's values both ways each pass, and does not buffer the
// twice-read cells — exactly the I/O gap Figures 5 and 7 measure. It makes no
// decision, so measured is a no-op.
type lumosSchedule struct {
	bspSchedule

	// Off-diagonal cells decode into one reused pair. The diagonal has its
	// own, because its edges stay live past the column (scattered again after
	// the column's apply) while off-diagonal loads keep reusing the first.
	cell, diag   []graph.Edge
	buf, diagBuf []byte
}

// everyInterval is Lumos's value traffic: all of it, every pass.
func everyInterval(int) bool { return true }

func (l *lumosSchedule) step(iter int, st *IterStat) error {
	e := l.e
	e.promote()
	e.layout.ChargeValues(storage.SeqRead, everyInterval)
	var err error
	switch {
	case l.secondaryPending:
		st.Path = "lumos-2"
		err = l.stream(true)
		l.secondaryPending = false
	case iter+1 >= l.maxIter:
		st.Path = "lumos-full"
		err = l.stream(false)
	default:
		st.Path = "lumos-1"
		err = l.outOfOrder()
		l.secondaryPending = !e.newActive.Empty() || !e.touchedNext.Empty()
	}
	if err != nil {
		return err
	}
	e.layout.ChargeValues(storage.SeqWrite, everyInterval)
	e.advance()
	return nil
}

func (l *lumosSchedule) measured(*IterStat) {}

// stream scatters the due cells of each column and applies it: the lower
// triangle alone (the second half of an out-of-order pass) or every cell.
func (l *lumosSchedule) stream(lower bool) error {
	e := l.e
	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		first := 0
		if lower {
			first = j + 1
		}
		for i := first; i < e.p; i++ {
			var err error
			if l.cell, l.buf, err = e.layout.LoadSubBlockInto(i, j, l.cell, l.buf); err != nil {
				return err
			}
			e.scatter(l.cell, e.valPrev, e.active, e.acc, e.touched, lo, hi)
		}
		e.applyBSP(j)
	}
	return nil
}

// outOfOrder is the full out-of-order pass: iteration t from every cell, and
// t+1 staged from the cells above the diagonal as they are read and from the
// diagonal once its column is applied.
func (l *lumosSchedule) outOfOrder() error {
	e := l.e
	for j := 0; j < e.p; j++ {
		lo, hi := e.layout.Meta.Interval(j)
		for i := 0; i < e.p; i++ {
			cell, buf := &l.cell, &l.buf
			if i == j {
				cell, buf = &l.diag, &l.diagBuf
			}
			var err error
			if *cell, *buf, err = e.layout.LoadSubBlockInto(i, j, *cell, *buf); err != nil {
				return err
			}
			e.scatter(*cell, e.valPrev, e.active, e.acc, e.touched, lo, hi)
			if i < j {
				e.scatter(*cell, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
			}
		}
		e.applyBSP(j)
		e.scatter(l.diag, e.valCur, e.newActive, e.accNext, e.touchedNext, lo, hi)
	}
	return nil
}
