package core

import (
	"github.com/graphsd/graphsd/internal/checkpoint"
	"github.com/graphsd/graphsd/internal/iosched"
)

// schedule is what differs between the ways Engine.run's loop can be driven:
// bspSchedule (the paper's Algorithm 1, one iteration per step), asyncRun
// (Options.Async, one popped grid row per step) and the comparison systems'
// iterations, husSchedule and lumosSchedule. Everything else —
// set-up, resume, the step bound, per-step statistics, the OnIteration hook,
// the checkpoint cadence, the Result — is the loop's.
type schedule interface {
	// start readies the loop state once values, aux and frontier are final:
	// freshly initialised, or restored from ck, of which the schedule takes
	// its own fields (ck is nil on a fresh run). It returns the number of
	// steps that maxIter iterations amount to.
	start(ck *checkpoint.State, maxIter int) (bound int, err error)
	// pending reports whether there is a step left to run.
	pending() bool
	// step runs step n and fills in what the schedule knows of st.
	step(n int, st *IterStat) error
	// measured is handed st once the loop has filled in the step's deltas.
	measured(st *IterStat)
	// capture adds the schedule's loop state to a checkpoint.
	capture(ck *checkpoint.State)
	// finish adds the schedule's outcomes to the result.
	finish(res *Result)
}

// newSchedule returns the schedule of the layout's system — for GraphSD's,
// the one Options.Async selects — bound to e.
func (e *Engine) newSchedule() (schedule, error) {
	if e.opts.Async {
		return newAsyncRun(e)
	}
	e.applySpan, e.applyEvery = e.applySpanBSP, e.prog.AlwaysActive()
	e.crossWords = make([]uint64, len(e.newActive.Words())+e.p)
	b := bspSchedule{e: e}
	switch e.layout.Meta.System {
	case "husgraph":
		return &husSchedule{bspSchedule: b}, nil
	case "lumos":
		return &lumosSchedule{bspSchedule: b}, nil
	}
	return &b, nil
}

// bspSchedule is the synchronous driver: each step is one iteration, run
// under the update model the state-aware scheduler picks for its frontier.
type bspSchedule struct {
	e       *Engine
	maxIter int
	// secondaryPending: the next iteration is the second half of an FCIU
	// pass, which reads the secondary sub-blocks only.
	secondaryPending bool
}

func (b *bspSchedule) start(ck *checkpoint.State, maxIter int) (int, error) {
	b.maxIter = maxIter
	if ck != nil {
		b.secondaryPending = ck.SecondaryPending
	}
	// acc/touched already satisfy the loop invariant (identity/empty) from
	// NewEngine.
	copy(b.e.valCur, b.e.valPrev)
	return maxIter, nil
}

func (b *bspSchedule) pending() bool {
	return b.secondaryPending || !b.e.active.Empty() || !b.e.touchedNext.Empty()
}

func (b *bspSchedule) step(iter int, st *IterStat) error {
	e := b.e
	e.promote()
	var err error
	switch {
	case b.secondaryPending:
		st.Path = "fciu-2"
		err = e.runPass(fciuSecondCells)
		b.secondaryPending = false
	case e.decide(iter) == iosched.OnDemandIO:
		st.Path = "sciu"
		err = e.runSCIU()
	case !e.opts.DisableCrossIteration && iter+1 < b.maxIter:
		st.Path = "fciu-1"
		err = e.runPass(fciuFirstCells)
		// The second half applies staged contributions and scatters
		// the secondary sub-blocks from the new frontier; if the
		// first half activated nothing, both are no-ops and the
		// algorithm has converged.
		b.secondaryPending = !e.newActive.Empty() || !e.touchedNext.Empty()
	default:
		st.Path = "full-single"
		err = e.runPass(fullCells)
	}
	if err != nil {
		return err
	}
	e.advance()
	return nil
}

// promote opens a BSP iteration, GraphSD's or a baseline's: the staged
// next-iteration contributions become current. The outgoing acc/touched were
// fully consumed (and identity-reset) by the previous apply phase.
func (e *Engine) promote() {
	e.acc, e.accNext = e.accNext, e.acc
	e.touched, e.touchedNext = e.touchedNext, e.touched
}

// advance closes a BSP iteration: the next frontier is its activations minus
// the vertices whose next scatter cross-iteration computation already did,
// and the values it computed — with their terms — become the ones the next
// scatters read. The next iteration's apply target starts as those values:
// the two arrays differ only over the intervals the iteration applied
// (applied, which applyBSP sets for every interval), so only those are copied.
func (e *Engine) advance() {
	e.active.CopyFrom(e.newActive)
	e.active.Subtract(e.prescattered)
	e.newActive.Reset()
	e.prescattered.Reset()
	e.valPrev, e.valCur = e.valCur, e.valPrev
	e.termPrev, e.termCur = e.termCur, e.termPrev
	for j, ok := range e.applied {
		if ok {
			lo, hi := e.layout.Meta.Interval(j)
			copy(e.valCur[lo:hi], e.valPrev[lo:hi])
		}
	}
}

// measured feeds the step's measured I/O charge back into the scheduler's
// calibration loop. fciu-2 consumes the second half of the previous
// decision's pass, so it carries no decision of its own to observe.
func (b *bspSchedule) measured(st *IterStat) {
	if st.Path == "fciu-2" {
		return
	}
	executed := iosched.FullIO
	if st.Path == "sciu" {
		executed = iosched.OnDemandIO
	}
	st.Predicted, st.Mispredict = b.e.sched.Observe(executed, st.IOTime)
}

func (b *bspSchedule) capture(ck *checkpoint.State) { ck.SecondaryPending = b.secondaryPending }

func (b *bspSchedule) finish(*Result) {}
