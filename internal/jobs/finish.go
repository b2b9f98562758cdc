package jobs

// The terminal edge, and what it feeds: retention and checkpoint GC.

import (
	"os"
	"path/filepath"
	"time"

	"github.com/graphsd/graphsd/internal/core"
)

// finish is the one edge into a terminal state; every job crosses it exactly
// once. from is the state the caller found the job in — Queued for a client
// cancel, the Close drain and a deadline that passed in the queue, Running
// for a worker handing back its job — and a job no longer in it (someone
// else started or finished it first) is left alone: finish reports false.
// Otherwise, in this order: the job's own fields flip under its lock and its
// context is released; then under s.mu the terminal record is journaled, the
// checkpoint directory pruned, the memory reservation returned, the
// counters bumped and the job entered into the retention ring. A killed
// scheduler (crash simulation) journals and prunes nothing.
//
// A journal failure is deliberately tolerated: the job still finishes in
// memory, and a restart will simply re-run it — duplicate execution, never a
// lost job.
func (s *Scheduler) finish(j *Job, from, final State, err error, res *core.Result) bool {
	now := time.Now()
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state, j.err, j.res, j.finished = final, err, res, now
	j.mu.Unlock()
	j.cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.killed {
		if s.cfg.Journal != nil {
			rec := Record{Type: RecFinal, ID: j.id, Time: now, State: final.String()}
			if err != nil {
				rec.Error = err.Error()
			}
			s.cfg.Journal.Append(rec)
		}
		s.gcCheckpointLocked(j.id)
	}
	s.memUsed -= j.estBytes
	s.finished[final]++
	switch final {
	case Expired:
		s.expired++
	case Done:
		s.tenantLocked(j.req.Tenant).done++
	}
	s.terminal = append(s.terminal, j.id)
	s.evictTerminalLocked()
	return true
}

// gcCheckpointLocked prunes the job's checkpoint directory once its
// terminal record is durable, retaining the last CheckpointKeep terminal
// jobs' directories for debugging. Called with s.mu held.
func (s *Scheduler) gcCheckpointLocked(id string) {
	if s.cfg.CheckpointRoot == "" {
		return
	}
	if s.cfg.CheckpointKeep > 0 {
		s.keptCk = append(s.keptCk, id)
		if len(s.keptCk) <= s.cfg.CheckpointKeep {
			return
		}
		id, s.keptCk = s.keptCk[0], s.keptCk[1:]
	}
	os.RemoveAll(s.checkpointDir(id))
}

// evictTerminalLocked enforces Config.RetainJobs: the oldest-finished jobs
// beyond the bound are dropped from the tables, result payloads and all.
// Their journal records stay — a replayed journal rebuilds and re-evicts
// them identically. Called with s.mu held.
func (s *Scheduler) evictTerminalLocked() {
	if s.cfg.RetainJobs <= 0 {
		return
	}
	for len(s.terminal) > s.cfg.RetainJobs {
		id := s.terminal[0]
		s.terminal[0] = ""
		s.terminal = s.terminal[1:]
		if _, ok := s.jobs[id]; ok {
			delete(s.jobs, id)
			s.evicted++
		}
	}
	// s.order keeps evicted IDs until it is mostly tombstones, then
	// compacts, so listing stays O(live) amortised without eager splicing.
	if len(s.order) > 2*len(s.jobs)+16 {
		live := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				live = append(live, id)
			}
		}
		s.order = live
	}
}

// checkpointDir returns the job's private checkpoint directory.
func (s *Scheduler) checkpointDir(id string) string {
	return filepath.Join(s.cfg.CheckpointRoot, id)
}
