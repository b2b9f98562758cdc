package jobs

// Journal replay: what a restarted scheduler rebuilds before its workers start.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// RecoveryStats reports what a restarted scheduler's journal replay did.
// Lost is the accounting invariant: submitted jobs the replay could neither
// finish nor re-queue — always zero unless the journal itself is corrupt
// beyond a torn tail.
type RecoveryStats struct {
	// Recovered counts journaled jobs that were already terminal; Requeued
	// those re-queued for (re-)execution, of which Resumable had started
	// before the crash and hold an engine checkpoint to resume from.
	Recovered int64 `json:"recovered"`
	Requeued  int64 `json:"requeued"`
	Resumable int64 `json:"resumable"`
	// Expired counts jobs whose deadline passed while the server was down.
	Expired int64 `json:"expired"`
	Lost    int64 `json:"lost"`
	// ReplaySeconds is the journal replay wall clock.
	ReplaySeconds float64 `json:"replay_seconds"`
}

// replay folds the journal's records into the job table and returns the
// jobs to re-queue, in submission order. Called before the workers start,
// so no locking is needed beyond the job constructors.
func (s *Scheduler) replay(recs []Record) []*Job {
	start := time.Now()
	var finOrder []string // terminal jobs in final-record (finish) order
	for _, rec := range recs {
		switch rec.Type {
		case RecSubmit:
			// A job's ID names its checkpoint directory, so only the ID
			// Submit would have derived is trusted: a CRC-valid record naming
			// "../x" must not point a runner, or checkpoint GC, outside the
			// root.
			if rec.Req == nil || rec.ID != jobID(rec.Seq, *rec.Req) {
				continue
			}
			if _, dup := s.jobs[rec.ID]; dup {
				continue
			}
			est := int64(0)
			if s.cfg.EstimateBytes != nil {
				est = s.cfg.EstimateBytes(*rec.Req)
			}
			ctx, cancel := context.WithCancel(context.Background())
			j := &Job{
				id:        rec.ID,
				req:       *rec.Req,
				state:     Queued,
				submitted: rec.Time,
				estBytes:  est,
				recovered: true,
				ctx:       ctx,
				cancel:    cancel,
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			if rec.Seq > s.seq {
				s.seq = rec.Seq
			}
		case RecStart:
			if j := s.jobs[rec.ID]; j != nil && !j.state.Final() {
				j.wasRunning = true
				if rec.Attempt > j.attempt {
					j.attempt = rec.Attempt
				}
			}
		case RecProgress:
			if j := s.jobs[rec.ID]; j != nil && !j.state.Final() {
				j.iterations = rec.Iter
			}
		case RecFinal:
			j := s.jobs[rec.ID]
			if j == nil || j.state.Final() {
				// Duplicate finals (a retried journal append that landed
				// twice) are idempotently ignored: the first final wins.
				continue
			}
			st, ok := stateByName(rec.State)
			if !ok || !st.Final() {
				continue
			}
			j.state = st
			j.finished = rec.Time
			if rec.Error != "" {
				j.err = errors.New(rec.Error)
			}
			j.cancel()
			finOrder = append(finOrder, j.id)
		}
	}

	now := time.Now()
	var requeue, expired []*Job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Final() {
			s.recovery.Recovered++
			s.finished[j.state]++
			continue
		}
		// Every unfinished job holds its reservation until finish releases it.
		s.memUsed += j.estBytes
		if j.req.deadlinePassed(now) {
			s.recovery.Expired++
			expired = append(expired, j)
			continue
		}
		s.recovery.Requeued++
		if j.wasRunning && s.cfg.CheckpointRoot != "" && checkpointDirExists(s.checkpointDir(j.id)) {
			s.recovery.Resumable++
		}
		requeue = append(requeue, j)
	}
	// The invariant the chaos suite asserts: every journaled submit is
	// accounted for. Computed before retention eviction mutates the tables.
	s.recovery.Lost = int64(len(s.order)) - (s.recovery.Recovered + s.recovery.Requeued + s.recovery.Expired)
	s.recovery.ReplaySeconds = time.Since(start).Seconds()
	// The expiries just detected are still unfinished here, so the orphan
	// sweep leaves their directories to finish — one path prunes (or keeps) a
	// job's checkpoint, and no job enters keptCk twice.
	s.gcOrphanCheckpoints(append(expired, requeue...))
	// Retention replays too: terminal jobs enter the eviction ring in
	// finish order — those the journal already holds a final for, then the
	// ones expiring now — under the bound an uninterrupted server enforces.
	for _, id := range finOrder {
		if j := s.jobs[id]; j != nil && j.state.Final() {
			s.terminal = append(s.terminal, id)
		}
	}
	for _, j := range expired {
		s.finish(j, Queued, Expired, ErrDeadlineExpired, nil)
	}
	s.evictTerminalLocked()
	return requeue
}

func checkpointDirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// gcOrphanCheckpoints removes checkpoint directories that belong to no
// unfinished job: terminal jobs' leftovers (beyond CheckpointKeep, newest
// first) and directories of jobs the journal has never heard of.
func (s *Scheduler) gcOrphanCheckpoints(unfinished []*Job) {
	if s.cfg.CheckpointRoot == "" {
		return
	}
	entries, err := os.ReadDir(s.cfg.CheckpointRoot)
	if err != nil {
		return
	}
	live := make(map[string]bool, len(unfinished))
	for _, j := range unfinished {
		live[j.id] = true
	}
	var terminal []string
	for _, e := range entries {
		if !e.IsDir() || live[e.Name()] {
			continue
		}
		if j, ok := s.jobs[e.Name()]; ok && j.state.Final() {
			terminal = append(terminal, e.Name())
			continue
		}
		os.RemoveAll(filepath.Join(s.cfg.CheckpointRoot, e.Name()))
	}
	// Terminal leftovers: keep the newest CheckpointKeep by submission
	// order, prune the rest.
	sort.Slice(terminal, func(a, b int) bool { return jobSeq(terminal[a]) < jobSeq(terminal[b]) })
	keepFrom := len(terminal) - s.cfg.CheckpointKeep
	if keepFrom < 0 {
		keepFrom = 0
	}
	for _, id := range terminal[:keepFrom] {
		os.RemoveAll(filepath.Join(s.cfg.CheckpointRoot, id))
	}
	s.keptCk = append(s.keptCk, terminal[keepFrom:]...)
}

// jobSeq parses the sequence number out of a job ID (j<seq>-<hash>).
func jobSeq(id string) int64 {
	var seq int64
	fmt.Sscanf(id, "j%d-", &seq)
	return seq
}
