// Journal is the write-ahead log that makes the job scheduler durable: every
// lifecycle transition (submit, start, iteration progress, final state) is
// appended as a CRC32C-framed record before it is acknowledged, so a crashed
// or killed server can replay the log at startup and put every job back into
// the state the outside world last observed.
//
// The framing, segmentation and torn-tail recovery discipline live in
// internal/wal (shared with the mutable-graph mutation log); this file owns
// the JSON record encoding and which record types must be fsynced before
// acknowledgement: submit/start/final are, progress records are advisory
// and skip the sync.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/graphsd/graphsd/internal/wal"
)

// Record types. The journal is a typed event log; see Record.
const (
	RecSubmit   = "submit"
	RecStart    = "start"
	RecProgress = "progress"
	RecFinal    = "final"
)

// Record is one journal entry. Submit carries the full request (the job is
// reconstructable from it alone); start marks an execution attempt; progress
// reports the latest completed iteration; final records the terminal state.
type Record struct {
	Type string    `json:"type"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// Seq is the scheduler's submission sequence (submit records only); the
	// replayed maximum seeds the restarted scheduler's counter so job IDs
	// stay unique and deterministic across restarts.
	Seq int64 `json:"seq,omitempty"`
	// Req is the submitted request (submit records only).
	Req *Request `json:"req,omitempty"`
	// Attempt numbers execution attempts from 1 (start records; retried
	// jobs journal one start per attempt).
	Attempt int `json:"attempt,omitempty"`
	// Iter is the completed-iteration count (progress records).
	Iter int `json:"iter,omitempty"`
	// State and Error describe the terminal outcome (final records).
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// ErrJournalUnavailable is returned by Append once the journal has failed:
// after any append error the journal is considered lost for the remainder of
// the process (a real WAL on a failed disk is not coming back), and the
// scheduler degrades to shedding load instead of accepting jobs it cannot
// make durable.
var ErrJournalUnavailable = errors.New("jobs: journal unavailable")

// journalMagic opens every segment so a foreign file in the directory is
// rejected instead of replayed.
var journalMagic = [8]byte{'G', 'S', 'D', 'J', 'R', 'N', '0', '1'}

// DefaultSegmentBytes is the rotation threshold when OpenJournal is given
// zero.
const DefaultSegmentBytes = wal.DefaultSegmentBytes

// JournalStats describes a journal's activity, for /metrics: the counters of
// the write-ahead log under it.
type JournalStats = wal.Stats

// Journal is the append-side handle. Safe for concurrent use; appends are
// serialised.
type Journal struct {
	log      *wal.Log
	replayed []Record
}

// OpenJournal opens (creating if needed) the journal in dir, replays every
// existing segment, and starts a fresh active segment for this process's
// appends. segBytes is the rotation threshold (0: DefaultSegmentBytes).
// The replayed records are handed out once, by ConsumeReplay.
func OpenJournal(dir string, segBytes int64) (*Journal, error) {
	log, err := wal.Open(dir, wal.Options{
		Prefix:       "journal",
		Magic:        journalMagic,
		SegmentBytes: segBytes,
		// A CRC-valid frame that does not decode as a Record is tail
		// corruption for replay purposes, same as a torn frame.
		Accept: func(payload []byte) bool {
			var rec Record
			return json.Unmarshal(payload, &rec) == nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	j := &Journal{log: log}
	for _, payload := range log.ConsumeReplay() {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// Accept already validated the payload; a failure here is a
			// programming error, not a disk state.
			return nil, fmt.Errorf("jobs: journal replay: %w", err)
		}
		j.replayed = append(j.replayed, rec)
	}
	return j, nil
}

// ConsumeReplay returns the records recovered when the journal was opened,
// in append order, and releases the journal's reference to them.
func (j *Journal) ConsumeReplay() []Record {
	recs := j.replayed
	j.replayed = nil
	return recs
}

// SetFaultInjector installs fn on the append path, for chaos tests: it is
// consulted with op "append" and the active segment's name before every
// append. An error wrapping storage.ErrTornWrite leaves a torn half-frame on
// disk (the signature of a crash mid-append); any error marks the journal
// failed — every later Append returns ErrJournalUnavailable. A
// storage.Chaos injector slots in directly.
func (j *Journal) SetFaultInjector(fn func(op, name string) error) { j.log.SetFaultInjector(fn) }

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() JournalStats { return j.log.Stats() }

// Err returns the sticky failure that made the journal unavailable, nil
// while it is healthy.
func (j *Journal) Err() error { return j.log.Err() }

// Append journals rec. Submit, start, and final records are fsynced before
// returning; progress records are buffered by the OS (their loss costs only
// a progress display). After the first failure every call returns
// ErrJournalUnavailable.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: journal encode: %w", err)
	}
	if err := j.log.Append(payload, rec.Type != RecProgress); err != nil {
		return fmt.Errorf("%w: %w", ErrJournalUnavailable, err)
	}
	return nil
}

// Close seals the journal; subsequent appends fail with
// ErrJournalUnavailable. Idempotent.
func (j *Journal) Close() error { return j.log.Close() }

// segmentName / segmentIndex mirror the wal package's segment naming for
// the journal's prefix; tests use them to locate and forge segment files.
func segmentName(idx int) string { return fmt.Sprintf("journal-%06d.wal", idx) }

func segmentIndex(name string) int {
	var idx int
	if _, err := fmt.Sscanf(name, "journal-%06d.wal", &idx); err != nil {
		return 0
	}
	return idx
}
