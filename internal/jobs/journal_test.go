package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/graphsd/graphsd/internal/storage"
)

// appendAll journals the records, failing the test on the first error.
func appendAll(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
}

// lastSegment returns the path of the journal directory's highest-indexed
// segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best, bestIdx := "", 0
	for _, e := range entries {
		if idx := segmentIndex(e.Name()); idx > bestIdx {
			best, bestIdx = e.Name(), idx
		}
	}
	if best == "" {
		t.Fatal("no segment files")
	}
	return filepath.Join(dir, best)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Algorithm: "pr", MaxIterations: 5}
	appendAll(t, j,
		Record{Type: RecSubmit, ID: "j00001-aaaa", Time: time.Now(), Seq: 1, Req: &req},
		Record{Type: RecStart, ID: "j00001-aaaa", Attempt: 1},
		Record{Type: RecProgress, ID: "j00001-aaaa", Iter: 3},
		Record{Type: RecFinal, ID: "j00001-aaaa", State: "done"},
	)
	st := j.Stats()
	if st.Records != 4 || st.Bytes <= 0 {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecFinal, ID: "x"}); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("append after close: %v", err)
	}

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.ConsumeReplay()
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	types := []string{RecSubmit, RecStart, RecProgress, RecFinal}
	for i, want := range types {
		if recs[i].Type != want || recs[i].ID != "j00001-aaaa" {
			t.Fatalf("record %d: %+v, want type %s", i, recs[i], want)
		}
	}
	if recs[0].Req == nil || recs[0].Req.Graph != "g" || recs[0].Seq != 1 {
		t.Fatalf("submit record lost its request: %+v", recs[0])
	}
	if recs[2].Iter != 3 || recs[3].State != "done" {
		t.Fatalf("progress/final fields lost: %+v %+v", recs[2], recs[3])
	}
	st = j2.Stats()
	if st.ReplayRecords != 4 || st.ReplayTruncated != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	if got := j2.ConsumeReplay(); got != nil {
		t.Fatalf("second ConsumeReplay: %v", got)
	}
}

// TestJournalTornTail appends garbage after the last good frame — the
// signature of a crash mid-append — and expects replay to keep every good
// record and silently discard the tail.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Algorithm: "pr"}
	appendAll(t, j,
		Record{Type: RecSubmit, ID: "a", Seq: 1, Req: &req},
		Record{Type: RecFinal, ID: "a", State: "done"},
	)
	j.Close()

	for name, tail := range map[string][]byte{
		"short-header":    {0x01, 0x02, 0x03},
		"half-frame":      append(binary.LittleEndian.AppendUint32(nil, 400), 0xde, 0xad, 0xbe, 0xef, 'x', 'y'),
		"oversize-length": binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<30), 0),
	} {
		t.Run(name, func(t *testing.T) {
			seg := lastSegment(t, dir)
			good, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, append(append([]byte{}, good...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			defer os.WriteFile(seg, good, 0o644) // restore for the next case
			recs := j2.ConsumeReplay()
			if len(recs) != 2 || recs[0].ID != "a" || recs[1].State != "done" {
				t.Fatalf("replayed %+v, want the 2 good records", recs)
			}
			if st := j2.Stats(); st.ReplayTruncated != 1 {
				t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
			}
		})
	}
}

// TestJournalCorruptMiddleRecord flips a payload byte of an interior frame;
// replay must stop that segment at the corrupt frame (CRC catches it) and
// keep only the records before it.
func TestJournalCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Algorithm: "pr"}
	appendAll(t, j,
		Record{Type: RecSubmit, ID: "a", Seq: 1, Req: &req},
		Record{Type: RecSubmit, ID: "b", Seq: 2, Req: &req},
		Record{Type: RecFinal, ID: "a", State: "done"},
	)
	j.Close()

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second frame: skip magic, then the first frame.
	off := len(journalMagic)
	n := binary.LittleEndian.Uint32(data[off:])
	off += 8 + int(n)
	data[off+8] ^= 0xff // corrupt the second frame's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.ConsumeReplay()
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replayed %+v, want only the first record", recs)
	}
	if st := j2.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
	}
}

func TestJournalForeignMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("NOTAJRNL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, 0); err == nil {
		t.Fatal("OpenJournal accepted a segment with foreign magic")
	}
}

// TestJournalSegmentRotation drives the journal past several rotation
// thresholds mid-"job" and expects replay to stitch the segments back into
// one ordered stream.
func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 256) // tiny segments: rotate every few records
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Algorithm: "pr"}
	const n = 40
	appendAll(t, j, Record{Type: RecSubmit, ID: "job", Seq: 1, Req: &req})
	for i := 1; i < n-1; i++ {
		appendAll(t, j, Record{Type: RecProgress, ID: "job", Iter: i})
	}
	appendAll(t, j, Record{Type: RecFinal, ID: "job", State: "done"})
	if st := j.Stats(); st.Segments < 3 {
		t.Fatalf("only %d segments after %d small-threshold appends", st.Segments, n)
	}
	j.Close()

	j2, err := OpenJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.ConsumeReplay()
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i := 1; i < n-1; i++ {
		if recs[i].Type != RecProgress || recs[i].Iter != i {
			t.Fatalf("record %d out of order: %+v", i, recs[i])
		}
	}
	if recs[0].Type != RecSubmit || recs[n-1].Type != RecFinal {
		t.Fatalf("stream endpoints wrong: %+v ... %+v", recs[0], recs[n-1])
	}
}

// TestJournalStickyFailure: after any append failure the journal is lost for
// the process — every later append reports ErrJournalUnavailable without
// touching the disk.
func TestJournalStickyFailure(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	boom := errors.New("injected")
	fail := true
	j.SetFaultInjector(func(op, name string) error {
		if fail {
			return boom
		}
		return nil
	})
	if err := j.Append(Record{Type: RecSubmit, ID: "a"}); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("first append: %v", err)
	}
	fail = false // injector healthy again — the journal must stay down
	if err := j.Append(Record{Type: RecSubmit, ID: "b"}); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("append after failure: %v", err)
	}
	if j.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
	if st := j.Stats(); st.Records != 0 {
		t.Fatalf("failed appends counted: %+v", st)
	}
}

// TestJournalTornWriteFault: a fault wrapping storage.ErrTornWrite leaves
// half the frame on disk; replay after "restart" must truncate it and keep
// every record appended before the tear.
func TestJournalTornWriteFault(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Algorithm: "pr"}
	appendAll(t, j,
		Record{Type: RecSubmit, ID: "a", Seq: 1, Req: &req},
		Record{Type: RecSubmit, ID: "b", Seq: 2, Req: &req},
	)
	j.SetFaultInjector(func(op, name string) error {
		return fmt.Errorf("chaos: %w", storage.ErrTornWrite)
	})
	// The torn final: "a" finished but the crash ate the record.
	if err := j.Append(Record{Type: RecFinal, ID: "a", State: "done"}); !errors.Is(err, ErrJournalUnavailable) {
		t.Fatalf("torn append: %v", err)
	}
	j.Close()

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.ConsumeReplay()
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "b" {
		t.Fatalf("replayed %+v, want the 2 submits", recs)
	}
	for _, r := range recs {
		if r.Type != RecSubmit {
			t.Fatalf("torn final survived replay: %+v", r)
		}
	}
	if st := j2.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
	}
}

// TestJournalChaosInjector wires a storage.Chaos crash-at-op injector — the
// same one the restart suite uses — directly into the journal and checks the
// crash point lands on the configured append.
func TestJournalChaosInjector(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaos := storage.NewChaos(storage.ChaosOptions{
		Seed:          1,
		CrashAfterOps: 3,
		Match:         func(op, name string) bool { return op == "append" },
	})
	j.SetFaultInjector(chaos.Injector())
	req := Request{Graph: "g", Algorithm: "pr"}
	var firstErr error
	for i := 1; i <= 6; i++ {
		err := j.Append(Record{Type: RecSubmit, ID: fmt.Sprintf("j%d", i), Seq: int64(i), Req: &req})
		if err != nil && firstErr == nil {
			firstErr = err
			if i != 4 {
				t.Fatalf("crash landed on append %d, want 4 (after 3 ops)", i)
			}
		}
	}
	if firstErr == nil {
		t.Fatal("chaos crash point never fired")
	}
	if !errors.Is(firstErr, storage.ErrCrashed) || !errors.Is(firstErr, ErrJournalUnavailable) {
		t.Fatalf("crash error = %v", firstErr)
	}
	j.Close()

	j2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs := j2.ConsumeReplay(); len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 pre-crash ones", len(recs))
	}
}

// TestJournalFreshSegmentPerOpen: every open starts a new segment and never
// appends to an old one, so a previously-torn segment stays torn and new
// records land after it in replay order.
func TestJournalFreshSegmentPerOpen(t *testing.T) {
	dir := t.TempDir()
	req := Request{Graph: "g", Algorithm: "pr"}
	for i := 1; i <= 3; i++ {
		j, err := OpenJournal(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, j, Record{Type: RecSubmit, ID: fmt.Sprintf("run%d", i), Seq: int64(i), Req: &req})
		j.Close()
	}
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := j.ConsumeReplay()
	if len(recs) != 3 {
		t.Fatalf("replayed %d, want 3", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("run%d", i+1); r.ID != want {
			t.Fatalf("replay order broken: record %d is %q, want %q", i, r.ID, want)
		}
	}
	if st := j.Stats(); st.Segments != 4 { // 3 sealed + this open's fresh one
		t.Fatalf("segments = %d, want 4", st.Segments)
	}
}
