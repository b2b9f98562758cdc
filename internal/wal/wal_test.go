package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/graphsd/graphsd/internal/storage"
)

var testOpts = Options{Prefix: "t", Magic: [8]byte{'W', 'A', 'L', 'T', 'E', 'S', 'T', '1'}}

func mustOpen(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func mustAppend(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p), true); err != nil {
			t.Fatalf("append %q: %v", p, err)
		}
	}
}

func wantFrames(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames %q, want %d %q", len(got), got, len(want), want)
	}
	for k := range want {
		if string(got[k]) != want[k] {
			t.Fatalf("frame %d = %q, want %q", k, got[k], want[k])
		}
	}
}

// frame encodes one well-formed frame.
func frame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum([]byte(payload), crcTable))
	return append(b, payload...)
}

// writeSegment hand-builds segment idx from raw bytes after the magic.
func writeSegment(t *testing.T, dir string, idx int, body []byte) {
	t.Helper()
	name := filepath.Join(dir, fmt.Sprintf("%s-%06d.wal", testOpts.Prefix, idx))
	if err := os.WriteFile(name, append(testOpts.Magic[:], body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts
	opt.SegmentBytes = 64 // a few frames per segment
	l := mustOpen(t, dir, opt)
	var want []string
	for k := 0; k < 20; k++ {
		want = append(want, fmt.Sprintf("record-%02d", k))
	}
	mustAppend(t, l, want...)
	st := l.Stats()
	if st.Records != 20 || st.Segments < 3 {
		t.Fatalf("stats %+v: want 20 records over several segments", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, opt)
	wantFrames(t, l2.ConsumeReplay(), want...)
	if rs := l2.Stats(); rs.ReplayRecords != 20 || rs.ReplayTruncated != 0 {
		t.Fatalf("replay stats %+v", rs)
	}
	if l2.ConsumeReplay() != nil {
		t.Fatal("ConsumeReplay left the frames referenced")
	}
}

// TestTornTailTruncated: whatever a crash mid-append leaves after the last
// good frame, replay keeps everything before it, reports the segment
// truncated, and carries on with the next segment.
func TestTornTailTruncated(t *testing.T) {
	good := append(frame("a"), frame("bb")...)
	whole := frame("tail-frame")
	badCRC := append([]byte(nil), whole...)
	badCRC[len(badCRC)-1] ^= 0xff
	for _, tc := range []struct {
		name string
		tail []byte
		torn bool
		keep []string
	}{
		{"clean", nil, false, []string{"a", "bb"}},
		{"short-header", whole[:5], true, []string{"a", "bb"}},
		{"short-payload", whole[:len(whole)-3], true, []string{"a", "bb"}},
		{"bad-crc", badCRC, true, []string{"a", "bb"}},
		// A zero-length frame is well-formed only with the CRC of nothing,
		// which is 0: a run of zero bytes (a hole the filesystem left) reads
		// as empty frames and is kept; anything else in the CRC is a tear.
		{"zero-length-bad-crc", []byte{0, 0, 0, 0, 1, 2, 3, 4}, true, []string{"a", "bb"}},
		{"zero-length", frame(""), false, []string{"a", "bb", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegment(t, dir, 1, append(append([]byte(nil), good...), tc.tail...))
			writeSegment(t, dir, 2, frame("next-run"))
			l := mustOpen(t, dir, testOpts)
			wantFrames(t, l.ConsumeReplay(), append(tc.keep, "next-run")...)
			wantTorn := 0
			if tc.torn {
				wantTorn = 1
			}
			if st := l.Stats(); st.ReplayTruncated != wantTorn {
				t.Fatalf("ReplayTruncated = %d, want %d", st.ReplayTruncated, wantTorn)
			}
		})
	}
}

func TestCorruptMiddleFrameStopsSegment(t *testing.T) {
	dir := t.TempDir()
	mid := frame("middle")
	mid[8] ^= 0x01
	body := append(append(frame("first"), mid...), frame("last")...)
	writeSegment(t, dir, 1, body)
	l := mustOpen(t, dir, testOpts)
	// The frame after the corrupt one is unreachable — its boundary is only
	// known through the frame before it — but the one before survives.
	wantFrames(t, l.ConsumeReplay(), "first")
	if st := l.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts
	opt.MaxFrameBytes = 16
	// On replay a length beyond the cap is tail corruption, not an
	// allocation request — even when the bytes are really there.
	big := string(bytes.Repeat([]byte{'x'}, 17))
	writeSegment(t, dir, 1, append(frame("ok"), frame(big)...))
	l := mustOpen(t, dir, opt)
	wantFrames(t, l.ConsumeReplay(), "ok")
	if st := l.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
	}
	// On append it is refused outright: written, it would read back as a
	// tear and take every later frame of the segment with it.
	if err := l.Append([]byte(big), true); err == nil {
		t.Fatal("oversize append accepted")
	}
	if l.Err() != nil {
		t.Fatalf("oversize append marked the log failed: %v", l.Err())
	}
	mustAppend(t, l, "exactly-16-bytes")
	l.Close()
	wantFrames(t, mustOpen(t, dir, opt).ConsumeReplay(), "ok", "exactly-16-bytes")
}

func TestAcceptRejectsLikeTornTail(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, append(append(frame("ok"), frame("BAD")...), frame("ok2")...))
	opt := testOpts
	opt.Accept = func(p []byte) bool { return string(p) != "BAD" }
	wantFrames(t, mustOpen(t, dir, opt).ConsumeReplay(), "ok")

	// Both real callers reject empty payloads this way, which is what turns
	// a zero-filled tail (well-formed empty frames to the log itself) into a
	// tear.
	zeros := t.TempDir()
	writeSegment(t, zeros, 1, append(frame("ok"), make([]byte, 24)...))
	opt.Accept = func(p []byte) bool { return len(p) > 0 }
	l := mustOpen(t, zeros, opt)
	wantFrames(t, l.ConsumeReplay(), "ok")
	if st := l.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
	}
}

func TestStickyErrAfterAppendFault(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault error
	}{
		{"plain", errors.New("disk gone")},
		{"torn", fmt.Errorf("crash: %w", storage.ErrTornWrite)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, testOpts)
			mustAppend(t, l, "before")
			calls := 0
			l.SetFaultInjector(func(op, name string) error {
				calls++
				if op != "append" || name != "t-000001.wal" {
					t.Errorf("injector consulted with (%q, %q)", op, name)
				}
				return tc.fault
			})
			err := l.Append([]byte("lost-in-the-fault"), true)
			if !errors.Is(err, ErrUnavailable) || !errors.Is(err, tc.fault) {
				t.Fatalf("faulted append: %v", err)
			}
			if !errors.Is(l.Err(), tc.fault) {
				t.Fatalf("Err() = %v, want the injected fault", l.Err())
			}
			// Sticky: the injector is not even consulted again.
			l.SetFaultInjector(func(string, string) error { calls++; return nil })
			if err := l.Append([]byte("after"), true); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("append after failure: %v", err)
			}
			if calls != 1 {
				t.Fatalf("injector consulted %d times, want 1", calls)
			}
			l.Close()

			// The torn half-frame is discarded at replay; nothing acknowledged
			// is lost either way.
			l2 := mustOpen(t, dir, testOpts)
			wantFrames(t, l2.ConsumeReplay(), "before")
			wantTorn := 0
			if errors.Is(tc.fault, storage.ErrTornWrite) {
				wantTorn = 1
			}
			if st := l2.Stats(); st.ReplayTruncated != wantTorn {
				t.Fatalf("ReplayTruncated = %d, want %d", st.ReplayTruncated, wantTorn)
			}
		})
	}
}

func TestAppendAfterClose(t *testing.T) {
	l := mustOpen(t, t.TempDir(), testOpts)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append([]byte("x"), false); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestReadAll(t *testing.T) {
	dir := t.TempDir()
	if frames, torn, err := ReadAll(filepath.Join(dir, "absent"), testOpts); err != nil || frames != nil || torn != 0 {
		t.Fatalf("missing dir: %q, %d, %v", frames, torn, err)
	}
	whole := frame("torn")
	writeSegment(t, dir, 1, append(frame("a"), whole[:6]...))
	writeSegment(t, dir, 2, frame("b"))
	writeSegment(t, dir, 3, append(frame("c"), 0xff))
	before, _ := os.ReadDir(dir)
	frames, torn, err := ReadAll(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, frames, "a", "b", "c")
	if torn != 2 {
		t.Fatalf("truncated = %d, want 2", torn)
	}
	if after, _ := os.ReadDir(dir); len(after) != len(before) {
		t.Fatalf("ReadAll changed the directory: %d → %d entries", len(before), len(after))
	}

	// A foreign file under the log's naming scheme is an error, not a tear.
	if err := os.WriteFile(filepath.Join(dir, "t-000004.wal"), []byte("NOTMAGIC........"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAll(dir, testOpts); err == nil {
		t.Fatal("foreign-magic segment replayed")
	}
	if _, err := Open(dir, testOpts); err == nil {
		t.Fatal("Open accepted a foreign-magic segment")
	}
}

// TestFreshSegmentPerOpen: a process never appends to a segment an earlier
// run wrote — the rule that makes "only a run's newest segment can be torn"
// sound — and files that are not segments are left alone.
func TestFreshSegmentPerOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 3; run++ {
		l, err := Open(dir, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Segments != run {
			t.Fatalf("run %d: %d segments", run, st.Segments)
		}
		if run > 1 {
			mustAppend(t, l, fmt.Sprintf("run-%d", run))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for idx, want := range map[int]int64{1: 8, 2: 8 + int64(len(frame("run-2"))), 3: 8 + int64(len(frame("run-3")))} {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("t-%06d.wal", idx)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != want {
			t.Fatalf("segment %d holds %d bytes, want %d", idx, fi.Size(), want)
		}
	}
	frames, _, err := ReadAll(dir, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, frames, "run-2", "run-3")
}

func TestOpenRejectsBadOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Magic: testOpts.Magic}); err == nil {
		t.Fatal("empty prefix accepted")
	}
	if _, err := Open(t.TempDir(), Options{Prefix: "t"}); err == nil {
		t.Fatal("zero magic accepted")
	}
}
