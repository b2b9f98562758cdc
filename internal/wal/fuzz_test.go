package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes, behind a valid magic, to segment
// replay — ReadAll's and Open's, which must agree. It must not panic, and what
// it returns must be a prefix of the segment: the frames a valid encoder
// (Log.Append) writes for them are the segment's first bytes, and the segment
// is reported truncated exactly when bytes are left after them. Those encoded
// frames, cut at any offset, must replay as the frames wholly before the cut,
// reported truncated unless the cut falls on a frame boundary (a log that
// simply ends there).
func FuzzWALReplay(f *testing.F) {
	whole := frame("tail-frame")
	f.Add([]byte{}, uint(0))
	f.Add(append(frame("a"), frame("bb")...), uint(5))
	f.Add(append(frame("a"), whole[:len(whole)-3]...), uint(9))
	f.Add(append(frame(""), 0, 0, 0, 0, 1, 2, 3, 4), uint(3))
	f.Add(append(frame("first"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), uint(13))
	f.Fuzz(func(t *testing.T, body []byte, cut uint) {
		dir := t.TempDir()
		writeSegment(t, dir, 1, body)
		frames, torn, err := ReadAll(dir, testOpts)
		if err != nil {
			t.Fatalf("ReadAll of a segment with a valid magic: %v", err)
		}
		l, err := Open(dir, testOpts)
		if err != nil {
			t.Fatalf("Open of a segment with a valid magic: %v", err)
		}
		replayed, st := l.ConsumeReplay(), l.Stats()
		l.Close()
		if !equalFrames(replayed, frames) || st.ReplayTruncated != torn {
			t.Fatalf("Open replayed %q (truncated %d), ReadAll %q (truncated %d)", replayed, st.ReplayTruncated, frames, torn)
		}

		enc := encodeFrames(t, frames)
		if !bytes.HasPrefix(body, enc) {
			t.Fatalf("replayed frames %q are not a prefix of the segment", frames)
		}
		if (torn == 1) != (len(enc) < len(body)) {
			t.Fatalf("truncated = %d with %d of %d bytes replayed", torn, len(enc), len(body))
		}

		if len(enc) == 0 {
			return
		}
		k := int(cut % uint(len(enc)))
		want, end := 0, 0
		for want < len(frames) && end+8+len(frames[want]) <= k {
			end += 8 + len(frames[want])
			want++
		}
		cutDir := t.TempDir()
		writeSegment(t, cutDir, 1, enc[:k])
		got, gotTorn, err := ReadAll(cutDir, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !equalFrames(got, frames[:want]) || (gotTorn == 1) != (end != k) {
			t.Fatalf("cut at %d of %d: replayed %q (truncated %d), want %q (truncated %t)",
				k, len(enc), got, gotTorn, frames[:want], end != k)
		}
	})
}

// encodeFrames writes payloads through a real log and returns its segment's
// bytes after the magic.
func encodeFrames(t *testing.T, payloads [][]byte) []byte {
	t.Helper()
	dir := t.TempDir()
	opt := testOpts
	opt.SegmentBytes = 1 << 40 // one segment, whatever the payloads
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, l.segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data[len(opt.Magic):]
}

func equalFrames(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
