package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestWriterLeavesLastPut: the file on disk is never more than one Put
// behind, and after a burst of Puts, Close leaves exactly the file Save
// writes for the last state put, and no temp file. Each state is changed
// right after its Put, so an image that aliased the caller's arrays would
// show the change.
func TestWriterLeavesLastPut(t *testing.T) {
	dir := t.TempDir()
	w := NewWriter(dir)
	s := sampleState()
	var last *State
	for i := 0; i < 64; i++ {
		s.Iteration = i
		s.Values[0] = float64(i)
		s.Active[1] = uint64(i)
		if err := w.Put(s); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if i > 0 {
			if on, err := Load(dir); err != nil || on.Iteration < i-1 {
				t.Fatalf("after Put %d the file holds %+v (error %v), want image %d or newer", i, on, err, i-1)
			}
		}
		last = sampleState()
		last.Iteration, last.Values[0], last.Active[1] = i, float64(i), uint64(i)
		s.Values[0], s.Active[1] = -1, 1<<63
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, last) {
		t.Fatalf("after Close:\ngot  %+v\nwant %+v", got, last)
	}
	saved := t.TempDir()
	if err := Save(saved, last); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(Path(saved))
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(Path(dir)); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("Writer's file differs from Save's for the same state (read error: %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("directory after Close holds %v, want only %s", entries, FileName)
	}
}

// TestWriterPublishFailure: a publish that fails — here because the
// directory is a regular file — comes back from the next Put, or from Close
// for the last image.
func TestWriterPublishFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for puts := 1; puts <= 2; puts++ {
		w := NewWriter(dir)
		var err error
		for i := 0; i < puts && err == nil; i++ {
			err = w.Put(sampleState())
		}
		if puts == 1 {
			err = w.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("after %d Put(s): %v, want the publish error naming the checkpoint", puts, err)
		}
	}
}
