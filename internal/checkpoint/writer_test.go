package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestWriterLeavesLastPut: the images on disk are never more than one Put
// behind, and after a burst of Puts, Close leaves exactly the file Save
// writes for the last state put in the slot Load picks — the spare as often
// as not — the image before it in the other slot, and no temp file. Each
// state is changed right after its Put, so an image that aliased the
// caller's arrays would show the change.
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
	_, slot, err := newest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(slotPaths(dir)[slot]); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("Writer's file differs from Save's for the same state (read error: %v)", err)
	}
	data, err := os.ReadFile(slotPaths(dir)[1-slot])
	if err != nil {
		t.Fatal(err)
	}
	if before, err := decode(data); err != nil || before.Iteration != last.Iteration-1 {
		t.Fatalf("the other slot holds %+v (error %v), want image %d", before, err, last.Iteration-1)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != FileName || entries[1].Name() != spareName {
		t.Fatalf("directory after Close holds %v, want only %s and %s", entries, FileName, spareName)
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

// putImages puts images 1..k of one run through a Writer into dir and returns
// the state each carried, indexed by Iteration. Every image differs from the
// others in its values and in its last word, so that an image torn over
// another one is never byte-equal to either.
func putImages(t testing.TB, dir string, k int) []*State {
	t.Helper()
	w := NewWriter(dir)
	states := make([]*State, k+1)
	for i := 1; i <= k; i++ {
		s := sampleState()
		s.Iteration = i
		for v := range s.Values {
			s.Values[v] += float64(i)
		}
		s.TouchedNext[len(s.TouchedNext)-1] = uint64(i)
		if err := w.Put(s); err != nil {
			t.Fatal(err)
		}
		states[i] = s
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// TestTornNewestSlotFallsBack: after Puts of images 1..k, slot k's file torn
// mid-overwrite — image k's bytes up to a cut, then what remains of image
// k−2, which the slot held before — or cut short, or with one byte flipped,
// is rejected, and Load returns image k−1 exactly.
func TestTornNewestSlotFallsBack(t *testing.T) {
	const k = 6
	run := t.TempDir()
	states := putImages(t, run, k)
	_, slot, err := newest(run)
	if err != nil {
		t.Fatal(err)
	}
	newImage, err := os.ReadFile(slotPaths(run)[slot])
	if err != nil {
		t.Fatal(err)
	}
	oldImage := encode(nil, states[k-2])
	if len(oldImage) != len(newImage) {
		t.Fatalf("images %d and %d differ in length: %d, %d", k-2, k, len(oldImage), len(newImage))
	}
	other, err := os.ReadFile(slotPaths(run)[1-slot])
	if err != nil {
		t.Fatal(err)
	}

	// Over which file content Load must fall back to image k−1.
	var torn []struct {
		what string
		data []byte
	}
	add := func(what string, data []byte) {
		torn = append(torn, struct {
			what string
			data []byte
		}{what, data})
	}
	for cut := 0; cut < len(newImage); cut += 1 + cut/3 {
		add(fmt.Sprintf("image %d cut at %d over image %d", k, cut, k-2),
			append(bytes.Clone(newImage[:cut]), oldImage[cut:]...))
		add(fmt.Sprintf("image %d cut short at %d", k, cut), bytes.Clone(newImage[:cut]))
	}
	for _, at := range []int{0, len(magic), len(magic) + 4, len(newImage) / 2, len(newImage) - 1} {
		data := bytes.Clone(newImage)
		data[at] ^= 0x10
		add(fmt.Sprintf("image %d with byte %d flipped", k, at), data)
	}
	for _, c := range torn {
		dir := t.TempDir()
		files := [2][]byte{}
		files[slot], files[1-slot] = c.data, other
		for i, data := range files {
			if err := os.WriteFile(slotPaths(dir)[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Load(dir)
		if err != nil || !reflect.DeepEqual(got, states[k-1]) {
			t.Fatalf("%s: Load = %+v (error %v), want image %d", c.what, got, err, k-1)
		}
	}
}

// TestLoadBothSlotsBad: with no valid image in either slot, Load fails with
// the error of FileName's image — or of the spare's, when FileName is missing
// — exactly the error a directory holding only that file gave before there
// were two slots.
func TestLoadBothSlotsBad(t *testing.T) {
	valid := encode(nil, sampleState())
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)-1] ^= 0xff
	bad := map[string][]byte{
		"crc32c":    corrupt,
		"magic":     []byte("NOTACKPT????body"),
		"truncated": []byte("GSD"),
	}
	for first, data := range bad {
		for second, spare := range bad {
			dir := t.TempDir()
			if err := os.WriteFile(Path(dir), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(SparePath(dir), spare, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), first) {
				t.Fatalf("%s image beside a %s spare: Load = %v, want the %s error", first, second, err, first)
			}
			if err := os.Remove(Path(dir)); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), second) {
				t.Fatalf("%s spare alone: Load = %v, want the %s error", second, err, second)
			}
		}
	}
}

// BenchmarkWriterPut times one checkpoint image's publish through a Writer, for
// the state of a 16 384-vertex PageRank job — the size of a served job's image
// — from Put to the end of its write: first-write is a run's first image,
// whose slot file is created and whose directory is synced; in-place is every
// later one, an overwrite of an open slot and one fsync.
func BenchmarkWriterPut(b *testing.B) {
	const n = 16384
	words := make([]uint64, (n+63)/64)
	s := &State{Algorithm: "pagerank", NumVertices: n, P: 4, Iteration: 1,
		Values: make([]float64, n), AccNext: make([]float64, n), Active: words, TouchedNext: words}
	put := func(b *testing.B, w *Writer) {
		s.Iteration++
		if err := w.Put(s); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first-write", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := Remove(dir); err != nil {
				b.Fatal(err)
			}
			w := NewWriter(dir)
			b.StartTimer()
			put(b, w)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/image")
	})
	b.Run("in-place", func(b *testing.B) {
		w := NewWriter(b.TempDir())
		put(b, w) // both slots created
		put(b, w)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			put(b, w)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/image")
	})
}
