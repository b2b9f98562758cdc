package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hostileCount is a well-formed 57-byte checkpoint, CRC and all, whose value
// count is 2^61+1: eight times that wraps to 8, which the eight bytes after the
// count satisfy, so the reader used to pass its length check and die in
// make([]float64, 2^61+1) — killing `graphsd serve` at restart (resumable
// checkpoint → Inspect) and `graphsd run -resume`.
var hostileCount = filepath.Join("testdata", "hostile_count.bin")

// seedImages reads the checkpoint fuzzers' seeds: every golden checkpoint of
// the core resume suite, testdata/ckpt_*.bin there, and the hostile count,
// last.
func seedImages(f *testing.F) [][]byte {
	names, err := filepath.Glob(filepath.Join("..", "core", "testdata", "ckpt_*.bin"))
	if err != nil || len(names) < 2 {
		f.Fatalf("golden checkpoints %v (%v), want at least two", names, err)
	}
	var images [][]byte
	for _, name := range append(names, hostileCount) {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, data)
	}
	return images
}

func TestLoadRejectsOverflowingCount(t *testing.T) {
	data, err := os.ReadFile(hostileCount)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 57 {
		t.Fatalf("%s holds %d bytes, want the 57 of the reported file", hostileCount, len(data))
	}
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("Load = %v, want an error naming the values array", err)
	}
	if _, err := Inspect(dir); err == nil {
		t.Fatal("Inspect accepted the checkpoint Load rejects")
	}
}

// FuzzCheckpointLoad feeds arbitrary file contents to the checkpoint decoder
// Load runs: an error or a state, never a panic, and a state it accepts is one
// the writer reproduces — appendBody → parseBody gives it back unchanged, which
// is compared through the encoding because a value may be any NaN. Each input's
// CRC is re-stamped over its body first, so that mutations reach the parser
// rather than stopping at the checksum, as a hostile file's would. The seed
// corpus (run by every `go test`) holds every golden checkpoint of the core
// resume suite and the hostile count above.
func FuzzCheckpointLoad(f *testing.F) {
	for _, data := range seedImages(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(magic)+4 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data[len(magic):], crc32.Checksum(data[len(magic)+4:], castagnoli))
		}
		s, err := decode(data)
		if err != nil {
			return
		}
		body := s.appendBody(nil)
		again := &State{}
		if err := again.parseBody(body); err != nil {
			t.Fatalf("a loaded state's own body does not parse: %v", err)
		}
		if got := again.appendBody(nil); !bytes.Equal(got, body) {
			t.Fatalf("state changed across appendBody → parseBody:\n%+v\n%+v", s, again)
		}
		if (again.Aux == nil) != (s.Aux == nil) {
			t.Fatalf("aux presence changed across appendBody → parseBody")
		}
	})
}

// FuzzCheckpointLoadSlots feeds two arbitrary slot files to Load — an empty
// input stands for a missing file — which never panics, and a state it
// returns is the valid image of the larger Iteration, FileName's on a tie.
// Each input's CRC is re-stamped when its bit of stamp is set, so that both
// valid images and images the CRC rejects reach the comparison.
func FuzzCheckpointLoadSlots(f *testing.F) {
	seeds := seedImages(f)
	hostile := seeds[len(seeds)-1]
	for k, data := range seeds[:len(seeds)-1] {
		next := seeds[(k+1)%(len(seeds)-1)]
		f.Add(data, next, uint8(0))
		f.Add(data, hostile, uint8(3))
		f.Add([]byte{}, data, uint8(1))
	}
	f.Fuzz(func(t *testing.T, first, spare []byte, stamp uint8) {
		dir := t.TempDir()
		var want *State
		for i, data := range [][]byte{first, spare} {
			if len(data) == 0 {
				continue
			}
			if stamp&(1<<i) != 0 && len(data) >= len(magic)+4 {
				data = bytes.Clone(data)
				binary.LittleEndian.PutUint32(data[len(magic):], crc32.Checksum(data[len(magic)+4:], castagnoli))
			}
			if err := os.WriteFile(slotPaths(dir)[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := decode(data); err == nil && (want == nil || s.Iteration > want.Iteration) {
				want = s
			}
		}
		got, err := Load(dir)
		if err != nil {
			if want != nil {
				t.Fatalf("Load failed (%v) beside a valid image at step %d", err, want.Iteration)
			}
			return
		}
		if want == nil {
			t.Fatalf("Load returned a state at step %d from two invalid slots", got.Iteration)
		}
		if !bytes.Equal(got.appendBody(nil), want.appendBody(nil)) {
			t.Fatalf("Load returned step %d, want the valid image at step %d", got.Iteration, want.Iteration)
		}
	})
}
