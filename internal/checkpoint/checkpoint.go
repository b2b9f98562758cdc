// Package checkpoint persists engine execution state at iteration
// boundaries so an interrupted out-of-core run can resume instead of
// recomputing every completed iteration. An image carries a magic header plus
// a CRC32C of the body, so a torn or corrupted image is detected at load
// rather than resumed from.
//
// A checkpoint directory holds up to two image slots, FileName and a spare.
// A running engine hands its images to a Writer, which overwrites in place the
// slot that does not hold the newest valid image, then fsyncs it, while the
// next step runs; Load returns the valid slot with the larger Iteration, so a
// slot torn by a crash falls back to the image before it. Save writes one image
// synchronously through temp file → fsync → rename → directory fsync.
//
// The checkpoint directory is a plain host directory, deliberately outside
// the simulated storage.Device: checkpoints are operational state of the
// run, not graph data, and they must survive exactly the faults the device
// is being used to inject.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// FileName is the checkpoint directory's first image slot, and the file Save
// writes. spareName is the second slot, which only a Writer writes.
const (
	FileName  = "checkpoint.bin"
	spareName = "checkpoint.spare.bin"
)

// magic identifies a checkpoint file; the trailing digits are the format
// version.
var magic = [8]byte{'G', 'S', 'D', 'C', 'K', 'P', '0', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is the engine state captured at an iteration boundary: everything
// needed to re-enter the BSP loop and produce results bit-identical to an
// uninterrupted run.
type State struct {
	// Algorithm is the program name; resume refuses a mismatched program.
	Algorithm string
	// NumVertices and P pin the layout shape the state belongs to.
	NumVertices int
	P           int
	// Iteration is the number of completed iterations.
	Iteration int
	// SecondaryPending records that the interrupted run's next iteration
	// is the deferred second FCIU phase.
	SecondaryPending bool
	// Values holds the vertex values after Iteration iterations.
	Values []float64
	// Aux holds the program's auxiliary per-vertex state; nil when the
	// program keeps none.
	Aux []float64
	// AccNext holds the staged next-iteration accumulators (cross-
	// iteration contributions scattered ahead of the barrier).
	AccNext []float64
	// Active holds the frontier bitset words entering the next iteration;
	// TouchedNext the staged next-iteration touched bitset words.
	Active      []uint64
	TouchedNext []uint64
	// Async marks a checkpoint taken by the asynchronous engine, whose loop
	// state differs from BSP's: Iteration doubles as the scheduler step
	// counter, and Consumed holds the ever-consumed bitset words
	// (reactivation accounting). No schedule state is stored — the engine
	// picks each next row from Active alone. BSP checkpoints leave both zero,
	// keeping the format backward compatible. An async image also holds a
	// per-row word slot before Consumed, where older engines kept their
	// rows' enqueue steps: it is written empty and skipped on read.
	Async    bool
	Consumed []uint64
	// Threads is the scatter parallelism of the run that wrote the
	// checkpoint: 1 for every run since the engine scatters on one
	// goroutine, more for files from older parallel runs, zero in files
	// written before it was recorded. The engine writes 1 and ignores it on
	// resume; it stays so that the format does not change.
	Threads int
}

// Path returns the path of the first image slot inside dir, FileName.
func Path(dir string) string { return filepath.Join(dir, FileName) }

// SparePath returns the path of the second image slot inside dir.
func SparePath(dir string) string { return filepath.Join(dir, spareName) }

// slotPaths returns dir's two image slots, FileName first.
func slotPaths(dir string) [2]string { return [2]string{Path(dir), SparePath(dir)} }

// Exists reports whether dir holds an image in either slot.
func Exists(dir string) bool {
	for _, p := range slotPaths(dir) {
		if _, err := os.Stat(p); err == nil {
			return true
		}
	}
	return false
}

// Remove deletes the images in dir, if any.
func Remove(dir string) error {
	for _, p := range slotPaths(dir) {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checkpoint: removing: %w", err)
		}
	}
	return nil
}

// Save atomically makes s dir's only checkpoint image. The data path is temp
// file → fsync → rename over FileName → removal of the spare slot → directory
// fsync; a crash at any point leaves the previous images or the new one, never
// a torn file under FileName. Load prefers the larger Iteration, so a crash
// before the spare's removal is durable may leave a spare newer than s.
func Save(dir string, s *State) error { return publish(dir, encode(nil, s)) }

// encode builds s's file image — magic, CRC32C of the body, body — in buf,
// reusing its capacity, and returns it.
func encode(buf []byte, s *State) []byte {
	buf = append(buf[:0], magic[:]...)
	buf = append(buf, 0, 0, 0, 0)
	buf = s.appendBody(buf)
	binary.LittleEndian.PutUint32(buf[len(magic):], crc32.Checksum(buf[len(magic)+4:], castagnoli))
	return buf
}

// publish makes image dir's only checkpoint image, crash-safely (see Save).
func publish(dir string, image []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: creating dir: %w", err)
	}
	p := Path(dir)
	tmp := p + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, werr := f.Write(image)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: publishing: %w", err)
	}
	if err := os.Remove(SparePath(dir)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: removing the spare: %w", err)
	}
	return syncDir(dir)
}

// syncDir makes dir's entries durable: a rename, a removal, a created file.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: syncing dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if err := errors.Join(serr, cerr); err != nil {
		return fmt.Errorf("checkpoint: syncing dir: %w", err)
	}
	return nil
}

// Load reads dir's image slots and returns the valid one with the larger
// Iteration, FileName's on a tie. A slot that is missing, torn or corrupt is
// passed over; when no slot holds a valid image, the error is FileName's, or
// the spare's when FileName is missing.
func Load(dir string) (*State, error) {
	st, _, err := newest(dir)
	return st, err
}

// newest loads both of dir's slots and returns the valid image with the
// larger Iteration and its slot, as Load describes.
func newest(dir string) (*State, int, error) {
	var best *State
	slot := -1
	var errs [2]error
	for i, p := range slotPaths(dir) {
		st, err := loadFile(p)
		if err != nil {
			errs[i] = err
		} else if best == nil || st.Iteration > best.Iteration {
			best, slot = st, i
		}
	}
	switch {
	case best != nil:
		return best, slot, nil
	case errors.Is(errs[0], os.ErrNotExist) && !errors.Is(errs[1], os.ErrNotExist):
		return nil, -1, errs[1]
	default:
		return nil, -1, errs[0]
	}
}

// loadFile reads and validates the image at path.
func loadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decode(data)
}

// decode validates and parses the bytes of a checkpoint file.
func decode(data []byte) (*State, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("checkpoint: file truncated at %d bytes", len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:len(magic)])
	}
	want := binary.LittleEndian.Uint32(data[len(magic):])
	body := data[len(magic)+4:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("checkpoint: body crc32c %08x, header records %08x — checkpoint corrupt", got, want)
	}
	s := &State{}
	if err := s.parseBody(body); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return s, nil
}

// Info is the cheap identity summary Inspect returns: enough to decide
// whether a checkpoint is resumable by a given run (same program, same
// layout shape, same engine mode) without touching the state arrays.
type Info struct {
	Algorithm   string
	NumVertices int
	P           int
	Iteration   int
	// Async reports the engine mode that wrote the checkpoint: the BSP and
	// async loop states are mutually non-resumable, and the engine refuses
	// the mismatch. Callers that can fall back (the job server re-running a
	// recovered job fresh) use Inspect to discard the stale file instead of
	// failing the job.
	Async bool
}

// Inspect loads and validates the checkpoint in dir and returns its
// identity. The full state is parsed (validating the CRC and structure) but
// not retained.
func Inspect(dir string) (Info, error) {
	st, err := Load(dir)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Algorithm:   st.Algorithm,
		NumVertices: st.NumVertices,
		P:           st.P,
		Iteration:   st.Iteration,
		Async:       st.Async,
	}, nil
}

const (
	flagSecondaryPending = 1 << 0
	flagHasAux           = 1 << 1
	flagAsync            = 1 << 2
	flagHasThreads       = 1 << 3
)

func (s *State) appendBody(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.Algorithm)))
	buf = append(buf, s.Algorithm...)
	buf = binary.AppendUvarint(buf, uint64(s.NumVertices))
	buf = binary.AppendUvarint(buf, uint64(s.P))
	buf = binary.AppendUvarint(buf, uint64(s.Iteration))
	var flags byte
	if s.SecondaryPending {
		flags |= flagSecondaryPending
	}
	if s.Aux != nil {
		flags |= flagHasAux
	}
	if s.Async {
		flags |= flagAsync
	}
	if s.Threads > 0 {
		flags |= flagHasThreads
	}
	buf = append(buf, flags)
	buf = appendFloats(buf, s.Values)
	if s.Aux != nil {
		buf = appendFloats(buf, s.Aux)
	}
	buf = appendFloats(buf, s.AccNext)
	buf = appendWords(buf, s.Active)
	buf = appendWords(buf, s.TouchedNext)
	if s.Async {
		buf = appendWords(buf, nil)
		buf = appendWords(buf, s.Consumed)
	}
	if s.Threads > 0 {
		buf = binary.AppendUvarint(buf, uint64(s.Threads))
	}
	return buf
}

func (s *State) parseBody(data []byte) error {
	r := &reader{data: data}
	nameLen := r.uvarint("algorithm length")
	name := r.bytes(int(nameLen), "algorithm name")
	s.Algorithm = string(name)
	s.NumVertices = int(r.uvarint("vertex count"))
	s.P = int(r.uvarint("interval count"))
	s.Iteration = int(r.uvarint("iteration"))
	flags := r.byte("flags")
	s.SecondaryPending = flags&flagSecondaryPending != 0
	s.Values = r.floats("values")
	if flags&flagHasAux != 0 {
		s.Aux = r.floats("aux")
	}
	s.AccNext = r.floats("accumulators")
	s.Active = r.words("active bitset")
	s.TouchedNext = r.words("touched bitset")
	if flags&flagAsync != 0 {
		s.Async = true
		r.words("enqueue steps")
		s.Consumed = r.words("consumed bitset")
	}
	if flags&flagHasThreads != 0 {
		s.Threads = int(r.uvarint("thread count"))
	}
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.data))
	}
	return nil
}

func appendFloats(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendWords(buf []byte, words []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// reader is a cursor over the checkpoint body that records the first
// decode error instead of forcing error checks at every field.
type reader struct {
	data []byte
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated or corrupt %s", what)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.data)
	if k <= 0 {
		r.fail(what)
		return 0
	}
	r.data = r.data[k:]
	return v
}

func (r *reader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 1 {
		r.fail(what)
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *reader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *reader) floats(what string) []float64 {
	raw := r.array(what)
	if r.err != nil {
		return nil
	}
	vals := make([]float64, len(raw)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return vals
}

func (r *reader) words(what string) []uint64 {
	raw := r.array(what)
	if r.err != nil {
		return nil
	}
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return words
}

// array reads a count-prefixed array of 8-byte elements and returns its raw
// bytes. The count is held to the bytes left before it is multiplied: a count
// of 2^61+1 would otherwise wrap to 8 bytes, pass the length check and size
// the slice at 2^61+1 elements.
func (r *reader) array(what string) []byte {
	n := r.uvarint(what)
	if r.err == nil && n > uint64(len(r.data))/8 {
		r.fail(what)
		return nil
	}
	return r.bytes(int(n)*8, what)
}
