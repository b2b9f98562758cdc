// Package wal implements the segmented, CRC32C-framed write-ahead log that
// backs both the job scheduler's journal and the mutable-graph mutation log.
// It owns the framing and recovery discipline; callers own the payload
// encoding and the decision of which appends must be durable.
//
// The log lives in a plain host directory — operational state deliberately
// outside the simulated storage.Device whose faults it must survive. It is
// segmented: frames are appended to the newest segment and the file rotates
// once it passes the configured size, so replay cost and torn-tail blast
// radius stay bounded. Each process run opens a fresh segment; earlier
// segments are never touched again, which is what makes the "only the newest
// segment of each run can be torn" replay rule sound.
//
// Frame format (little-endian):
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// Replay walks segments in creation order and tolerates a truncated or
// corrupt tail in any segment — the signature a crash mid-append leaves —
// by stopping that segment at the first bad frame and continuing with the
// next segment. Synced appends are fsynced before returning (durability
// precedes acknowledgement); unsynced appends are buffered by the OS.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/graphsd/graphsd/internal/storage"
)

// ErrUnavailable is returned by Append once the log has failed: after any
// append error the log is considered lost for the remainder of the process
// (a real WAL on a failed disk is not coming back), and the caller degrades
// to shedding writes it cannot make durable.
var ErrUnavailable = errors.New("wal: log unavailable")

// DefaultSegmentBytes is the rotation threshold when Options leaves it zero.
const DefaultSegmentBytes = 1 << 20

// DefaultMaxFrameBytes bounds a single frame; a length field beyond it is
// treated as tail corruption, not an allocation request.
const DefaultMaxFrameBytes = 1 << 22

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a log.
type Options struct {
	// Prefix names segment files: "<prefix>-%06d.wal". Required.
	Prefix string
	// Magic opens every segment so a foreign file in the directory is
	// rejected instead of replayed. Required (all-zero is rejected).
	Magic [8]byte
	// SegmentBytes is the rotation threshold (0: DefaultSegmentBytes).
	SegmentBytes int64
	// MaxFrameBytes bounds one frame (0: DefaultMaxFrameBytes).
	MaxFrameBytes int
	// Accept, when set, validates each replayed payload; a rejected frame
	// is treated like a torn tail (the segment stops there). Callers whose
	// payloads have internal structure use it so replay never hands back a
	// frame they cannot decode.
	Accept func(payload []byte) bool
}

// Stats describes a log's activity.
type Stats struct {
	// Records and Bytes count appends by this process (frames, not payloads).
	Records int64
	Bytes   int64
	// Segments is the number of segment files on disk, including the
	// active one.
	Segments int
	// ReplayRecords is the number of frames recovered at open;
	// ReplayTruncated counts segments whose tail was torn or corrupt and
	// was discarded; ReplayTime is the wall clock the replay took.
	ReplayRecords   int64
	ReplayTruncated int
	ReplayTime      time.Duration
}

// Log is the append-side handle. Safe for concurrent use; appends are
// serialised.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	segIndex int
	segSize  int64
	stats    Stats
	replayed [][]byte
	fault    func(op, name string) error
	failed   error // sticky: first append failure
	closed   bool
}

// Open opens (creating if needed) the log in dir, replays every existing
// segment, and starts a fresh active segment for this process's appends.
// The replayed payloads are handed out once, by ConsumeReplay.
func Open(dir string, opt Options) (*Log, error) {
	if opt.Prefix == "" {
		return nil, fmt.Errorf("wal: empty segment prefix")
	}
	if opt.Magic == ([8]byte{}) {
		return nil, fmt.Errorf("wal: zero magic")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.MaxFrameBytes <= 0 {
		opt.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	l := &Log{dir: dir, opt: opt}

	start := time.Now()
	names, err := l.segmentNames()
	if err != nil {
		return nil, err
	}
	maxIdx := 0
	for _, name := range names {
		idx := l.segmentIndex(name)
		if idx > maxIdx {
			maxIdx = idx
		}
		frames, truncated, err := l.replaySegment(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if truncated {
			l.stats.ReplayTruncated++
		}
		l.replayed = append(l.replayed, frames...)
	}
	l.stats.ReplayRecords = int64(len(l.replayed))
	l.stats.ReplayTime = time.Since(start)
	l.stats.Segments = len(names)

	l.segIndex = maxIdx + 1
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// segmentNames lists the log's segment files in index order.
func (l *Log) segmentNames() ([]string, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && l.segmentIndex(e.Name()) > 0 {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(a, b int) bool { return l.segmentIndex(names[a]) < l.segmentIndex(names[b]) })
	return names, nil
}

func (l *Log) segmentName(idx int) string { return fmt.Sprintf("%s-%06d.wal", l.opt.Prefix, idx) }

// segmentIndex parses a segment file name, returning 0 for foreign files.
func (l *Log) segmentIndex(name string) int {
	var idx int
	if _, err := fmt.Sscanf(name, l.opt.Prefix+"-%06d.wal", &idx); err != nil {
		return 0
	}
	return idx
}

// openSegment creates the segment at l.segIndex, writes the magic header,
// and fsyncs file and directory so the segment survives a crash.
func (l *Log) openSegment() error {
	p := filepath.Join(l.dir, l.segmentName(l.segIndex))
	f, err := os.OpenFile(p, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: segment: %w", err)
	}
	if _, err := f.Write(l.opt.Magic[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(p)
		return fmt.Errorf("wal: segment: %w", err)
	}
	if d, err := os.Open(l.dir); err == nil {
		d.Sync()
		d.Close()
	}
	l.f = f
	l.segSize = int64(len(l.opt.Magic))
	l.stats.Segments++
	return nil
}

// ConsumeReplay returns the payloads recovered when the log was opened, in
// append order, and releases the log's reference to them.
func (l *Log) ConsumeReplay() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	frames := l.replayed
	l.replayed = nil
	return frames
}

// SetFaultInjector installs fn on the append path, for chaos tests: it is
// consulted with op "append" and the active segment's name before every
// append. An error wrapping storage.ErrTornWrite leaves a torn half-frame
// on disk (the signature of a crash mid-append); any error marks the log
// failed — every later Append returns ErrUnavailable. A storage.Chaos
// injector slots in directly.
func (l *Log) SetFaultInjector(fn func(op, name string) error) {
	l.mu.Lock()
	l.fault = fn
	l.mu.Unlock()
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err returns the sticky failure that made the log unavailable, nil while
// it is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append frames payload and writes it to the active segment. With sync set
// the frame is fsynced before returning (durability precedes
// acknowledgement); without it the loss of the frame must cost the caller
// nothing more than a progress display. After the first failure every call
// returns ErrUnavailable. A payload over MaxFrameBytes is refused without
// failing the log: replay would take its frame for a torn tail and drop every
// later frame of the segment with it.
func (l *Log) Append(payload []byte, sync bool) error {
	if len(payload) > l.opt.MaxFrameBytes {
		return fmt.Errorf("wal: %d-byte payload exceeds the %d-byte frame limit", len(payload), l.opt.MaxFrameBytes)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, l.failed)
	}
	if l.closed {
		return fmt.Errorf("%w: closed", ErrUnavailable)
	}
	if l.fault != nil {
		if ferr := l.fault("append", l.segmentName(l.segIndex)); ferr != nil {
			if errors.Is(ferr, storage.ErrTornWrite) {
				// A crash mid-append: a prefix of the frame reaches the
				// disk and nothing after it ever will.
				l.f.Write(frame[:len(frame)/2])
				l.f.Sync()
			}
			l.failed = ferr
			return fmt.Errorf("%w: %w", ErrUnavailable, ferr)
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.failed = err
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			l.failed = err
			return fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
	l.segSize += int64(len(frame))
	l.stats.Records++
	l.stats.Bytes += int64(len(frame))
	if l.segSize >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.failed = err
			return fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
	return nil
}

// rotate seals the active segment and opens the next. Called with mu held.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segIndex++
	return l.openSegment()
}

// Close seals the log; subsequent appends fail with ErrUnavailable.
// Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	return errors.Join(serr, cerr)
}

// replaySegment decodes one segment, stopping at the first bad frame.
// truncated reports whether anything after the last good frame was
// discarded. A missing or foreign magic header is an error — that is not
// the signature of a crash.
func (l *Log) replaySegment(path string) (frames [][]byte, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(data) < len(l.opt.Magic) || string(data[:len(l.opt.Magic)]) != string(l.opt.Magic[:]) {
		return nil, false, fmt.Errorf("bad segment magic")
	}
	data = data[len(l.opt.Magic):]
	for len(data) > 0 {
		if len(data) < 8 {
			return frames, true, nil
		}
		n := binary.LittleEndian.Uint32(data)
		want := binary.LittleEndian.Uint32(data[4:])
		if n > uint32(l.opt.MaxFrameBytes) || int(n) > len(data)-8 {
			return frames, true, nil
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != want {
			return frames, true, nil
		}
		if l.opt.Accept != nil && !l.opt.Accept(payload) {
			return frames, true, nil
		}
		frames = append(frames, append([]byte(nil), payload...))
		data = data[8+n:]
	}
	return frames, false, nil
}

// ReadAll replays a log directory read-only — no segment is created or
// touched — returning the recovered payloads. Foreign-magic segments are an
// error; torn tails truncate like Open's replay. Tools (graphsd stats) use
// it to inspect a live server's pending mutations without disturbing the
// log.
func ReadAll(dir string, opt Options) (frames [][]byte, truncated int, err error) {
	if opt.MaxFrameBytes <= 0 {
		opt.MaxFrameBytes = DefaultMaxFrameBytes
	}
	l := &Log{dir: dir, opt: opt}
	names, err := l.segmentNames()
	if err != nil {
		if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	for _, name := range names {
		segFrames, torn, err := l.replaySegment(filepath.Join(dir, name))
		if err != nil {
			return frames, truncated, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if torn {
			truncated++
		}
		frames = append(frames, segFrames...)
	}
	return frames, truncated, nil
}
