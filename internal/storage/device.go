package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Device is a directory-backed simulated disk. Every operation performs the
// real file I/O and charges simulated time from the device Profile; the
// charge is recorded in per-class counters retrievable with Stats.
//
// Reads that fail with a transient error (see IsTransient) are retried
// under the installed RetryPolicy with capped exponential backoff; the
// backoff is charged as simulated device time, never slept. Writes are
// published atomically (write-temp + fsync + rename) so a crash mid-write
// can never leave a torn file under the final name.
//
// Device methods are safe for concurrent use.
type Device struct {
	dir   string
	prof  Profile
	stats stats

	// fault, when non-nil, is consulted before every operation and may
	// return an error to inject a failure (tests only). tracer, when
	// non-nil, observes every accounted operation (SetTracer).
	mu     sync.RWMutex
	fault  func(op, name string) error
	tracer func(TraceEvent)

	// retry configures transient-read retries; the zero policy disables
	// them. retryRng drives the backoff jitter. Guarded by retryMu.
	retryMu  sync.Mutex
	retry    RetryPolicy
	retryRng *rand.Rand
}

// OpenDevice opens (creating if needed) a device rooted at dir.
func OpenDevice(dir string, prof Profile) (*Device, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating device dir: %w", err)
	}
	return &Device{dir: dir, prof: prof}, nil
}

// Dir returns the backing directory.
func (d *Device) Dir() string { return d.dir }

// Profile returns the device's cost profile.
func (d *Device) Profile() Profile { return d.prof }

// Stats returns a snapshot of the I/O counters.
func (d *Device) Stats() Snapshot {
	var s Snapshot
	for c := 0; c < int(numClasses); c++ {
		s.Bytes[c] = d.stats.bytes[c].Load()
		s.Ops[c] = d.stats.ops[c].Load()
		s.Time[c] = time.Duration(d.stats.nanos[c].Load())
	}
	s.Retries = d.stats.retries.Load()
	return s
}

// Charge records an I/O of n bytes in class c without touching any file.
// Engines use it for modelled transfers whose payload is already resident
// (e.g. the vertex-value write-back, which lives in memory but must be
// persisted once per iteration in the paper's cost model).
func (d *Device) Charge(c Class, n int64) time.Duration {
	cost := d.prof.Cost(c, n)
	d.stats.add(c, n, cost)
	d.emit("charge", c, "", -1, n, cost, 0)
	return cost
}

// SetFaultInjector installs fn, which is consulted before every file
// operation with the operation name ("create", "write", "read", "readat",
// "remove") and file name; a non-nil return aborts the operation with that
// error. With a RetryPolicy installed, transiently failing reads re-consult
// the injector on every attempt. Pass nil to clear. For tests.
func (d *Device) SetFaultInjector(fn func(op, name string) error) {
	d.mu.Lock()
	d.fault = fn
	d.mu.Unlock()
}

// SetRetryPolicy installs p for transient-read retries. The zero policy
// (the default) disables retrying.
func (d *Device) SetRetryPolicy(p RetryPolicy) {
	d.retryMu.Lock()
	d.retry = p
	d.retryRng = rand.New(rand.NewSource(p.Seed))
	d.retryMu.Unlock()
}

// retryRead runs attempt, re-running it after transient failures until it
// succeeds, fails permanently, or exhausts the policy's retry budget. It
// returns the number of retries performed and the cumulative backoff
// delay; the caller folds the delay into the operation's simulated cost —
// the wall clock never sleeps, keeping chaos tests fast and deterministic.
func (d *Device) retryRead(attempt func() error) (retries int, backoff time.Duration, err error) {
	for try := 0; ; try++ {
		err = attempt()
		d.retryMu.Lock()
		pol := d.retry
		d.retryMu.Unlock()
		if err == nil || try >= pol.MaxRetries || !IsTransient(err) {
			return retries, backoff, err
		}
		backoff += d.backoffDelay(pol, try)
		retries++
	}
}

// backoffDelay computes the backoff before retry number attempt (0-based):
// exponential growth from BaseDelay, capped at MaxDelay, with uniform
// jitter in [delay/2, delay) drawn from the policy's seeded source.
func (d *Device) backoffDelay(pol RetryPolicy, attempt int) time.Duration {
	base := pol.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt > 30 {
		attempt = 30 // shift guard; real budgets are single digits
	}
	delay := base << uint(attempt)
	if delay <= 0 || (pol.MaxDelay > 0 && delay > pol.MaxDelay) {
		delay = pol.MaxDelay
		if delay <= 0 {
			delay = base
		}
	}
	d.retryMu.Lock()
	rng := d.retryRng
	var j float64
	if rng != nil {
		j = rng.Float64()
	}
	d.retryMu.Unlock()
	half := delay / 2
	return half + time.Duration(j*float64(half))
}

func (d *Device) checkFault(op, name string) error {
	d.mu.RLock()
	fn := d.fault
	d.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(op, name)
}

func (d *Device) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "..") || filepath.IsAbs(name) {
		return "", fmt.Errorf("storage: invalid file name %q", name)
	}
	return filepath.Join(d.dir, filepath.FromSlash(name)), nil
}

// WriteFile writes data to name as one sequential stream, replacing any
// existing file, and charges a sequential write. The write is atomic: data
// lands in a temp file in the same directory, is fsynced, and is renamed
// over name, so a crash (or injected torn write) leaves either the old
// intact file or nothing — never a torn one.
func (d *Device) WriteFile(name string, data []byte) error {
	fault := d.checkFault("write", name)
	if fault != nil && !errors.Is(fault, ErrTornWrite) {
		return fault
	}
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("storage: creating parent dir: %w", err)
	}
	tmp := p + ".tmp"
	if fault != nil {
		// Injected torn write: the crash lands mid-stream, after a prefix
		// of the payload reached the temp file and before the publishing
		// rename — the final name is never touched.
		_ = os.WriteFile(tmp, data[:len(data)/2], 0o644)
		return fault
	}
	if err := writeFileAtomic(p, tmp, data); err != nil {
		return fmt.Errorf("storage: writing %s: %w", name, err)
	}
	cost := d.prof.Cost(SeqWrite, int64(len(data)))
	d.stats.add(SeqWrite, int64(len(data)), cost)
	d.emit("write", SeqWrite, name, -1, int64(len(data)), cost, 0)
	return nil
}

// writeFileAtomic publishes data at p via tmp: write, fsync, rename.
func writeFileAtomic(p, tmp string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, p)
}

// ReadFile reads the whole of name as one sequential stream and charges a
// sequential read plus one positioning seek.
func (d *Device) ReadFile(name string) ([]byte, error) {
	return d.ReadFileInto(name, nil)
}

// ReadFileInto is ReadFile reading into buf, growing it only when its
// capacity is insufficient. It is Reader.ReadFileInto around one open and
// close; a caller that reads name again and again keeps the Reader instead.
func (d *Device) ReadFileInto(name string, buf []byte) ([]byte, error) {
	r := d.Reader(name)
	defer r.Close()
	return r.ReadFileInto(buf)
}

// Remove deletes name. Removing a missing file is an error.
func (d *Device) Remove(name string) error {
	if err := d.checkFault("remove", name); err != nil {
		return err
	}
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("storage: removing %s: %w", name, err)
	}
	return nil
}

// Exists reports whether name exists on the device.
func (d *Device) Exists(name string) bool {
	p, err := d.path(name)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Size returns the size of name in bytes.
func (d *Device) Size(name string) (int64, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, fmt.Errorf("storage: stat %s: %w", name, err)
	}
	return fi.Size(), nil
}

// List returns the device-relative names of all regular files, sorted.
func (d *Device) List() ([]string, error) {
	var names []string
	err := filepath.Walk(d.dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			rel, err := filepath.Rel(d.dir, p)
			if err != nil {
				return err
			}
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: listing device: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// Create opens name for sequential writing, truncating any existing file.
func (d *Device) Create(name string) (*Writer, error) {
	if err := d.checkFault("create", name); err != nil {
		return nil, err
	}
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating parent dir: %w", err)
	}
	f, err := os.Create(p)
	if err != nil {
		return nil, fmt.Errorf("storage: creating %s: %w", name, err)
	}
	return &Writer{dev: d, name: name, f: f}, nil
}

// Reader returns a reader of name that opens the file at its first read and
// keeps it open until Close: the caller decides whether a descriptor serves
// one read, one pass or every read of a run.
func (d *Device) Reader(name string) *Reader {
	return &Reader{dev: d, name: name, lastEnd: -1}
}

// Open opens name for positional reads.
func (d *Device) Open(name string) (*Reader, error) {
	r := d.Reader(name)
	if err := r.Restart(); err != nil {
		return nil, err
	}
	if _, _, err := r.file(); err != nil {
		return nil, err
	}
	return r, nil
}

// Writer is a sequential file writer on a Device. Writes are charged as
// sequential writes. Not safe for concurrent use.
type Writer struct {
	dev  *Device
	name string
	f    *os.File
	n    int64
}

// Write appends p to the file and charges a sequential write.
func (w *Writer) Write(p []byte) (int, error) {
	if err := w.dev.checkFault("write", w.name); err != nil {
		return 0, err
	}
	n, err := w.f.Write(p)
	cost := w.dev.prof.SeqCost(SeqWrite, int64(n))
	w.dev.stats.add(SeqWrite, int64(n), cost)
	w.dev.emit("append", SeqWrite, w.name, w.n, int64(n), cost, 0)
	w.n += int64(n)
	if err != nil {
		return n, fmt.Errorf("storage: writing %s: %w", w.name, err)
	}
	return n, nil
}

// Close flushes the file to stable storage and closes it.
func (w *Writer) Close() error {
	serr := w.f.Sync()
	cerr := w.f.Close()
	if err := errors.Join(serr, cerr); err != nil {
		return fmt.Errorf("storage: closing %s: %w", w.name, err)
	}
	return nil
}

// Reader reads one file of a Device, whole (ReadFileInto) or positionally. Of
// a positional read the caller states the access class; the engines classify
// contiguous active-edge runs as sequential and scattered ones as random,
// exactly the S_seq/S_ran split of the paper's cost model. The first read
// opens the file, Close closes it, and a read after that opens it again. Reads
// may run concurrently (accounting is atomic, classification is per call).
type Reader struct {
	dev  *Device
	name string

	// f is the open file, or nil, and size its length when it was opened.
	// lastEnd tracks the end offset of the previous read for AutoReadAt's
	// contiguity detection. Guarded by mu.
	mu      sync.Mutex
	f       *os.File
	size    int64
	lastEnd int64
}

// file returns the open file and its size, opening it if need be.
func (r *Reader) file() (*os.File, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		p, err := r.dev.path(r.name)
		if err != nil {
			return nil, 0, err
		}
		f, err := os.Open(p)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: opening %s: %w", r.name, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("storage: opening %s: %w", r.name, err)
		}
		r.f, r.size = f, fi.Size()
	}
	return r.f, r.size, nil
}

// Name returns the device-relative file name.
func (r *Reader) Name() string { return r.name }

// Restart begins a new pass of positional reads: it consults the fault injector
// under "open", descriptor there or not, and forgets where the last read ended,
// so AutoReadAt classifies the next as random — as on a Reader fresh from Open.
func (r *Reader) Restart() error {
	if err := r.dev.checkFault("open", r.name); err != nil {
		return err
	}
	r.mu.Lock()
	r.lastEnd = -1
	r.mu.Unlock()
	return nil
}

// ReadAt reads len(p) bytes at off, charging class c.
func (r *Reader) ReadAt(p []byte, off int64, c Class) (int, error) {
	if !c.IsRead() {
		return 0, fmt.Errorf("storage: ReadAt with write class %v", c)
	}
	var n int
	var eof error
	retries, backoff, err := r.dev.retryRead(func() error {
		if err := r.dev.checkFault("readat", r.name); err != nil {
			return err
		}
		f, _, err := r.file()
		if err != nil {
			return err
		}
		var rerr error
		n, rerr = f.ReadAt(p, off)
		if rerr != nil && rerr != io.EOF {
			return fmt.Errorf("storage: reading %s@%d: %w", r.name, off, rerr)
		}
		eof = rerr
		return nil
	})
	r.dev.stats.addRetries(int64(retries))
	if err != nil {
		return 0, err
	}
	var cost time.Duration
	if c == SeqRead {
		cost = r.dev.prof.SeqCost(c, int64(n))
	} else {
		cost = r.dev.prof.Cost(c, int64(n))
	}
	cost += backoff
	r.dev.stats.add(c, int64(n), cost)
	r.dev.emit("readat", c, r.name, off, int64(n), cost, retries)
	return n, eof
}

// AutoReadAt reads len(p) bytes at off, classifying the access itself: a
// read that starts exactly where the previous read on this Reader ended is
// sequential, anything else is random. This mirrors how a real disk head
// behaves when the engine walks an index in offset order.
func (r *Reader) AutoReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	c := RandRead
	if off == r.lastEnd {
		c = SeqRead
	}
	r.lastEnd = off + int64(len(p))
	r.mu.Unlock()
	return r.ReadAt(p, off, c)
}

// ReadFileInto reads the whole file as one sequential stream into buf, growing
// it only when its capacity is insufficient, and charges a sequential read
// plus one positioning seek. The length is the one recorded when the file was
// opened: fewer bytes are an error, never a shorter payload. Reusing buf, fetch
// workers load block after block without allocating.
func (r *Reader) ReadFileInto(buf []byte) ([]byte, error) {
	var size int64
	retries, backoff, err := r.dev.retryRead(func() error {
		if err := r.dev.checkFault("read", r.name); err != nil {
			return err
		}
		f, n, err := r.file()
		if err != nil {
			return err
		}
		size = n
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := f.ReadAt(buf, 0); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("storage: reading %s: %w", r.name, err)
		}
		return nil
	})
	r.dev.stats.addRetries(int64(retries))
	if err != nil {
		return nil, err
	}
	cost := r.dev.prof.SeqCost(SeqRead, size) + r.dev.prof.SeekLatency + backoff
	r.dev.stats.add(SeqRead, size, cost)
	r.dev.emit("read", SeqRead, r.name, -1, size, cost, retries)
	return buf, nil
}

// Close closes the underlying file, if it is open; a nil Reader has none.
func (r *Reader) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.f
	r.f = nil
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: closing %s: %w", r.name, err)
	}
	return nil
}
