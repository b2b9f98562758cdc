package checkpoint

import (
	"fmt"
	"os"
)

// Writer publishes one run's checkpoints in the background, so that the run's
// step loop overlaps an image's fsync with the next step.
//
// Put waits for the previous image's write, encodes its state into the one
// buffer that write released — synchronously, so nothing handed on aliases
// the caller's arrays — and starts this image's write. Close waits for the
// last write. So the images on disk are never more than one Put behind: a
// process that dies mid-run leaves the last image put or the one before it, a
// return through Close the last. Put and Close are called from one goroutine.
//
// Each image overwrites in place the slot that does not hold the newest valid
// image and is then fsynced; the slot that holds it is never touched, so a
// write torn by a crash is one slot that Load rejects by its CRC32C while the
// other holds the image before it. The first publish finds the newest valid
// image with Load's rule, and from then on the slots alternate. A slot's first
// write creates or truncates its file and then fsyncs the directory; the writer
// keeps the file open until Close, so the next writes to it cost a write and
// one fsync. Images must carry strictly increasing Iterations, as a run's do,
// and a run that does not resume clears the directory first (Remove) so that
// no image of an earlier run can outrank its own.
type Writer struct {
	dir      string
	buf      []byte     // the image being written; the next Put reuses it
	inFlight chan error // the running write's result; nil when none runs

	// The write in flight owns these; Put and Close touch them only after
	// waiting for it.
	target int         // slot the next image overwrites; -1 until the first publish picks it
	files  [2]*os.File // slots this writer has written, open for the next write
	sizes  [2]int      // bytes each open slot holds
}

// NewWriter returns a writer for dir; the directory is created by the first
// publish.
func NewWriter(dir string) *Writer { return &Writer{dir: dir, target: -1} }

// Put waits for the previous image's write and returns its error, if any,
// without taking s; otherwise it encodes s and starts publishing it.
func (w *Writer) Put(s *State) error {
	if err := w.wait(); err != nil {
		return err
	}
	w.buf = encode(w.buf, s)
	done, image := make(chan error, 1), w.buf
	go func() { done <- w.publish(image) }()
	w.inFlight = done
	return nil
}

// Close waits for the write in flight, closes the slot files and returns the
// first error.
func (w *Writer) Close() error {
	err := w.wait()
	for i, f := range w.files {
		if f == nil {
			continue
		}
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("checkpoint: closing: %w", cerr)
		}
		w.files[i] = nil
	}
	return err
}

func (w *Writer) wait() error {
	if w.inFlight == nil {
		return nil
	}
	err := <-w.inFlight
	w.inFlight = nil
	return err
}

// publish writes image over slot w.target and makes it durable, then points
// w.target at the other slot.
func (w *Writer) publish(image []byte) error {
	if w.target < 0 {
		if err := os.MkdirAll(w.dir, 0o755); err != nil {
			return fmt.Errorf("checkpoint: creating dir: %w", err)
		}
		_, slot, _ := newest(w.dir)
		w.target = 0
		if slot == 0 {
			w.target = 1
		}
	}
	i := w.target
	f, first := w.files[i], w.files[i] == nil
	if first {
		var err error
		if f, err = os.OpenFile(slotPaths(w.dir)[i], os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		w.files[i], w.sizes[i] = f, 0
	}
	err := w.write(f, i, image)
	if err == nil && first {
		err = syncDir(w.dir)
	}
	if err != nil {
		if first {
			// Let the next write to this slot create it again, directory
			// sync included.
			f.Close()
			w.files[i] = nil
		}
		return err
	}
	w.target = 1 - i
	return nil
}

// write overwrites slot i's open file f with image and fsyncs it.
func (w *Writer) write(f *os.File, i int, image []byte) error {
	_, err := f.WriteAt(image, 0)
	if err == nil && len(image) < w.sizes[i] {
		err = f.Truncate(int64(len(image)))
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		// A partial write may have grown the file; the next write truncates.
		w.sizes[i] = max(w.sizes[i], len(image))
		return fmt.Errorf("checkpoint: writing: %w", err)
	}
	w.sizes[i] = len(image)
	return nil
}
