package checkpoint

// Writer publishes one run's checkpoints in the background, so that the run's
// step loop overlaps an image's fsyncs with the next step.
//
// Put waits for the previous image's write, encodes its state into the one
// buffer that write released — synchronously, so nothing handed on aliases
// the caller's arrays — and starts this image's write. Close waits for the
// last write. So the file on disk is never more than one Put behind: a
// process that dies mid-run leaves the last image put or the one before it,
// a return through Close the last. Put and Close are called from one
// goroutine.
type Writer struct {
	dir      string
	buf      []byte     // the image being written; the next Put reuses it
	inFlight chan error // the running write's result; nil when none runs
}

// NewWriter returns a writer for dir; the directory is created by the first
// publish.
func NewWriter(dir string) *Writer { return &Writer{dir: dir} }

// Put waits for the previous image's write and returns its error, if any,
// without taking s; otherwise it encodes s and starts publishing it.
func (w *Writer) Put(s *State) error {
	if err := w.wait(); err != nil {
		return err
	}
	w.buf = encode(w.buf, s)
	done, image := make(chan error, 1), w.buf
	go func() { done <- publish(w.dir, image) }()
	w.inFlight = done
	return nil
}

// Close waits for the write in flight and returns its error.
func (w *Writer) Close() error { return w.wait() }

func (w *Writer) wait() error {
	if w.inFlight == nil {
		return nil
	}
	err := <-w.inFlight
	w.inFlight = nil
	return err
}
