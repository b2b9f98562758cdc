package storage

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := OpenDevice(t.TempDir(), HDD)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProfileValidate(t *testing.T) {
	if err := HDD.Validate(); err != nil {
		t.Fatalf("HDD profile invalid: %v", err)
	}
	if err := SSD.Validate(); err != nil {
		t.Fatalf("SSD profile invalid: %v", err)
	}
	bad := HDD
	bad.SeqReadBps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = HDD
	bad.SeekLatency = -time.Second
	if err := bad.Validate(); err == nil {
		t.Fatal("negative seek accepted")
	}
}

func TestProfileCost(t *testing.T) {
	p := Profile{SeqReadBps: 100e6, SeqWriteBps: 100e6, RandReadBps: 100e6, RandWriteBps: 100e6, SeekLatency: 10 * time.Millisecond}
	// 100 MB at 100 MB/s = 1 s sequential.
	if got := p.Cost(SeqRead, 100e6); got != time.Second {
		t.Fatalf("seq cost = %v, want 1s", got)
	}
	// Random adds the seek.
	if got := p.Cost(RandRead, 100e6); got != time.Second+10*time.Millisecond {
		t.Fatalf("rand cost = %v", got)
	}
	if got := p.SeqCost(RandRead, 100e6); got != time.Second {
		t.Fatalf("SeqCost = %v, want 1s", got)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		SeqRead: "seq-read", RandRead: "rand-read", SeqWrite: "seq-write", RandWrite: "rand-write",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if !SeqRead.IsRead() || !RandRead.IsRead() || SeqWrite.IsRead() || RandWrite.IsRead() {
		t.Fatal("IsRead misclassifies")
	}
}

func TestWriteReadFile(t *testing.T) {
	d := testDevice(t)
	data := []byte("hello graphsd")
	if err := d.WriteFile("sub/dir/a.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadFile("sub/dir/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
	s := d.Stats()
	if s.Bytes[SeqWrite] != int64(len(data)) || s.Bytes[SeqRead] != int64(len(data)) {
		t.Fatalf("stats bytes wrong: %+v", s)
	}
	if s.Ops[SeqWrite] != 1 || s.Ops[SeqRead] != 1 {
		t.Fatalf("stats ops wrong: %+v", s)
	}
	if s.Time[SeqRead] <= 0 {
		t.Fatal("no simulated read time charged")
	}
}

func TestInvalidNames(t *testing.T) {
	d := testDevice(t)
	for _, name := range []string{"", "../escape", "/abs/path", "a/../../b"} {
		if err := d.WriteFile(name, nil); err == nil {
			t.Errorf("name %q accepted for write", name)
		}
		if _, err := d.ReadFile(name); err == nil {
			t.Errorf("name %q accepted for read", name)
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	d := testDevice(t)
	if _, err := d.ReadFile("missing.bin"); err == nil {
		t.Fatal("reading missing file succeeded")
	}
	if _, err := d.Open("missing.bin"); err == nil {
		t.Fatal("opening missing file succeeded")
	}
	if _, err := d.Size("missing.bin"); err == nil {
		t.Fatal("stat of missing file succeeded")
	}
}

func TestExistsRemoveList(t *testing.T) {
	d := testDevice(t)
	if d.Exists("x") {
		t.Fatal("missing file Exists")
	}
	if err := d.WriteFile("x", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile("dir/y", []byte{2}); err != nil {
		t.Fatal(err)
	}
	if !d.Exists("x") {
		t.Fatal("written file does not Exist")
	}
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "dir/y" || names[1] != "x" {
		t.Fatalf("List = %v", names)
	}
	if err := d.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("x") {
		t.Fatal("removed file still Exists")
	}
	if err := d.Remove("x"); err == nil {
		t.Fatal("removing missing file succeeded")
	}
}

func TestWriterAccumulates(t *testing.T) {
	d := testDevice(t)
	w, err := d.Create("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Write(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sz, err := d.Size("big.bin")
	if err != nil || sz != 1000 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if d.Stats().Bytes[SeqWrite] != 1000 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestReaderClasses(t *testing.T) {
	d := testDevice(t)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := d.WriteFile("f.bin", payload); err != nil {
		t.Fatal(err)
	}
	base := d.Stats()

	r, err := d.Open("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "f.bin" {
		t.Fatalf("Name=%s", r.Name())
	}

	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 0, RandRead); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[:100]) {
		t.Fatal("random read returned wrong data")
	}
	if _, err := r.ReadAt(buf, 100, SeqRead); err != nil {
		t.Fatal(err)
	}
	s := d.Stats().Sub(base)
	if s.Bytes[RandRead] != 100 || s.Bytes[SeqRead] != 100 {
		t.Fatalf("class accounting wrong: %+v", s)
	}
	// The random read must be charged a seek; for equal sizes it costs more.
	if s.Time[RandRead] <= s.Time[SeqRead] {
		t.Fatalf("random read (%v) not dearer than sequential (%v)", s.Time[RandRead], s.Time[SeqRead])
	}
	if _, err := r.ReadAt(buf, 0, SeqWrite); err == nil {
		t.Fatal("ReadAt accepted a write class")
	}
}

func TestReaderAutoClassification(t *testing.T) {
	d := testDevice(t)
	if err := d.WriteFile("f.bin", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	base := d.Stats()
	r, err := d.Open("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 100)
	// First read: random (nothing before it).
	r.AutoReadAt(buf, 0)
	// Contiguous: sequential.
	r.AutoReadAt(buf, 100)
	r.AutoReadAt(buf, 200)
	// Jump: random again.
	r.AutoReadAt(buf, 700)
	s := d.Stats().Sub(base)
	if s.Ops[RandRead] != 2 || s.Ops[SeqRead] != 2 {
		t.Fatalf("auto classification wrong: %+v", s)
	}
}

func TestReadAllAndEOF(t *testing.T) {
	d := testDevice(t)
	if err := d.WriteFile("f.bin", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	r, err := d.Open("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	all, err := r.ReadFileInto(nil)
	if err != nil || string(all) != "abcdef" {
		t.Fatalf("ReadFileInto = %q, %v", all, err)
	}
	// Read past EOF returns io.EOF with partial data.
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 3, SeqRead)
	if n != 3 || err != io.EOF {
		t.Fatalf("ReadAt past EOF = %d, %v", n, err)
	}
	// Empty file, whole.
	if err := d.WriteFile("empty.bin", nil); err != nil {
		t.Fatal(err)
	}
	re, err := d.Open("empty.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	b, err := re.ReadFileInto(nil)
	if err != nil || len(b) != 0 {
		t.Fatalf("empty ReadFileInto = %v, %v", b, err)
	}
}

func TestCharge(t *testing.T) {
	d := testDevice(t)
	cost := d.Charge(SeqWrite, 1e6)
	if cost <= 0 {
		t.Fatal("Charge returned non-positive cost")
	}
	s := d.Stats()
	if s.Bytes[SeqWrite] != 1e6 || s.Ops[SeqWrite] != 1 {
		t.Fatalf("Charge not recorded: %+v", s)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	d := testDevice(t)
	d.Charge(SeqRead, 100)
	before := d.Stats()
	d.Charge(SeqRead, 50)
	d.Charge(RandWrite, 10)
	delta := d.Stats().Sub(before)
	if delta.Bytes[SeqRead] != 50 || delta.Bytes[RandWrite] != 10 {
		t.Fatalf("delta = %+v", delta)
	}
	if delta.TotalBytes() != 60 || delta.ReadBytes() != 50 || delta.WriteBytes() != 10 {
		t.Fatalf("aggregates wrong: %+v", delta)
	}
	if delta.TotalTime() <= 0 {
		t.Fatal("no time in delta")
	}
}

func TestSnapshotString(t *testing.T) {
	var s Snapshot
	if s.String() != "no I/O" {
		t.Fatalf("empty = %q", s.String())
	}
	s.Bytes[SeqRead] = 2048
	s.Ops[SeqRead] = 2
	if got := s.String(); got == "no I/O" {
		t.Fatalf("non-empty rendered as %q", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		2048:    "2.0KiB",
		1 << 20: "1.0MiB",
		3 << 30: "3.0GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	d := testDevice(t)
	if err := d.WriteFile("ok.bin", []byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	d.SetFaultInjector(func(op, name string) error {
		if op == "read" {
			return boom
		}
		return nil
	})
	if _, err := d.ReadFile("ok.bin"); !errors.Is(err, boom) {
		t.Fatalf("fault not injected: %v", err)
	}
	d.SetFaultInjector(nil)
	if _, err := d.ReadFile("ok.bin"); err != nil {
		t.Fatalf("fault persisted after clear: %v", err)
	}
}

func TestConcurrentCharges(t *testing.T) {
	d := testDevice(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				d.Charge(SeqRead, 1)
			}
		}()
	}
	wg.Wait()
	if got := d.Stats().Bytes[SeqRead]; got != 8000 {
		t.Fatalf("concurrent charges lost: %d", got)
	}
}

func TestOpenDeviceBadProfile(t *testing.T) {
	if _, err := OpenDevice(t.TempDir(), Profile{}); err == nil {
		t.Fatal("zero profile accepted")
	}
}

func TestMeasureProfile(t *testing.T) {
	p, err := MeasureProfile(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("measured profile invalid: %v (%+v)", err, p)
	}
}

// Property: simulated cost is monotonic in byte count for every class.
func TestPropertyCostMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		for c := Class(0); c < numClasses; c++ {
			if HDD.Cost(c, lo) > HDD.Cost(c, hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: stats conservation — total bytes equals the sum of per-class bytes.
func TestPropertyStatsConservation(t *testing.T) {
	d := testDevice(t)
	f := func(ops []uint16) bool {
		base := d.Stats()
		var want [4]int64
		for _, op := range ops {
			c := Class(op % 4)
			n := int64(op % 1000)
			d.Charge(c, n)
			want[c] += n
		}
		s := d.Stats().Sub(base)
		total := int64(0)
		for c := 0; c < 4; c++ {
			if s.Bytes[c] != want[c] {
				return false
			}
			total += want[c]
		}
		return s.TotalBytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
