package partition

import (
	"testing"

	"github.com/graphsd/graphsd/internal/gen"
)

func TestLoadRowColMissing(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 2) // graphsd layout: no rows/cols
	if err != nil {
		t.Fatal(err)
	}
	row, err := l.LoadRow(0)
	if err != nil || row != nil {
		t.Fatalf("LoadRow on grid layout = %v, %v", row, err)
	}
	col, err := l.LoadCol(0)
	if err != nil || col != nil {
		t.Fatalf("LoadCol on grid layout = %v, %v", col, err)
	}
	r, err := l.OpenRow(0)
	if err != nil || r != nil {
		t.Fatalf("OpenRow on grid layout = %v, %v", r, err)
	}
}

func TestLoadMissingManifest(t *testing.T) {
	dev := testDevice(t)
	if _, err := Load(dev); err == nil {
		t.Fatal("Load on empty device succeeded")
	}
}

func TestCorruptIndexRejected(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(IndexName(0, 0), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadIndex(0, 0); err == nil {
		t.Fatal("corrupt index accepted")
	}
}

func TestCorruptDegreesRejected(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(DegreesName, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDegrees(); err == nil {
		t.Fatal("corrupt degree table accepted")
	}
}

func TestCorruptSubBlockRejected(t *testing.T) {
	dev := testDevice(t)
	l, err := Build(dev, gen.Chain(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteFile(SubBlockName(0, 0), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadSubBlock(0, 0); err == nil {
		t.Fatal("corrupt sub-block accepted")
	}
}
