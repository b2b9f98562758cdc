package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end CLI tests: build the real binaries once and drive the
// documented workflows. These are the closest thing to a user session the
// test suite has.

var (
	graphsdBin  string
	graphgenBin string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "graphsd-e2e-*")
	if err != nil {
		panic(err)
	}
	graphsdBin = filepath.Join(dir, "graphsd")
	graphgenBin = filepath.Join(dir, "graphgen")
	for bin, pkg := range map[string]string{
		graphsdBin:  "github.com/graphsd/graphsd/cmd/graphsd",
		graphgenBin: "github.com/graphsd/graphsd/cmd/graphgen",
	} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func runExpectFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", filepath.Base(bin), args, out)
	}
	return string(out)
}

func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	layoutDir := filepath.Join(dir, "layout")

	// Generate.
	out := run(t, graphgenBin, "-kind", "rmat", "-scale", "10", "-edgefactor", "8", "-o", graphPath)
	if !strings.Contains(out, "1024 vertices") {
		t.Fatalf("graphgen output: %s", out)
	}

	// Preprocess.
	out = run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "4")
	if !strings.Contains(out, "system=graphsd P=4") {
		t.Fatalf("preprocess output: %s", out)
	}

	// Run with scheduler trace and an I/O trace.
	tracePath := filepath.Join(dir, "run.trace")
	out = run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "cc",
		"-trace", "-top", "3", "-iotrace", tracePath)
	if !strings.Contains(out, "converged=true") || !strings.Contains(out, "per-iteration trace") {
		t.Fatalf("run output: %s", out)
	}

	// Dead sub-blocks are skipped on every run, so the summary says so
	// whenever there were any, and never otherwise. A raw layout's buffer
	// keeps decoded edges: no compressed tier, no sem: line.
	out = run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "bfs", "-force-model", "full", "-top", "0")
	if !strings.Contains(out, "skipped: ") || strings.Contains(out, "sem: ") {
		t.Fatalf("bfs run on a raw layout: want a skipped: line and no sem: line:\n%s", out)
	}
	out = run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "pr", "-top", "0")
	if strings.Contains(out, "skipped: ") {
		t.Fatalf("pr run skipped sub-blocks:\n%s", out)
	}

	// Analyze the trace.
	out = run(t, graphsdBin, "trace", "-file", tracePath, "-top", "2")
	if !strings.Contains(out, "sequential ops") {
		t.Fatalf("trace output: %s", out)
	}

	// Verify against the oracle.
	out = run(t, graphsdBin, "verify", "-graph", graphPath, "-layout", layoutDir, "-algorithm", "cc")
	if !strings.Contains(out, "OK:") {
		t.Fatalf("verify output: %s", out)
	}

	// The baselines' layouts run, trace and verify through the same engine.
	for sys, path := range map[string]string{"husgraph": "husgraph-full", "lumos": "lumos-1"} {
		dir := filepath.Join(dir, sys)
		run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", dir, "-p", "4", "-system", sys)
		out = run(t, graphsdBin, "run", "-layout", dir, "-algorithm", "cc", "-trace", "-top", "0")
		if !strings.Contains(out, "converged=true") || !strings.Contains(out, path) {
			t.Fatalf("%s run output, want a %s iteration in the trace: %s", sys, path, out)
		}
		out = run(t, graphsdBin, "verify", "-graph", graphPath, "-layout", dir, "-algorithm", "cc")
		if !strings.Contains(out, "OK:") {
			t.Fatalf("%s verify output: %s", sys, out)
		}
	}

	// Layout stats.
	out = run(t, graphsdBin, "stats", "-layout", layoutDir)
	if !strings.Contains(out, "vertices:  1024") {
		t.Fatalf("stats output: %s", out)
	}
}

func TestEndToEndExternalPreprocessAndCompare(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	run(t, graphgenBin, "-kind", "ba", "-n", "800", "-m", "2400", "-o", graphPath)

	layoutDir := filepath.Join(dir, "ext-layout")
	out := run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "3", "-external")
	if !strings.Contains(out, "system=graphsd P=3") {
		t.Fatalf("external preprocess output: %s", out)
	}
	out = run(t, graphsdBin, "verify", "-graph", graphPath, "-layout", layoutDir, "-algorithm", "bfs", "-source", "799")
	if !strings.Contains(out, "OK:") {
		t.Fatalf("verify output: %s", out)
	}

	out = run(t, graphsdBin, "compare", "-graph", graphPath, "-algorithm", "cc", "-p", "3")
	for _, sys := range []string{"graphsd", "husgraph", "lumos"} {
		if !strings.Contains(out, sys) {
			t.Fatalf("compare output missing %s:\n%s", sys, out)
		}
	}
}

func TestEndToEndWeightedSSSP(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "w.bin")
	run(t, graphgenBin, "-kind", "weblike", "-n", "500", "-m", "3000", "-weighted", "-o", graphPath)
	layoutDir := filepath.Join(dir, "layout")
	run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "3")
	out := run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "sssp", "-source", "0", "-top", "1")
	if !strings.Contains(out, "sssp:") {
		t.Fatalf("sssp output: %s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	// Missing required flags.
	runExpectFail(t, graphsdBin, "run", "-layout", dir)
	runExpectFail(t, graphsdBin, "preprocess", "-graph", "nope")
	// Unknown subcommand exits non-zero.
	runExpectFail(t, graphsdBin, "frobnicate")
	// Unknown algorithm.
	graphPath := filepath.Join(dir, "g.bin")
	run(t, graphgenBin, "-kind", "chain", "-n", "10", "-o", graphPath)
	layoutDir := filepath.Join(dir, "layout")
	run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "2")
	out := runExpectFail(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "nope")
	if !strings.Contains(out, "unknown algorithm") {
		t.Fatalf("error output: %s", out)
	}
	// Weighted algorithm on unweighted layout.
	out = runExpectFail(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "sssp")
	if !strings.Contains(out, "weights") {
		t.Fatalf("error output: %s", out)
	}
	// Options the async schedule never reads are refused, not ignored.
	for _, flags := range [][]string{{"-force-model", "full"}, {"-force-model", "on-demand"}, {"-no-cross-iteration"}} {
		out = runExpectFail(t, graphsdBin, append([]string{"run", "-layout", layoutDir, "-algorithm", "cc", "-async"}, flags...)...)
		if !strings.Contains(out, "no effect under -async") {
			t.Fatalf("run -async %v: %s", flags, out)
		}
	}
	// serve refuses -async-eps without -async before it listens.
	out = runExpectFail(t, graphsdBin, "serve", "-listen", "127.0.0.1:0", "-graph", "g="+layoutDir, "-async-eps", "1e-6")
	if !strings.Contains(out, "-async-eps requires -async") {
		t.Fatalf("serve -async-eps without -async: %s", out)
	}
	// A 24-byte binary graph whose header claims 2^36 edges is an error, not
	// an 824 GB allocation that kills the process.
	hostile := filepath.Join(dir, "hostile.bin")
	hdr := append([]byte("GSDG"), make([]byte, 20)...)
	hdr[8], hdr[20] = 10, 1<<(36-32)
	if err := os.WriteFile(hostile, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runExpectFail(t, graphsdBin, "preprocess", "-graph", hostile, "-layout", filepath.Join(dir, "hostile-layout"))
	if !strings.Contains(out, "loading graph") || strings.Contains(out, "out of memory") {
		t.Fatalf("preprocess of a hostile header: %s", out)
	}
	// A HUS-Graph row index of the wrong shape — one entry, or vertex 0 owning
	// 2^55 records — is an error naming the file, not a panic in the on-demand
	// path (BFS from vertex 0 starts on it).
	rmat := filepath.Join(dir, "rmat.bin")
	run(t, graphgenBin, "-kind", "rmat", "-scale", "10", "-edgefactor", "8", "-seed", "17", "-o", rmat)
	husDir := filepath.Join(dir, "hus")
	run(t, graphsdBin, "preprocess", "-graph", rmat, "-layout", husDir, "-p", "4", "-system", "husgraph")
	run(t, graphsdBin, "run", "-layout", husDir, "-algorithm", "bfs", "-top", "0")
	huge := append([]byte{0x81, 0x02, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, make([]byte, 255)...)
	for name, idx := range map[string][]byte{"one entry": {1, 0}, "2^55 records": huge} {
		if err := os.WriteFile(filepath.Join(husDir, "rows", "r_0000.idx"), idx, 0o644); err != nil {
			t.Fatal(err)
		}
		out = runExpectFail(t, graphsdBin, "run", "-layout", husDir, "-algorithm", "bfs", "-top", "0")
		if !strings.Contains(out, "rows/r_0000.idx") || strings.Contains(out, "panic") {
			t.Fatalf("%s: run over a hostile row index: %s", name, out)
		}
	}
}

// TestEndToEndDeltaCodec: the delta-compressed workflow — generate a delta
// binary, preprocess with -codec delta, run, verify against the oracle, and
// confirm stats reports the compression.
func TestEndToEndDeltaCodec(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	out := run(t, graphgenBin, "-kind", "rmat", "-scale", "10", "-edgefactor", "8",
		"-codec", "delta", "-o", graphPath)
	if !strings.Contains(out, "1024 vertices") {
		t.Fatalf("graphgen output: %s", out)
	}

	layoutDir := filepath.Join(dir, "layout")
	out = run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir,
		"-p", "4", "-codec", "delta")
	if !strings.Contains(out, "codec=delta") || !strings.Contains(out, "compression:") {
		t.Fatalf("preprocess output: %s", out)
	}

	out = run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "cc", "-trace", "-top", "3")
	if !strings.Contains(out, "converged=true") || !strings.Contains(out, "codec: delta") {
		t.Fatalf("run output: %s", out)
	}
	if !strings.Contains(out, "decode") {
		t.Fatalf("trace missing decode column: %s", out)
	}
	// On a delta layout the buffer keeps FCIU's secondaries as payloads, and
	// PageRank's second halves are served from them; under -async it keeps the
	// row step's blocks the same way.
	for _, args := range [][]string{{"-algorithm", "pr", "-force-model", "full"}, {"-algorithm", "cc", "-async"}} {
		out = run(t, graphsdBin, append([]string{"run", "-layout", layoutDir, "-top", "0"}, args...)...)
		if !strings.Contains(out, "sem: compressed tier") || strings.Contains(out, "sem: compressed tier 0 hits") {
			t.Fatalf("run %v on a delta layout: want a sem: line with hits:\n%s", args, out)
		}
	}

	out = run(t, graphsdBin, "verify", "-graph", graphPath, "-layout", layoutDir, "-algorithm", "cc")
	if !strings.Contains(out, "OK:") {
		t.Fatalf("verify output: %s", out)
	}

	out = run(t, graphsdBin, "stats", "-layout", layoutDir)
	if !strings.Contains(out, "codec:     delta") || !strings.Contains(out, "on disk:") {
		t.Fatalf("stats output: %s", out)
	}

	// External preprocessing accepts the codec too.
	extDir := filepath.Join(dir, "ext")
	out = run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", extDir,
		"-p", "4", "-codec", "delta", "-external")
	if !strings.Contains(out, "codec=delta") {
		t.Fatalf("external preprocess output: %s", out)
	}

	// Non-grid layouts reject the codec.
	out = runExpectFail(t, graphsdBin, "preprocess", "-graph", graphPath,
		"-layout", filepath.Join(dir, "hus"), "-p", "4", "-system", "husgraph", "-codec", "delta")
	if !strings.Contains(out, "codec") {
		t.Fatalf("husgraph delta error output: %s", out)
	}
}

// TestEndToEndCheckpointResume: the fault-tolerance workflow — run with
// crash-safe checkpoints enabled, then resume from the final checkpoint and
// reach the same converged state.
func TestEndToEndCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	run(t, graphgenBin, "-kind", "rmat", "-scale", "9", "-edgefactor", "8", "-o", graphPath)
	layoutDir := filepath.Join(dir, "layout")
	run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "4")

	ckDir := filepath.Join(dir, "ck")
	out := run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "pr",
		"-iterations", "6", "-checkpoint", ckDir, "-checkpoint-every", "2", "-retries", "3", "-top", "1")
	if !strings.Contains(out, "checkpoints: 3 taken, newest in "+ckDir) {
		t.Fatalf("checkpointed run output: %s", out)
	}

	out = run(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "pr",
		"-iterations", "6", "-checkpoint", ckDir, "-resume", "-top", "1")
	if !strings.Contains(out, "resumed from checkpoint at iteration 6") {
		t.Fatalf("resumed run output: %s", out)
	}

	// A CRC-valid checkpoint whose value count overflows a length check is an
	// error naming the checkpoint, not a crash.
	hostile, err := os.ReadFile(filepath.Join("..", "..", "internal", "checkpoint", "testdata", "hostile_count.bin"))
	if err != nil {
		t.Fatal(err)
	}
	badDir := filepath.Join(dir, "bad")
	if err := os.MkdirAll(badDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, "checkpoint.bin"), hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runExpectFail(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "pr", "-checkpoint", badDir, "-resume")
	if !strings.Contains(out, "checkpoint: truncated or corrupt values") || strings.Contains(out, "panic") {
		t.Fatalf("hostile checkpoint resume output: %s", out)
	}

	// -resume needs a checkpoint dir; checkpoints need a graphsd layout.
	out = runExpectFail(t, graphsdBin, "run", "-layout", layoutDir, "-algorithm", "pr", "-resume")
	if !strings.Contains(out, "-resume requires -checkpoint") {
		t.Fatalf("resume error output: %s", out)
	}
	husDir := filepath.Join(dir, "hus")
	run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", husDir, "-p", "4", "-system", "husgraph")
	out = runExpectFail(t, graphsdBin, "run", "-layout", husDir, "-algorithm", "pr", "-checkpoint", ckDir)
	if !strings.Contains(out, "graphsd layouts") {
		t.Fatalf("husgraph checkpoint error output: %s", out)
	}
}
