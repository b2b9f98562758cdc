package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// serveProc is one running `graphsd serve` child: its captured output, the
// announced base URL, and the exit channel.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	done chan error

	mu  sync.Mutex
	buf bytes.Buffer
}

func (p *serveProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

// startServe boots a serve child, drains its output, and waits for the
// address announcement.
func startServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{
		cmd:  exec.Command(graphsdBin, append([]string{"serve", "-listen", "127.0.0.1:0"}, args...)...),
		done: make(chan error, 1),
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		p.done <- nil // later receivers (and repeated cleanups) don't block
	})

	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var pending []byte
		announced := false
		for {
			n, err := stdout.Read(buf)
			if n > 0 {
				p.mu.Lock()
				p.buf.Write(buf[:n])
				p.mu.Unlock()
				if !announced {
					pending = append(pending, buf[:n]...)
					if m := regexp.MustCompile(`serving on ([^ ]+)`).FindSubmatch(pending); m != nil {
						addrCh <- string(m[1])
						announced = true
					}
				}
			}
			if err != nil {
				if !announced {
					close(addrCh)
				}
				p.done <- p.cmd.Wait()
				return
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			t.Fatalf("server exited before announcing address:\n%s", p.output())
		}
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its address")
	}
	return p
}

// jobStatus is the subset of the status document the restart test reads.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error"`
	Iterations int    `json:"iterations"`
	Recovered  bool   `json:"recovered"`
	Resumed    bool   `json:"resumed"`
}

func (p *serveProc) submit(t *testing.T, body string) jobStatus {
	t.Helper()
	resp, err := http.Post(p.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit %s: HTTP %d: %s", body, resp.StatusCode, b)
	}
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	if st.ID == "" {
		t.Fatalf("submit %s: empty job id", body)
	}
	return st
}

func (p *serveProc) status(t *testing.T, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(p.base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return st
}

func (p *serveProc) waitDone(t *testing.T, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := p.status(t, id)
		switch st.State {
		case "done":
			return st
		case "failed", "cancelled", "expired":
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobStatus{}
}

// fullResult fetches the raw JSON of the job's full vertex-value array, for
// byte-exact comparison between runs.
func (p *serveProc) fullResult(t *testing.T, id string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(p.base + "/v1/jobs/" + id + "/result?full=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, b)
	}
	var out struct {
		Full json.RawMessage `json:"full"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	if len(out.Full) == 0 {
		t.Fatalf("result %s: empty full array", id)
	}
	return out.Full
}

// TestServeSIGKILLRestart kills the real server binary with SIGKILL mid-run
// and restarts it over the same journal directory: the finished job must
// stay finished, the interrupted job must resume from its checkpoint and
// produce byte-identical results to a fresh run of the same request, and
// the recovery line must account for every job.
func TestServeSIGKILLRestart(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	layoutDir := filepath.Join(dir, "layout")
	journalDir := filepath.Join(dir, "journal")
	run(t, graphgenBin, "-kind", "rmat", "-scale", "12", "-edgefactor", "8", "-o", graphPath)
	run(t, graphsdBin, "preprocess", "-graph", graphPath, "-layout", layoutDir, "-p", "4")
	serveArgs := []string{"-graph", "g=" + layoutDir, "-workers", "1", "-profile", "hdd", "-journal", journalDir}
	// The device model charges simulated time and never sleeps, so what keeps
	// the SIGKILL below from racing the whole run to completion is the run's
	// length: 300 iterations, hundreds of milliseconds after iteration 2.
	longReq := `{"graph":"g","algorithm":"pr","max_iterations":300}`

	p1 := startServe(t, serveArgs...)
	quick := p1.submit(t, `{"graph":"g","algorithm":"bfs","source":1,"max_iterations":2}`)
	p1.waitDone(t, quick.ID)
	long := p1.submit(t, longReq)

	// An iteration's checkpoint is taken before its status update, and taking
	// it waits for the previous one's write, so iteration N's checkpoint is
	// durable once the status shows N+1. Wait for 2, then SIGKILL — no drain,
	// no final records, exactly a crash.
	deadline := time.Now().Add(60 * time.Second)
	for p1.status(t, long.ID).Iterations < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never progressed: %+v", long.ID, p1.status(t, long.ID))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := <-p1.done; err == nil {
		t.Fatal("SIGKILLed server exited cleanly?")
	}
	p1.done <- fmt.Errorf("already reaped")

	// Restart over the same journal.
	p2 := startServe(t, serveArgs...)
	recLine := regexp.MustCompile(`journal replayed: (\d+) records; jobs recovered=(\d+) requeued=(\d+) expired=(\d+) lost=(\d+)`)
	m := recLine.FindStringSubmatch(p2.output())
	if m == nil {
		t.Fatalf("no recovery line in restart output:\n%s", p2.output())
	}
	if m[2] != "1" || m[3] != "1" || m[5] != "0" {
		t.Fatalf("recovery line %q: want recovered=1 requeued=1 lost=0", m[0])
	}

	// The finished job survived as terminal; its payload is 410 Gone.
	if st := p2.status(t, quick.ID); st.State != "done" || !st.Recovered {
		t.Fatalf("finished job after restart: %+v", st)
	}
	if resp, err := http.Get(p2.base + "/v1/jobs/" + quick.ID + "/result"); err != nil || resp.StatusCode != http.StatusGone {
		t.Fatalf("recovered result: %v, %v (want 410)", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// The interrupted job resumes from its checkpoint and completes.
	final := p2.waitDone(t, long.ID)
	if !final.Recovered || !final.Resumed {
		t.Fatalf("interrupted job did not resume: %+v", final)
	}
	resumed := p2.fullResult(t, long.ID)

	// A fresh submission of the identical request recomputes the values;
	// they must be byte-identical to the resumed run's.
	fresh := p2.submit(t, longReq)
	if fresh.ID == long.ID {
		t.Fatalf("fresh submission reused job ID %s", fresh.ID)
	}
	p2.waitDone(t, fresh.ID)
	if !bytes.Equal(resumed, p2.fullResult(t, fresh.ID)) {
		t.Fatal("resumed results differ from a fresh run of the same request — recovery not bit-identical")
	}

	// Graceful shutdown still works after a recovery.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p2.done:
		out := p2.output()
		p2.done <- nil
		if err != nil {
			t.Fatalf("restarted server exited with error: %v\n%s", err, out)
		}
		if !strings.Contains(out, "shutdown complete") {
			t.Fatalf("no clean shutdown message:\n%s", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restarted server did not exit after SIGTERM")
	}
}
