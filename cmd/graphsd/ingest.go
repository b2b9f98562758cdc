package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// ingestMutation mirrors the server's mutation wire format.
type ingestMutation struct {
	Op     string  `json:"op"`
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
}

// cmdIngest streams an edge-mutation file into a running mutable server.
// Line formats (one mutation per line, '#' comments and blanks skipped):
//
//   - src dst [weight]   insert
//   - src dst            delete
//     src dst [weight]     insert (bare edge-list lines ingest as inserts)
//
// Mutations are batched; each 200 response means that batch is fsynced in
// the server's WAL, so a kill -9 after the last acknowledged batch loses
// nothing.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8090", "base URL of a running 'graphsd serve -mutable'")
	graphName := fs.String("graph", "", "target graph name (as registered with serve -graph)")
	file := fs.String("file", "-", "mutation file ('-': stdin)")
	batch := fs.Int("batch", 1000, "mutations per request")
	fs.Parse(args)
	if *graphName == "" {
		return fmt.Errorf("ingest: -graph is required")
	}
	if *batch < 1 {
		return fmt.Errorf("ingest: -batch must be positive")
	}
	in := os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	url := strings.TrimRight(*serverURL, "/") + "/v1/graphs/" + *graphName + "/edges"
	client := &http.Client{Timeout: 30 * time.Second}
	var (
		pending  []ingestMutation
		sent     int64
		batches  int64
		started  = time.Now()
		flushErr = func(muts []ingestMutation) error {
			body, err := json.Marshal(map[string]any{"mutations": muts})
			if err != nil {
				return err
			}
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("ingest: %w (is 'graphsd serve -mutable' running?)", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				return fmt.Errorf("ingest: server rejected batch: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
			}
			sent += int64(len(muts))
			batches++
			return nil
		}
	)

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m, err := parseMutationLine(line)
		if err != nil {
			return fmt.Errorf("ingest: line %d: %w", lineNo, err)
		}
		pending = append(pending, m)
		if len(pending) >= *batch {
			if err := flushErr(pending); err != nil {
				return err
			}
			pending = pending[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(pending) > 0 {
		if err := flushErr(pending); err != nil {
			return err
		}
	}
	el := time.Since(started)
	rate := float64(sent) / el.Seconds()
	fmt.Printf("graphsd: ingested %d mutations in %d batches (%.0f/s)\n", sent, batches, rate)
	return nil
}

// parseMutationLine decodes one ingest line into a wire mutation.
func parseMutationLine(line string) (ingestMutation, error) {
	fields := strings.Fields(line)
	m := ingestMutation{Op: "insert"}
	switch fields[0] {
	case "+":
		fields = fields[1:]
	case "-":
		m.Op = "delete"
		fields = fields[1:]
	}
	if len(fields) < 2 || len(fields) > 3 {
		return m, fmt.Errorf("want [+|-] src dst [weight], got %q", line)
	}
	src, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return m, fmt.Errorf("bad src %q", fields[0])
	}
	dst, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return m, fmt.Errorf("bad dst %q", fields[1])
	}
	m.Src, m.Dst = uint32(src), uint32(dst)
	if len(fields) == 3 {
		if m.Op == "delete" {
			return m, fmt.Errorf("delete takes no weight: %q", line)
		}
		w, err := strconv.ParseFloat(fields[2], 32)
		if err != nil {
			return m, fmt.Errorf("bad weight %q", fields[2])
		}
		m.Weight = float32(w)
	}
	return m, nil
}
