package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func loadReports(paths []string) ([]*report, error) {
	var reps []*report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != schemaVersion {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, schemaVersion)
		}
		reps = append(reps, &r)
	}
	return reps, nil
}

// side summarises one (workload, metric) over a set of report files: the
// median of the files' values, their spread as (max-min)/median when there
// are at least two, and the failures seen.
type side struct {
	value, spread float64
	files, failed int
}

func summarise(reps []*report, workload, metric string) side {
	var vals []float64
	var s side
	for _, r := range reps {
		for _, w := range r.Workloads {
			if w.Name == workload {
				vals = append(vals, w.EndToEnd[metric].Value)
				s.failed += w.Failed
			}
		}
	}
	s.files, s.value = len(vals), median(vals)
	if len(vals) >= 2 {
		sv := sorted(vals)
		s.spread = ratio(sv[len(sv)-1]-sv[0], s.value)
	}
	return s
}

// verdict classifies a candidate against its base. worse is the share of
// the base by which the candidate is worse in the metric's direction. A
// spread wider than the bound on either side leaves the pair unresolved:
// the runs cannot tell a change of that size from their own scatter.
func verdict(base, cand side, better string, bound float64) (worse float64, status string) {
	worse = ratio(cand.value-base.value, base.value)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case base.spread > bound || cand.spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and reports
// whether any regressed. A candidate with failed ops regresses failed_ratio,
// whose bound is zero.
func compareFiles(w io.Writer, boundsPath string, basePaths, candPaths []string) (regressed bool, err error) {
	bf, err := loadBenchmarkFile(boundsPath)
	if err != nil {
		return false, err
	}
	base, err := loadReports(basePaths)
	if err != nil {
		return false, err
	}
	cand, err := loadReports(candPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %22s %7s  %s\n", "workload", "metric", "base", "candidate", "candidate/base", "bound", "status")
	for _, wl := range bf.Workloads {
		var failed int
		for _, m := range bf.EndToEnd {
			b, c := summarise(base, wl.Name, m.Name), summarise(cand, wl.Name, m.Name)
			if b.files == 0 || c.files == 0 {
				fmt.Fprintf(w, "%-12s %-20s missing from %d base and %d candidate files\n", wl.Name, m.Name, b.files, c.files)
				continue
			}
			failed = c.failed
			worse, status := verdict(b, c, m.Better, m.Bound)
			if status == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %8.4f of %-10.6g %6.0f%%  %s (%+.1f%% worse, spread %.1f%%/%.1f%%)\n",
				wl.Name, m.Name, b.value, c.value, ratio(c.value, b.value), b.value, m.Bound*100, status,
				worse*100, b.spread*100, c.spread*100)
		}
		status := "ok"
		if failed > 0 {
			status, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-12s %-20s %14s %14d %22s %6.0f%%  %s\n", wl.Name, "failed_ops", "", failed, "", 0.0, status)
	}
	return regressed, nil
}
