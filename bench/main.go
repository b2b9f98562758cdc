// Command bench is the repository's benchmark: five seeded workloads over
// the engine and the job server, each reporting the same end-to-end metrics
// from an untraced run and the same per-layer metrics from counters and a
// shorter traced run. See README.md in this directory.
//
//	bash bench/run.sh -seed 1 -out bench/out/run.json    every workload, both runs, one file
//	bash bench/run.sh -workload pr_ooc                    the same for one workload
//	bash bench/run.sh -compare a.json b.json              regression check between two files
//	bash bench/run.sh --workload pr_ooc --seed 1 --seconds 15 --trace 0
//	                                                       one workload, one JSON result line
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

const schemaVersion = "graphsd-bench/1"

// envInfo is what every output file records about where it was made.
type envInfo struct {
	Seed          int64   `json:"seed"`
	Scale         scale   `json:"scale"`
	Seconds       float64 `json:"seconds"`
	TracedSeconds float64 `json:"traced_seconds"`
	FixedBlocks   int     `json:"fixed_blocks"` // of blockOps ops; 0 when the windows are timed
	Setups        int     `json:"setups"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	GitCommit     string  `json:"git_commit"`
	Profile       string  `json:"profile"`
	Codec         string  `json:"codec"`
	P             int     `json:"p"`
}

// report is the one output schema: every run of every workload, with the
// sample count beside each metric.
type report struct {
	Schema    string            `json:"schema"`
	Env       envInfo           `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

// gitCommit is the revision the binary was built from, when the build saw a
// repository.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

func newEnv(cfg config) envInfo {
	return envInfo{Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds, TracedSeconds: cfg.TracedSeconds,
		FixedBlocks: cfg.Blocks, Setups: cfg.Setups, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: gitCommit(), Profile: deviceProfileName, Codec: "delta", P: gridP}
}

// runWorkloads runs ws and checks each one's metrics against the definitions.
func runWorkloads(cfg config, ws []workload) (*report, error) {
	rep := &report{Schema: schemaVersion, Env: newEnv(cfg)}
	defer os.RemoveAll(cfg.WorkDir)
	for _, w := range ws {
		wr, err := w.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		wr.Why = w.Why
		if err := wr.EndToEnd.finish(endToEnd); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := wr.PerLayer.finish(perLayer); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// printReport writes every metric by name with its unit and sample count.
func printReport(rep *report) {
	for _, w := range rep.Workloads {
		fmt.Printf("%s: %d ops (%d traced), failed %d of %d\n", w.Name, w.Ops, w.TracedOps, w.Failed, w.Attempted)
		for _, f := range w.Failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		for _, d := range endToEnd {
			v := w.EndToEnd[d.Name]
			fmt.Printf("  %-32s %14.6g %-9s n=%d\n", d.Name, v.Value, v.Unit, v.Samples)
		}
		fmt.Printf("  %-32s %14.6g %-9s n=%d\n", "failed_ratio", w.FailedRatio, "ratio", w.Attempted)
		fmt.Printf("  %-32s %14.6g %-9s p%g\n", "wall_tail_s", w.WallTailS, "s", w.WallTailPct)
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; ok && v.Samples > 0 {
				fmt.Printf("    %-30s %14.6g %-9s n=%d\n", d.Name, v.Value, v.Unit, v.Samples)
			}
		}
	}
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		out      = flag.String("out", "", "write the full report to this file")
		scaleArg = flag.String("scale", "full", "input sizes: full or smoke")
		seconds  = flag.Float64("seconds", 15, "length of a workload's timed window")
		workName = flag.String("workload", "", "run only this workload")
		trace    = flag.Int("trace", -1, "with -workload, end with one JSON result line: 0 for the end-to-end metrics of an untraced run, 1 for the per-layer metrics of a traced one")
		compare  = flag.Bool("compare", false, "compare two report files (or comma-separated lists of them): base then candidate")
		bounds   = flag.String("bounds", "BENCHMARK.json", "with -compare: the file holding each metric's regression bound")
		workDir  = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for layouts and journals")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two arguments: base.json candidate.json"))
		}
		regressed, err := compareFiles(os.Stdout, *bounds, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scaleArg))
	}
	// Each invocation works in a directory of its own, so runs side by side
	// do not share layouts.
	cfg := config{Seed: *seed, Scale: sc, Seconds: *seconds, TracedSeconds: *seconds / 4, Setups: 3,
		WorkDir: filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())), OutDir: *outDir, probe: newHostProbe()}
	if sc.Name == "smoke" {
		cfg.Blocks, cfg.Setups = 1, 1
	}

	selected := workloads
	if *workName != "" {
		k := slices.IndexFunc(workloads, func(w workload) bool { return w.Name == *workName })
		if k < 0 {
			fatal(fmt.Errorf("unknown -workload %q", *workName))
		}
		selected = workloads[k : k+1]
	}
	if *trace < 0 {
		rep, err := runWorkloads(cfg, selected)
		if err != nil {
			fatal(err)
		}
		printReport(rep)
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fatal(err)
			}
		}
		exitOnFailures(rep)
		return
	}

	// With -trace: one workload, one result line. The untraced run alone
	// gives the end-to-end metrics; a shorter untraced run plus the traced
	// one give the per-layer metrics inside the same total time.
	if *workName == "" || *trace > 1 {
		fatal(errors.New("-trace takes 0 or 1 and needs -workload"))
	}
	defs, pick := endToEnd, func(w *workloadReport) metricSet { return w.EndToEnd }
	if *trace == 0 {
		cfg.TracedSeconds = 0
	} else {
		cfg.Seconds, cfg.TracedSeconds = *seconds/2, *seconds/4
		defs, pick = perLayer, func(w *workloadReport) metricSet { return w.PerLayer }
	}
	rep, err := runWorkloads(cfg, selected)
	if err != nil {
		fatal(err)
	}
	w := rep.Workloads[0]
	for _, f := range w.Failures {
		fmt.Fprintf(os.Stderr, "FAILED %s\n", f)
	}
	line := driverLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v := pick(w)[d.Name]
		line.Metrics[d.Name] = driverValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	exitOnFailures(rep)
}

func exitOnFailures(rep *report) {
	for _, w := range rep.Workloads {
		if w.Failed > 0 || w.Attempted == 0 {
			os.Exit(1)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
