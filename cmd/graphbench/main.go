// Command graphbench regenerates the paper's evaluation tables and figures
// (Table 3, Table 4, Figures 5–12) over the synthetic datasets and the
// simulated disk substrate.
//
// Usage:
//
//	graphbench -experiment all [-quick] [-seed N] [-workdir DIR]
//	graphbench -experiment fig5 -datasets twitter-sim,uk-sim
//	graphbench -experiment all [-quick] -record internal/harness/testdata/expectations.json
//	graphbench -list
//
// Every run is held to the expectation table's rows for its seed and scale;
// -record instead rewrites those rows of the named table from the run, figure
// by figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/graphsd/graphsd/internal/harness"
	"github.com/graphsd/graphsd/internal/storage"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (table3, fig5..fig12) or 'all'")
		list       = flag.Bool("list", false, "list available experiments and exit")
		quick      = flag.Bool("quick", false, "use ~16x smaller datasets for a fast run")
		seed       = flag.Int64("seed", 1, "generator seed")
		workdir    = flag.String("workdir", "", "layout scratch directory (default: temp dir)")
		datasets   = flag.String("datasets", "", "comma-separated dataset filter (e.g. twitter-sim,uk-sim)")
		profile    = flag.String("profile", "scaled-hdd", "disk model: scaled-hdd, hdd, ssd")
		record     = flag.String("record", "", "rewrite this expectation table's rows for -seed and -quick from the run instead of holding the run to them")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var prof storage.Profile
	switch *profile {
	case "scaled-hdd":
		prof = storage.ScaledHDD
	case "hdd":
		prof = storage.HDD
	case "ssd":
		prof = storage.SSD
	case "pmem":
		prof = storage.PMem
	default:
		fatalf("unknown profile %q (have scaled-hdd, hdd, ssd, pmem)", *profile)
	}

	dir := *workdir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "graphbench-*")
		if err != nil {
			fatalf("creating workdir: %v", err)
		}
		defer os.RemoveAll(dir)
	}

	cfg := &harness.Config{
		WorkDir: dir,
		Seed:    *seed,
		Quick:   *quick,
		Profile: &prof,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	var table []byte
	if *record != "" {
		var err error
		if table, err = os.ReadFile(*record); err != nil {
			fatalf("%v", err)
		}
		cfg.Record = true
	}

	if *experiment == "all" {
		if err := harness.RunAll(cfg, os.Stdout); err != nil {
			fatalf("%v", err)
		}
	} else {
		exp, err := harness.ByID(*experiment)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("### %s — %s\n\n", exp.ID, exp.Title)
		if err := exp.Run(cfg, os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
	if *record != "" {
		out, err := cfg.RecordedTable(table)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*record, out, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphbench: "+format+"\n", args...)
	os.Exit(1)
}
