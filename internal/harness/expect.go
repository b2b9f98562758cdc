package harness

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"github.com/graphsd/graphsd/internal/storage"
)

// expectationsJSON is the committed testdata/expectations.json, the one table
// every figure's gate reads. "always" rows are design floors that hold at any
// seed and scale (the compressed tier's capacity ratio, the scheduler's
// envelope and misprediction tolerances, async's byte reduction). "recorded"
// rows were read off a run at the (seed, scale) their block names — who has the
// least device time in a Figure 5 cell, how many bytes async moved — and are
// enforced only when a run reproduces that configuration on the ScaledHDD
// profile, so a reseeded or re-profiled run does not trip them. Every recorded
// row reads the simulated device clock or a byte count: deterministic to the
// nanosecond, where measured compute is the host's (under the race detector it
// flips close cells at random). The file is kept by hand: a row changes when a
// PR means to change what it records.
//
//go:embed testdata/expectations.json
var expectationsJSON []byte

// expectation is one row: a bound on one metric of one figure's cells. An empty
// Dataset or Algorithm covers every cell the figure observed.
type expectation struct {
	Figure    string `json:"figure"`
	Dataset   string `json:"dataset,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Metric    string `json:"metric"`
	// Least names the system that must read the least Metric in the cell.
	Least string `json:"least,omitempty"`
	// AtMost and AtLeast bound the observed value; Slack (default 1) widens
	// either by that factor, so a row can carry the number as recorded.
	AtMost  *float64 `json:"at_most,omitempty"`
	AtLeast *float64 `json:"at_least,omitempty"`
	Slack   float64  `json:"slack,omitempty"`
}

// observation is one number a figure measured: Metric of System in the cell
// (Dataset, Algorithm).
type observation struct {
	dataset, algorithm, system, metric string
	value                              float64
}

func (row expectation) covers(o observation) bool {
	return o.metric == row.Metric &&
		(row.Dataset == "" || row.Dataset == o.dataset) &&
		(row.Algorithm == "" || row.Algorithm == o.algorithm)
}

// expectations returns the table's rows for figure that are in force under c:
// the always rows, and the rows recorded at c's seed and scale if c runs the
// ScaledHDD profile they were recorded on.
func (c *Config) expectations(figure string) ([]expectation, error) {
	var table struct {
		Always   []expectation `json:"always"`
		Recorded []struct {
			Seed  int64         `json:"seed"`
			Quick bool          `json:"quick"`
			Rows  []expectation `json:"rows"`
		} `json:"recorded"`
	}
	if err := json.Unmarshal(expectationsJSON, &table); err != nil {
		return nil, fmt.Errorf("harness: corrupt committed expectation table: %w", err)
	}
	all := table.Always
	for _, rec := range table.Recorded {
		if rec.Seed == c.Seed && rec.Quick == c.Quick && c.profile() == storage.ScaledHDD {
			all = append(all, rec.Rows...)
		}
	}
	var rows []expectation
	for _, row := range all {
		if row.Figure == figure {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// hold checks what figure observed against the rows in force for it and
// returns the first miss, naming figure and cell. Rows whose cell the run left
// out (a -datasets filter) are not checked.
func (c *Config) hold(figure string, obs []observation) error {
	rows, err := c.expectations(figure)
	if err != nil {
		return err
	}
	for _, row := range rows {
		slack := row.Slack
		if slack == 0 {
			slack = 1
		}
		for _, o := range obs {
			if !row.covers(o) {
				continue
			}
			miss := ""
			switch {
			case row.Least != "":
				for _, held := range obs {
					if row.covers(held) && held.dataset == o.dataset && held.algorithm == o.algorithm &&
						held.system == row.Least && o.value < held.value {
						miss = fmt.Sprintf("%s held the least, now %s reads %v against its %v", row.Least, o.system, o.value, held.value)
					}
				}
			case row.AtMost != nil && o.value > *row.AtMost*slack:
				miss = fmt.Sprintf("%v, expected at most %v", o.value, *row.AtMost*slack)
			case row.AtLeast != nil && o.value*slack < *row.AtLeast:
				miss = fmt.Sprintf("%v, expected at least %v", o.value, *row.AtLeast/slack)
			}
			if miss != "" {
				return fmt.Errorf("harness: expectation %s %s/%s %s: %s", figure, o.dataset, o.algorithm, row.Metric, miss)
			}
		}
	}
	return nil
}
