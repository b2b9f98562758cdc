package harness

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

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
// flips close cells at random). A run with Config.Record writes them
// (`graphbench -record`): a recorded block changes when a PR means to change
// what it records, and is re-recorded, not edited.
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
	// Least and Most name the systems that must read the least and the most
	// Metric in the cell.
	Least string `json:"least,omitempty"`
	Most  string `json:"most,omitempty"`
	// AtMost and AtLeast bound the observed value; Slack (default 1) widens
	// either by that factor, so a row can carry the number as recorded.
	AtMost  *float64 `json:"at_most,omitempty"`
	AtLeast *float64 `json:"at_least,omitempty"`
	Slack   float64  `json:"slack,omitempty"`
}

// expectationTable is the file's shape.
type expectationTable struct {
	Always   []expectation   `json:"always"`
	Recorded []recordedBlock `json:"recorded"`
}

type recordedBlock struct {
	Seed  int64         `json:"seed"`
	Quick bool          `json:"quick"`
	Rows  []expectation `json:"rows"`
}

func parseTable(data []byte) (expectationTable, error) {
	var t expectationTable
	if err := json.Unmarshal(data, &t); err != nil {
		return t, fmt.Errorf("harness: corrupt expectation table: %w", err)
	}
	return t, nil
}

// marshal writes the table one row to a line, the committed file's layout.
func (t expectationTable) marshal() ([]byte, error) {
	var b bytes.Buffer
	rows := func(indent string, rs []expectation) error {
		for k, r := range rs {
			line, err := json.Marshal(r)
			if err != nil {
				return err
			}
			b.WriteString(indent)
			b.Write(line)
			if k < len(rs)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		return nil
	}
	b.WriteString("{\n \"always\": [\n")
	if err := rows("  ", t.Always); err != nil {
		return nil, err
	}
	b.WriteString(" ],\n \"recorded\": [\n")
	for k, blk := range t.Recorded {
		fmt.Fprintf(&b, "  {\"seed\": %d, \"quick\": %t, \"rows\": [\n", blk.Seed, blk.Quick)
		if err := rows("   ", blk.Rows); err != nil {
			return nil, err
		}
		b.WriteString("  ]}")
		if k < len(t.Recorded)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString(" ]\n}\n")
	return b.Bytes(), nil
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
// ScaledHDD profile they were recorded on — unless c is recording them.
func (c *Config) expectations(figure string) ([]expectation, error) {
	table, err := parseTable(expectationsJSON)
	if err != nil {
		return nil, err
	}
	all := table.Always
	for _, rec := range table.Recorded {
		if c.recordsAt(rec) && !c.Record {
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

// recordsAt reports whether blk was recorded at c's configuration.
func (c *Config) recordsAt(blk recordedBlock) bool {
	return blk.Seed == c.Seed && blk.Quick == c.Quick && c.profile() == storage.ScaledHDD
}

// hold checks what figure observed against the rows in force for it and
// returns the first miss, naming figure and cell. Rows whose cell the run left
// out (a -datasets filter) are not checked. Under Record it first records the
// figure's rows from obs.
func (c *Config) hold(figure string, obs []observation) error {
	if c.Record {
		c.record(figure, obs)
	}
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
			case row.Least != "" || row.Most != "":
				for _, held := range obs {
					if !row.covers(held) || held.dataset != o.dataset || held.algorithm != o.algorithm {
						continue
					}
					if held.system == row.Least && o.value < held.value {
						miss = fmt.Sprintf("%s held the least, now %s reads %v against its %v", row.Least, o.system, o.value, held.value)
					}
					if held.system == row.Most && o.value > held.value {
						miss = fmt.Sprintf("%s held the most, now %s reads %v against its %v", row.Most, o.system, o.value, held.value)
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

// recordRule is how a run records a metric's rows: by naming the systems that
// read the least (and the most) in each cell, or as a bound at the observed
// value — at least or at most it, widened by slack. Metrics without a rule are
// gated by always rows only.
type recordRule struct {
	least, most bool
	atLeast     bool
	slack       float64
}

var recordRules = map[string]recordRule{
	"device_time":              {least: true},                // fig5
	"io_time_over_husgraph":    {slack: 1.05},                // fig6
	"io_time_over_lumos":       {slack: 1.05},                // fig6
	"device_bytes":             {least: true},                // fig7
	"written_bytes":            {least: true, most: true},    // fig8
	"bytes_over_graphsd":       {atLeast: true, slack: 1.05}, // fig9
	"envelope_iterations":      {atLeast: true},              // fig10
	"io_saved_vs_on_demand_ns": {atLeast: true, slack: 2},    // fig11
	"bytes_over_unbuffered":    {},                           // fig12
	"async_device_bytes":       {slack: 1.05},                // fig-async
}

// record replaces figure's recorded rows with those obs calls for.
func (c *Config) record(figure string, obs []observation) {
	var rows []expectation
	cells := map[observation]int{}    // a least row's cell (no system, no value) → its index
	extremes := map[int]*[2]float64{} // a least row's least and most value so far
	for _, o := range obs {
		rule, ok := recordRules[o.metric]
		if !ok {
			continue
		}
		row := expectation{Figure: figure, Dataset: o.dataset, Algorithm: o.algorithm, Metric: o.metric}
		if rule.least {
			cell := observation{dataset: o.dataset, algorithm: o.algorithm, metric: o.metric}
			k, seen := cells[cell]
			if !seen {
				k = len(rows)
				cells[cell] = k
				rows = append(rows, row)
				extremes[k] = &[2]float64{math.Inf(1), math.Inf(-1)}
			}
			if x := extremes[k]; o.value < x[0] {
				x[0], rows[k].Least = o.value, o.system
			}
			if x := extremes[k]; rule.most && o.value > x[1] {
				x[1], rows[k].Most = o.value, o.system
			}
			continue
		}
		// The bound is the observed value, rounded outward to three decimals;
		// slack widens only a positive bound, since widening a negative one by
		// a factor would tighten it.
		v := o.value
		if rule.atLeast {
			v = math.Floor(v*1000) / 1000
			row.AtLeast = &v
		} else {
			v = math.Ceil(v*1000) / 1000
			row.AtMost = &v
		}
		if v > 0 && rule.slack != 0 {
			row.Slack = rule.slack
		}
		rows = append(rows, row)
	}
	if c.recorded == nil {
		c.recorded = map[string][]expectation{}
	}
	c.recorded[figure] = rows
}

// RecordedTable returns table — an expectation table's JSON — with its block
// for c's seed and scale holding, for every figure this Config ran, the rows
// the run recorded in place of those it held; the rows of figures it did not
// run stay. It is an error unless c recorded on the ScaledHDD profile.
func (c *Config) RecordedTable(table []byte) ([]byte, error) {
	if !c.Record || c.profile() != storage.ScaledHDD || len(c.Datasets) > 0 {
		return nil, fmt.Errorf("harness: rows are recorded by a Record run over every dataset on the ScaledHDD profile")
	}
	t, err := parseTable(table)
	if err != nil {
		return nil, err
	}
	k := 0
	for k < len(t.Recorded) && !c.recordsAt(t.Recorded[k]) {
		k++
	}
	if k == len(t.Recorded) {
		t.Recorded = append(t.Recorded, recordedBlock{Seed: c.Seed, Quick: c.Quick})
	}
	var rows []expectation
	for _, e := range Experiments() {
		if recorded, ran := c.recorded[e.ID]; ran {
			rows = append(rows, recorded...)
			continue
		}
		for _, row := range t.Recorded[k].Rows {
			if row.Figure == e.ID {
				rows = append(rows, row)
			}
		}
	}
	t.Recorded[k].Rows = rows
	return t.marshal()
}
