package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReportSchemaVersion identifies the RunReport JSON layout. Bump it on any
// field rename or semantic change so downstream diff tooling can detect
// incompatible trajectories.
//
// Version history:
//
//	1 — counters + spans (PR 1).
//	2 — adds the gauges and histograms sections, and start_ns/self_ns on
//	    every span. Version-1 reports remain readable: the new fields
//	    decode to their zero values, and cmd/benchdiff accepts both.
//	3 — adds the series section (convergence time-series per run).
//	    Version-1 and -2 reports remain readable the same way: series
//	    decodes to nil and every consumer treats that as "no trajectory
//	    recorded".
//	4 — adds the alloc section (heap-allocation deltas + peak live heap
//	    per run, see AllocStats). Versions 1–3 remain readable: alloc
//	    decodes to nil and consumers treat that as "no memory telemetry".
//	5 — adds the events section (the structured event log's retained tail,
//	    see EventsSnapshot). Versions 1–4 remain readable: events decodes
//	    to nil and consumers treat that as "no event log". cmd/benchdiff
//	    compares event content but never the wall_ns timestamps.
//	6 — drops the histograms section: every latency histogram repeated a
//	    span or a series. Versions 1–5 remain readable: encoding/json
//	    ignores a histograms key, and no consumer read it.
const ReportSchemaVersion = 6

// RunReport is the machine-readable record of one run: problem shape,
// method, objective values, wall time, and everything the Recorder
// collected. clusteragg -report writes one RunReport; cmd/experiments
// -report writes a BenchReport holding one per artifact.
type RunReport struct {
	SchemaVersion int `json:"schema_version"`
	// Name identifies the run (the experiments artifact name; empty for
	// plain clusteragg runs).
	Name string `json:"name,omitempty"`
	// N is the number of objects, M the number of input clusterings.
	N int `json:"n"`
	M int `json:"m,omitempty"`
	// Method is the aggregation method (or "bestof:<winner>").
	Method string `json:"method,omitempty"`
	// Clusters is the number of clusters in the result.
	Clusters int `json:"clusters,omitempty"`
	// Cost is the objective value (total disagreement, unordered-pair
	// scale) and LowerBound the trivial lower bound on it.
	Cost       float64 `json:"cost"`
	LowerBound float64 `json:"lower_bound,omitempty"`
	// WallNS is the end-to-end wall-clock time of the run in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Workers is the effective worker-goroutine cap used for materialization
	// and method racing (the resolved -workers flag; 0 when unknown).
	Workers int `json:"workers,omitempty"`
	// Metrics holds run-specific headline numbers (classification error,
	// time ratios, ...) keyed by a short name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Alloc holds the run's heap-allocation deltas and peak live heap
	// (schema_version ≥ 4; nil on older reports and untracked runs).
	// cmd/benchdiff gates Alloc.Bytes under a ratio budget like wall time.
	Alloc *AllocStats `json:"alloc,omitempty"`
	// Counters, Gauges, Series, and Spans are the Recorder's snapshots
	// (gauges since schema_version 2, series since schema_version 3).
	Counters map[string]int64          `json:"counters,omitempty"`
	Gauges   map[string]float64        `json:"gauges,omitempty"`
	Series   map[string]SeriesSnapshot `json:"series,omitempty"`
	// Events is the structured event log's retained tail (schema_version
	// ≥ 5; nil on older reports and runs that emitted no events). Event
	// attributes are deterministic at a fixed seed; wall_ns is not and is
	// never compared.
	Events *EventsSnapshot `json:"events,omitempty"`
	Spans  []SpanSnapshot  `json:"spans,omitempty"`
}

// FillFrom copies the recorder's counters, gauges, series, events, and
// spans into the report.
func (r *RunReport) FillFrom(rec *Recorder) {
	r.SchemaVersion = ReportSchemaVersion
	r.Counters = rec.Counters()
	r.Gauges = rec.Gauges()
	r.Series = rec.AllSeries()
	r.Events = rec.EventsSnapshot()
	r.Spans = rec.Spans()
}

// BenchReport is the cmd/experiments -report payload: one RunReport per
// table/figure artifact, in run order, so bench trajectories diff cleanly
// across PRs.
type BenchReport struct {
	SchemaVersion int         `json:"schema_version"`
	Config        string      `json:"config,omitempty"`
	Artifacts     []RunReport `json:"artifacts"`
}

// ReadReportFile loads a report file, accepting either a BenchReport
// (cmd/experiments -report) or a bare RunReport (clusteragg -report), which
// is wrapped as a one-artifact BenchReport. Every schema version parses:
// sections a version predates decode to their zero values. It is the shared
// loader behind cmd/benchdiff and `clusteragg analyze`.
func ReadReportFile(path string) (BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return BenchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	if _, isBench := probe["artifacts"]; isBench {
		var b BenchReport
		if err := json.Unmarshal(data, &b); err != nil {
			return BenchReport{}, fmt.Errorf("%s: %w", path, err)
		}
		return b, nil
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return BenchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Name == "" {
		r.Name = "(run)"
	}
	return BenchReport{SchemaVersion: r.SchemaVersion, Artifacts: []RunReport{r}}, nil
}

// WriteJSON writes v as indented JSON to path ("-" means stdout).
func WriteJSON(path string, v any) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
