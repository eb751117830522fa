package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusteragg/internal/obs"
)

// ingestCSV builds a deterministic CSV with two categorical attributes and
// a class column.
func ingestCSV(rows int) string {
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	b.WriteString("a,b,class\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "x%d,y%d,%s\n", rng.Intn(6), rng.Intn(4), []string{"A", "B"}[i%2])
	}
	return b.String()
}

// TestRunPipelinedIngestEquiv: a sampled run streams its rows through
// AggregateCSV unless -describe asks for the table, and the two paths must
// agree on every deterministic report field — result shape, costs, and the
// sampling and ingest counters.
func TestRunPipelinedIngestEquiv(t *testing.T) {
	csv := ingestCSV(300)
	path := writeCSV(t, csv)
	report := func(describe bool) obs.RunReport {
		cfg := base()
		cfg.header = true
		cfg.class = "class"
		cfg.sample = 25
		cfg.describe = describe
		cfg.report = filepath.Join(t.TempDir(), "rep.json")
		if err := run(path, cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.report)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := report(true)
	if want.Counters["ingest.rows"] != 300 || want.Counters["ingest.bytes"] != int64(len(csv)) {
		t.Fatalf("table ingest counters = %d rows / %d bytes, want 300 / %d",
			want.Counters["ingest.rows"], want.Counters["ingest.bytes"], len(csv))
	}
	if want.Counters["sample.size"] != 25 {
		t.Fatalf("sample.size = %d, want 25", want.Counters["sample.size"])
	}
	got := report(false)
	if got.N != want.N || got.M != want.M || got.Clusters != want.Clusters ||
		got.Cost != want.Cost || got.LowerBound != want.LowerBound {
		t.Errorf("streamed: report head {n:%d m:%d k:%d cost:%v lb:%v}, want {n:%d m:%d k:%d cost:%v lb:%v}",
			got.N, got.M, got.Clusters, got.Cost, got.LowerBound,
			want.N, want.M, want.Clusters, want.Cost, want.LowerBound)
	}
	for _, name := range []string{"ingest.rows", "ingest.bytes", "sample.size", "sample.assigned", "sample.fresh_singletons"} {
		if got.Counters[name] != want.Counters[name] {
			t.Errorf("streamed: counter %s = %d, want %d", name, got.Counters[name], want.Counters[name])
		}
	}
}

// TestRunPipelinedDescribeFallsBack: -describe needs the materialized
// table, so a sampled run with it must read the table instead of
// streaming — and still work.
func TestRunPipelinedDescribeFallsBack(t *testing.T) {
	path := writeCSV(t, ingestCSV(150))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.sample = 20
	cfg.describe = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelIngestExact: an exact (non-sampling) run reads the table
// and clusters it.
func TestRunParallelIngestExact(t *testing.T) {
	path := writeCSV(t, ingestCSV(50))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}
