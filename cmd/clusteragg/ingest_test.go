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

// TestRunPipelinedIngestEquiv: -ingest-workers must not change any
// deterministic report field — result shape, costs, or the sampling and
// ingest counters — whether ingest is sequential or streamed into the
// packed label block.
func TestRunPipelinedIngestEquiv(t *testing.T) {
	csv := ingestCSV(300)
	path := writeCSV(t, csv)
	report := func(ingest int) obs.RunReport {
		cfg := base()
		cfg.header = true
		cfg.class = "class"
		cfg.sample = 25
		cfg.ingestWorkers = ingest
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
	want := report(0)
	if want.Counters["ingest.rows"] != 300 || want.Counters["ingest.bytes"] != int64(len(csv)) {
		t.Fatalf("sequential ingest counters = %d rows / %d bytes, want 300 / %d",
			want.Counters["ingest.rows"], want.Counters["ingest.bytes"], len(csv))
	}
	if want.Counters["sample.size"] != 25 {
		t.Fatalf("sample.size = %d, want 25", want.Counters["sample.size"])
	}
	for _, workers := range []int{1, 2} {
		got := report(workers)
		if got.N != want.N || got.M != want.M || got.Clusters != want.Clusters ||
			got.Cost != want.Cost || got.LowerBound != want.LowerBound {
			t.Errorf("ingest-workers=%d: report head {n:%d m:%d k:%d cost:%v lb:%v}, want {n:%d m:%d k:%d cost:%v lb:%v}",
				workers, got.N, got.M, got.Clusters, got.Cost, got.LowerBound,
				want.N, want.M, want.Clusters, want.Cost, want.LowerBound)
		}
		for _, name := range []string{"ingest.rows", "ingest.bytes", "sample.size", "sample.assigned", "sample.fresh_singletons"} {
			if got.Counters[name] != want.Counters[name] {
				t.Errorf("ingest-workers=%d: counter %s = %d, want %d", workers, name, got.Counters[name], want.Counters[name])
			}
		}
	}
}

// TestRunPipelinedDescribeFallsBack: -describe needs the materialized
// table, so it must take the drain-then-compute path even with
// -ingest-workers set — and still work.
func TestRunPipelinedDescribeFallsBack(t *testing.T) {
	path := writeCSV(t, ingestCSV(150))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.sample = 20
	cfg.ingestWorkers = 2
	cfg.describe = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunParallelIngestExact: -ingest-workers on the exact (non-sampling)
// path parses with the chunked reader into the classic pipeline.
func TestRunParallelIngestExact(t *testing.T) {
	path := writeCSV(t, ingestCSV(50))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.ingestWorkers = 3
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}
