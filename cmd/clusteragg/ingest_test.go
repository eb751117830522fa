package main

import (
	"encoding/json"
	"fmt"
	"io"
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

// runStdout runs the CLI and returns what it printed on stdout.
func runStdout(t *testing.T, path string, cfg cliConfig) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(path, cfg)
	os.Stdout = stdout
	w.Close()
	got := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRunPipelinedIngestEquiv: -describe only adds the profiles, so a
// sampled run at -seed 0 (which SAMPLING reads as seed 1, as AggregateCSV
// does) must print the same "#" lines and report the same result and
// counters with and without it, and the ingest counters must match the
// input.
func TestRunPipelinedIngestEquiv(t *testing.T) {
	csv := ingestCSV(300)
	path := writeCSV(t, csv)
	runSeed0 := func(describe bool) (string, obs.RunReport) {
		cfg := base()
		cfg.method = "furthest"
		cfg.header = true
		cfg.class = "class"
		cfg.sample = 25
		cfg.seed = 0
		cfg.summary = true
		cfg.describe = describe
		cfg.report = filepath.Join(t.TempDir(), "rep.json")
		var heads []string
		for _, line := range strings.Split(runStdout(t, path, cfg), "\n") {
			if strings.HasPrefix(line, "#") {
				heads = append(heads, line)
			}
		}
		data, err := os.ReadFile(cfg.report)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.RunReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return strings.Join(heads, "\n"), rep
	}
	wantOut, want := runSeed0(false)
	if want.Counters["ingest.rows"] != 300 || want.Counters["ingest.bytes"] != int64(len(csv)) {
		t.Fatalf("ingest counters = %d rows / %d bytes, want 300 / %d",
			want.Counters["ingest.rows"], want.Counters["ingest.bytes"], len(csv))
	}
	if want.Counters["sample.size"] != 25 {
		t.Fatalf("sample.size = %d, want 25", want.Counters["sample.size"])
	}
	gotOut, got := runSeed0(true)
	if gotOut != wantOut {
		t.Errorf("-describe prints\n%s\nwithout it\n%s", gotOut, wantOut)
	}
	if got.N != want.N || got.M != want.M || got.Clusters != want.Clusters ||
		got.Cost != want.Cost || got.LowerBound != want.LowerBound {
		t.Errorf("-describe: report head {n:%d m:%d k:%d cost:%v lb:%v}, want {n:%d m:%d k:%d cost:%v lb:%v}",
			got.N, got.M, got.Clusters, got.Cost, got.LowerBound,
			want.N, want.M, want.Clusters, want.Cost, want.LowerBound)
	}
	for _, name := range []string{"ingest.rows", "ingest.bytes", "sample.size", "sample.assigned", "sample.fresh_singletons"} {
		if got.Counters[name] != want.Counters[name] {
			t.Errorf("-describe: counter %s = %d, want %d", name, got.Counters[name], want.Counters[name])
		}
	}
}

// TestRunPipelinedDescribeFallsBack: a sampled run with -describe streams
// its input like any other run and still prints the cluster profiles.
func TestRunPipelinedDescribeFallsBack(t *testing.T) {
	path := writeCSV(t, ingestCSV(150))
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.sample = 20
	cfg.describe = true
	if out := runStdout(t, path, cfg); !strings.Contains(out, "cluster 0: size=") {
		t.Errorf("sampled run has no profiles:\n%s", out)
	}
}

// TestRunParallelIngestExact: an exact (non-sampling) run streams its
// input and clusters it.
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
