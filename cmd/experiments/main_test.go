package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"clusteragg/internal/experiments"
)

func tinyCfg() experiments.Config {
	return experiments.Config{
		Seed:             1,
		MushroomsRows:    300,
		CensusRows:       800,
		Quiet:            true,
		SampleSizes:      []int{50},
		ScalabilitySizes: []int{1200},
		IngestRows:       2000,
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if err := run("nope", tinyCfg(), false, false, &reporter{}); err == nil {
		t.Error("unknown artifact accepted")
	}
}

// TestMainNegativeWorkersExits runs the command itself (this test binary
// re-executed as main) with -workers -3: it must exit 1 and name the
// negative option on stderr.
func TestMainNegativeWorkersExits(t *testing.T) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = []string{"experiments", "-workers", "-3", "table1"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainNegativeWorkersExits$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("experiments -workers -3: %v, want exit status 1", err)
	}
	if want := "experiments: -workers -3: clusteragg: negative option"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q, want it to contain %q", stderr.String(), want)
	}
}

func TestRunArtifacts(t *testing.T) {
	for _, artifact := range []string{"fig3", "fig4", "table1", "table2", "census", "fig5left", "fig5right", "ingest"} {
		artifact := artifact
		t.Run(artifact, func(t *testing.T) {
			if err := run(artifact, tinyCfg(), false, false, &reporter{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunWithPlots(t *testing.T) {
	if err := run("fig3", tinyCfg(), true, false, &reporter{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	for _, artifact := range []string{"fig4", "table2", "missing"} {
		if err := run(artifact, tinyCfg(), false, true, &reporter{}); err != nil {
			t.Fatalf("%s as JSON: %v", artifact, err)
		}
	}
}

// TestRunCollectsTraces checks -tracefile collection alone: trace processes
// accumulate (one per artifact, spans attached) without any RunReports.
func TestRunCollectsTraces(t *testing.T) {
	rep := &reporter{collectTrace: true}
	if err := run("fig4", tinyCfg(), false, false, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.traces) != 1 || rep.traces[0].Name != "fig4" {
		t.Fatalf("traces = %+v, want one process named fig4", rep.traces)
	}
	if len(rep.traces[0].Spans) == 0 {
		t.Error("fig4 trace process has no spans")
	}
	if len(rep.traces[0].Series) == 0 {
		t.Error("fig4 trace process has no series for counter events")
	}
	if len(rep.reports) != 0 {
		t.Errorf("reports accumulated without -report: %d", len(rep.reports))
	}
}

func TestRunWithReporter(t *testing.T) {
	rep := &reporter{enabled: true}
	for _, artifact := range []string{"table2", "fig3"} {
		if err := run(artifact, tinyCfg(), false, false, rep); err != nil {
			t.Fatal(err)
		}
	}
	if len(rep.reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(rep.reports))
	}
	for _, r := range rep.reports {
		if r.SchemaVersion == 0 || r.WallNS <= 0 {
			t.Errorf("%s: schema_version=%d wall_ns=%d", r.Name, r.SchemaVersion, r.WallNS)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: no metrics extracted", r.Name)
		}
		if len(r.Counters) == 0 {
			t.Errorf("%s: no counters collected", r.Name)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s: no convergence series collected", r.Name)
		}
	}
	// The Section-5 table protocol runs LOCALSEARCH and rates every row
	// against the lower bound, so its report carries both headline series.
	table2 := rep.reports[0]
	for _, key := range []string{"localsearch.cost", "cost_over_lower_bound", "agglomerative.merge_loss", "limbo.merge_loss"} {
		if len(table2.Series[key].Points) == 0 {
			t.Errorf("table2: series %s missing or empty", key)
		}
	}
}
