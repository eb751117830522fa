package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"clusteragg/internal/core"
	"clusteragg/internal/obs"
)

// bestofCSV is small but non-degenerate: two planted groups with a noisy
// third attribute, enough for every method to do real distance work.
func bestofCSV(t *testing.T) string {
	t.Helper()
	rows := "a,b,c\n"
	for i := 0; i < 24; i++ {
		switch {
		case i%2 == 0 && i%3 == 0:
			rows += "x,p,m\n"
		case i%2 == 0:
			rows += "x,p,n\n"
		case i%3 == 0:
			rows += "y,q,m\n"
		default:
			rows += "y,q,n\n"
		}
	}
	return writeCSV(t, rows)
}

func TestRunTraceOutput(t *testing.T) {
	path := bestofCSV(t)
	var buf bytes.Buffer
	cfg := base()
	cfg.method = "bestof"
	cfg.header = true
	cfg.summary = true
	cfg.trace = true
	cfg.traceOut = &buf
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"spans (wall clock):",
		"pipeline",
		"ingest",
		"bestof",
		"materialize",
		"objective",
		"counters:",
		".dist_probes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	// Every paper method raced by bestof appears as a span.
	for _, m := range core.Methods() {
		if !strings.Contains(out, "method:"+m.Slug()) {
			t.Errorf("trace output missing span method:%s:\n%s", m.Slug(), out)
		}
	}
}

// TestRunReportSchema is the golden-schema test: the -report JSON must
// expose exactly the documented top-level keys (docs/OBSERVABILITY.md), and
// the acceptance criterion — nonzero distance probes for all five paper
// methods under bestof — must hold.
func TestRunReportSchema(t *testing.T) {
	path := bestofCSV(t)
	reportPath := filepath.Join(t.TempDir(), "report.json")
	cfg := base()
	cfg.method = "bestof"
	cfg.header = true
	cfg.summary = true
	cfg.report = reportPath
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}

	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("report is not a JSON object: %v", err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"alloc", "clusters", "cost", "counters", "events", "gauges",
		"lower_bound", "m", "method", "n", "schema_version", "series",
		"spans", "wall_ns", "workers",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("report keys = %v, want %v", got, want)
	}

	var rep obs.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != obs.ReportSchemaVersion {
		t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, obs.ReportSchemaVersion)
	}
	if rep.N != 24 || rep.M != 3 {
		t.Errorf("n=%d m=%d, want 24 and 3", rep.N, rep.M)
	}
	if !strings.HasPrefix(rep.Method, "bestof:") {
		t.Errorf("method = %q, want bestof:<winner>", rep.Method)
	}
	if rep.Clusters <= 0 || rep.WallNS <= 0 {
		t.Errorf("clusters=%d wall_ns=%d, want both > 0", rep.Clusters, rep.WallNS)
	}
	if rep.Cost < rep.LowerBound {
		t.Errorf("cost %f below lower bound %f", rep.Cost, rep.LowerBound)
	}
	if len(rep.Spans) == 0 {
		t.Error("report has no spans")
	}
	// Every racer that reads distances counts its probes; BESTCLUSTERING
	// and the racers' scoring read contingency counts, not X.
	for _, m := range core.Methods() {
		if m == core.MethodBest {
			continue
		}
		key := m.Slug() + ".dist_probes"
		if rep.Counters[key] <= 0 {
			t.Errorf("counter %s = %d, want > 0", key, rep.Counters[key])
		}
	}
	// The incremental LOCALSEARCH kernel's counters flow into the report:
	// delta updates happen whenever moves do, and the refresh counter is
	// registered even when zero.
	if rep.Counters["localsearch.delta_updates"] <= 0 {
		t.Errorf("counter localsearch.delta_updates = %d, want > 0", rep.Counters["localsearch.delta_updates"])
	}
	if _, ok := rep.Counters["localsearch.refreshes"]; !ok {
		t.Error("counter localsearch.refreshes missing from report")
	}
	// Per-stage timing is the span tree: the shared matrix build has its
	// own span. Schema v2 added the live gauges.
	if !hasSpan(rep.Spans, "materialize") {
		t.Error("materialize span missing from report")
	}
	if _, ok := rep.Gauges["localsearch.clusters"]; !ok {
		t.Error("gauge localsearch.clusters missing from report")
	}
	// Schema v3 additions: convergence series. bestof races LOCALSEARCH, so
	// its cost trajectory must be present, along with the race series and
	// the derived quality ratio.
	for _, key := range []string{
		"localsearch.cost", "localsearch.moves", "bestof.cost",
		"bestof.method.seconds", "cost_over_lower_bound",
	} {
		ss, ok := rep.Series[key]
		if !ok || len(ss.Points) == 0 {
			t.Errorf("series %s missing or empty in report", key)
		}
	}
	if ss := rep.Series["cost_over_lower_bound"]; len(ss.Points) > 0 {
		if v := ss.Points[len(ss.Points)-1].Value; v < 1 {
			t.Errorf("cost_over_lower_bound = %g, want >= 1", v)
		}
	}
	// Schema v4 additions: allocation telemetry.
	if rep.Alloc == nil {
		t.Fatal("alloc section missing from report")
	}
	if rep.Alloc.Bytes == 0 || rep.Alloc.Mallocs == 0 || rep.Alloc.PeakHeapBytes == 0 {
		t.Errorf("alloc section not populated: %+v", rep.Alloc)
	}
}

// hasSpan reports whether a span named name occurs anywhere in the forest.
func hasSpan(spans []obs.SpanSnapshot, name string) bool {
	for _, s := range spans {
		if s.Name == name || hasSpan(s.Children, name) {
			return true
		}
	}
	return false
}

// TestRunStdoutIgnoresInstrumentation pins the CLI's observation contract:
// instrumentation never steers, so stdout is byte-identical with and
// without any sink attached, for exact and sampled runs, and at every
// -workers value (each run is compared with the bare one-worker run).
func TestRunStdoutIgnoresInstrumentation(t *testing.T) {
	path := writeCSV(t, ingestCSV(600))
	dir := t.TempDir()
	sinks := []struct {
		name   string
		attach func(cfg *cliConfig)
	}{
		{"trace", func(cfg *cliConfig) { cfg.trace, cfg.traceOut = true, io.Discard }},
		{"report", func(cfg *cliConfig) { cfg.report = filepath.Join(dir, "report.json") }},
		{"tracefile", func(cfg *cliConfig) { cfg.tracefile = filepath.Join(dir, "trace.json") }},
		{"progress", func(cfg *cliConfig) { cfg.progress, cfg.progressOut = true, io.Discard }},
		{"log", func(cfg *cliConfig) { cfg.logFormat, cfg.logOut = "json", io.Discard }},
		{"cpuprofile", func(cfg *cliConfig) { cfg.cpuprofile = filepath.Join(dir, "cpu.pprof") }},
	}
	for _, mode := range []struct {
		name   string
		method string
		sample int
	}{{"exact", "bestof", 0}, {"sample", "agglomerative", 120}} {
		cfg := base()
		cfg.method = mode.method
		cfg.sample = mode.sample
		cfg.header = true
		cfg.class = "class"
		cfg.workers = 1
		want := runStdout(t, path, cfg)
		for _, workers := range []int{1, 4} {
			cfg.workers = workers
			all := cfg
			for _, sink := range sinks {
				one := cfg
				sink.attach(&one)
				sink.attach(&all)
				if got := runStdout(t, path, one); got != want {
					t.Errorf("%s workers=%d -%s: stdout differs from the bare run:\n%s\nwant:\n%s", mode.name, workers, sink.name, got, want)
				}
			}
			if got := runStdout(t, path, all); got != want {
				t.Errorf("%s workers=%d, every sink: stdout differs from the bare run:\n%s\nwant:\n%s", mode.name, workers, got, want)
			}
		}
	}
}

// TestRunProgressOutput checks the -progress ticker: at least the guaranteed
// completion events reach the writer, formatted as stderr comments.
func TestRunProgressOutput(t *testing.T) {
	path := bestofCSV(t)
	var buf bytes.Buffer
	cfg := base()
	cfg.method = "localsearch"
	cfg.header = true
	cfg.summary = true
	cfg.progress = true
	cfg.progressOut = &buf
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# localsearch ") {
		t.Errorf("-progress output has no localsearch events:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "# ") {
			t.Errorf("progress line %q is not a comment", line)
		}
	}
}

// TestRunTraceFile checks -tracefile emits valid trace_event JSON with the
// run's spans.
func TestRunTraceFile(t *testing.T) {
	path := bestofCSV(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	cfg := base()
	cfg.method = "bestof"
	cfg.header = true
	cfg.summary = true
	cfg.tracefile = tracePath
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("tracefile is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range f.TraceEvents {
		names[e.Ph+":"+e.Name] = true
	}
	if !names["M:process_name"] {
		t.Error("tracefile has no process_name metadata event")
	}
	for _, span := range []string{"pipeline", "ingest", "bestof", "objective"} {
		if !names["X:"+span] {
			t.Errorf("tracefile missing span %q", span)
		}
	}
	// Convergence series ride along as counter events.
	for _, series := range []string{"localsearch.cost", "bestof.cost"} {
		if !names["C:"+series] {
			t.Errorf("tracefile missing counter events for series %q", series)
		}
	}
}

func TestRunProfiles(t *testing.T) {
	path := writeCSV(t, "a,b\nx,p\nx,p\ny,q\ny,q\n")
	dir := t.TempDir()
	cfg := base()
	cfg.header = true
	cfg.summary = true
	cfg.cpuprofile = filepath.Join(dir, "cpu.pprof")
	cfg.memprofile = filepath.Join(dir, "mem.pprof")
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cfg.cpuprofile, cfg.memprofile} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestRunLogStream pins the -log flag: lifecycle and decision events stream
// to the writer as slog lines in the requested format while the run
// proceeds normally.
func TestRunLogStream(t *testing.T) {
	path := bestofCSV(t)
	var buf bytes.Buffer
	cfg := base()
	cfg.method = "bestof"
	cfg.header = true
	cfg.summary = true
	cfg.logFormat = "json"
	cfg.logOut = &buf
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"msg":"run.start"`, `"msg":"run.done"`, `"msg":"bestof.winner"`,
		`"method":"bestof"`, `"level":"INFO"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-log json output missing %s:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("-log json line is not valid JSON: %s", line)
		}
	}

	buf.Reset()
	cfg.logFormat = "text"
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "msg=run.done") {
		t.Errorf("-log text output missing msg=run.done:\n%s", out)
	}

	cfg.logFormat = "yaml"
	if err := run(path, cfg); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("-log yaml error = %v, want unknown format", err)
	}
}
