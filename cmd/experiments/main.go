// Command experiments regenerates the tables and figures of "Clustering
// Aggregation" (Gionis, Mannila, Tsaparas; ICDE 2005).
//
// Usage:
//
//	experiments [flags] <artifact>
//
// where <artifact> is one of: fig3, fig4, table1, table2, table3, census,
// fig5left, fig5middle, fig5right, ensembles, missing, ingest, huge, all.
// The fig5left and fig5middle panels come from the same sweep and print
// together; the "ensembles" (related-work consensus methods) and "missing"
// (missing-value robustness) artifacts extend the paper's own evaluation —
// see EXPERIMENTS.md. The "ingest" artifact measures CSV → labels end to
// end in two ingest modes (through a Table, and streamed straight into the
// packed label block) and verifies they produce identical labels. The
// "huge" artifact is the SAMPLING scaling ladder (200k → 1M → 2M → 5M →
// 10M synthetic objects) plus a 1M-row CSV-on-disk end-to-end rung; it is
// deliberately NOT part of "all" — run it explicitly or via
// `make bench-huge`, and diff its report against BENCH_huge.json.
//
// Flags:
//
//	-seed N        random seed (default 1)
//	-workers N     cap worker goroutines for the parallel stages
//	               (0 = GOMAXPROCS, 1 = sequential; results are identical)
//	-full          run the paper's original sizes (slower)
//	-mushrooms N   override the Mushrooms subsample size
//	-census N      override the Census size
//	-plot          render ASCII scatter plots for fig3/fig4
//	-json          emit results as JSON instead of text tables
//	-report FILE   write a JSON bench report: one RunReport per artifact
//	               with headline metrics, algorithm counters, and spans
//	               (schema: docs/OBSERVABILITY.md); "-" writes to stdout
//	-tracefile F   write every artifact's span tree as Chrome trace_event
//	               JSON, one trace process per artifact ("-" = stdout)
//	-progress      print throttled per-artifact progress on stderr
//	-log FORMAT    mirror each artifact's structured events to stderr as
//	               they happen ("text" or "json", via log/slog)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"clusteragg/internal/asciiplot"
	"clusteragg/internal/core"
	"clusteragg/internal/experiments"
	"clusteragg/internal/obs"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "random seed")
		full      = flag.Bool("full", false, "run the paper's original sizes")
		mushrooms = flag.Int("mushrooms", 0, "Mushrooms subsample size (0 = default)")
		census    = flag.Int("census", 0, "Census size (0 = default)")
		workers   = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS, 1 = sequential)")
		plot      = flag.Bool("plot", false, "render ASCII scatter plots for fig3/fig4")
		asJSON    = flag.Bool("json", false, "emit results as JSON instead of text tables")
		report    = flag.String("report", "", "write a JSON bench report to this file (\"-\" = stdout)")
		tracefile = flag.String("tracefile", "", "write a Chrome trace_event JSON trace to this file, one process per artifact (\"-\" = stdout)")
		progress  = flag.Bool("progress", false, "print throttled per-artifact progress on stderr")
		logFormat = flag.String("log", "", "mirror structured events to stderr as \"text\" or \"json\"")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] <fig3|fig4|table1|table2|table3|census|fig5left|fig5middle|fig5right|ensembles|missing|ingest|huge|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		Seed:          *seed,
		Full:          *full,
		MushroomsRows: *mushrooms,
		CensusRows:    *census,
		Workers:       *workers,
	}
	if *logFormat != "" && *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "experiments: -log: unknown format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	rep := &reporter{
		enabled:      *report != "",
		collectTrace: *tracefile != "",
		logFormat:    *logFormat,
	}
	if *progress {
		rep.progress = obs.NewProgress(func(e obs.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "# %s\n", e)
		}, 0)
	}
	if err := run(flag.Arg(0), cfg, *plot, *asJSON, rep); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if rep.enabled {
		bench := obs.BenchReport{
			SchemaVersion: obs.ReportSchemaVersion,
			Config: fmt.Sprintf("seed=%d full=%v mushrooms=%d census=%d workers=%d",
				*seed, *full, *mushrooms, *census, *workers),
			Artifacts: rep.reports,
		}
		if err := obs.WriteJSON(*report, bench); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: report: %v\n", err)
			os.Exit(1)
		}
	}
	if rep.collectTrace {
		if err := obs.WriteTraceFileProcesses(*tracefile, rep.traces); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: tracefile: %v\n", err)
			os.Exit(1)
		}
	}
}

// reporter accumulates per-artifact observability: RunReports when -report
// is set and trace processes when -tracefile is set. A fresh Recorder per
// artifact keeps each artifact's counters and spans separable.
type reporter struct {
	enabled      bool   // -report: accumulate RunReports
	collectTrace bool   // -tracefile: accumulate TraceProcesses
	logFormat    string // -log: mirror events to stderr ("text" or "json")
	progress     *obs.Progress
	reports      []obs.RunReport
	traces       []obs.TraceProcess
}

// collect reports whether any consumer needs a per-artifact Recorder.
func (r *reporter) collect() bool {
	return r.enabled || r.collectTrace || r.logFormat != ""
}

// begin attaches a fresh Recorder to cfg and returns a done func that
// snapshots it, together with the artifact's headline metrics, into the
// report and trace lists. With all collection disabled both are no-ops.
func (r *reporter) begin(artifact string, cfg experiments.Config) (experiments.Config, func(metrics map[string]float64)) {
	if !r.collect() {
		return cfg, func(map[string]float64) {}
	}
	rec := obs.New()
	cfg.Recorder = rec
	if r.logFormat != "" {
		var h slog.Handler
		if r.logFormat == "json" {
			h = slog.NewJSONHandler(os.Stderr, nil)
		} else {
			h = slog.NewTextHandler(os.Stderr, nil)
		}
		rec.Events().Attach(h)
	}
	rec.Event("artifact.start", "artifact", artifact,
		"workers", cfg.Workers, "seed", cfg.Seed)
	// Per-artifact allocation telemetry: TotalAlloc/Mallocs deltas plus a
	// background-sampled peak heap, reported in the alloc section and
	// ratio-gated by benchdiff. The runtime sampler rides the same stop
	// channel; the synchronous Sample() guarantees runtime.* gauges exist
	// even for artifacts that finish inside one sampling interval.
	tracker := obs.StartAllocTracker()
	sampler := obs.NewRuntimeSampler(rec)
	sampler.Sample()
	stopSampling := make(chan struct{})
	tracker.SampleEvery(100*time.Millisecond, stopSampling)
	sampler.SampleEvery(100*time.Millisecond, stopSampling)
	start := time.Now()
	return cfg, func(metrics map[string]float64) {
		close(stopSampling)
		alloc := tracker.Finish()
		sampler.Sample()
		rec.Event("artifact.done", "artifact", artifact, "metrics", len(metrics))
		if r.collectTrace {
			r.traces = append(r.traces, rec.TraceProcess(artifact))
		}
		if !r.enabled {
			return
		}
		runRep := obs.RunReport{
			Name:    artifact,
			Workers: core.EffectiveWorkers(cfg.Workers),
			WallNS:  int64(time.Since(start)),
			Alloc:   alloc,
			Metrics: metrics,
		}
		runRep.FillFrom(rec)
		r.reports = append(r.reports, runRep)
	}
}

// run regenerates one artifact; the "all" driver recurses through it.
func run(artifact string, cfg experiments.Config, plot, asJSON bool, rep *reporter) error {
	if cfg.Workers < 0 {
		return fmt.Errorf("-workers %d: %w", cfg.Workers, core.ErrNegativeOption)
	}
	emit := func(v any) error {
		if asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
		fmt.Print(v)
		return nil
	}
	// tableMetrics flattens a Table 2/3-style row list into metric keys.
	tableMetrics := func(prefix string, rows []experiments.TableRow, m map[string]float64) {
		for _, row := range rows {
			m[prefix+"ed:"+row.Name] = row.ED
			if row.HasEC {
				m[prefix+"ec:"+row.Name] = row.EC
			}
		}
	}
	switch artifact {
	case "fig3":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Fig3Robustness(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{
			"aggregate_ec":   res.Aggregate.Err,
			"aggregate_rand": res.Aggregate.Rand,
		}
		for _, in := range res.Inputs {
			m["ec:"+in.Name] = in.Err
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
		if plot {
			fmt.Println("\nground truth:")
			fmt.Print(asciiplot.Scatter(res.Scene.Points, res.Scene.Truth, 78, 22))
			for _, in := range res.Inputs {
				fmt.Printf("\n%s:\n", in.Name)
				fmt.Print(asciiplot.Scatter(res.Scene.Points, in.Labels, 78, 22))
			}
			fmt.Println("\naggregation:")
			fmt.Print(asciiplot.Scatter(res.Scene.Points, res.Aggregate.Labels, 78, 22))
		}
	case "fig4":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Fig4CorrectClusters(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, c := range res.Cases {
			p := fmt.Sprintf("k%d:", c.KTrue)
			m[p+"found"] = float64(c.KFound)
			m[p+"main"] = float64(c.MainClusters)
			m[p+"ec"] = c.Err
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
		if plot {
			for _, c := range res.Cases {
				fmt.Printf("\nk* = %d, aggregate:\n", c.KTrue)
				fmt.Print(asciiplot.Scatter(c.Data.Points, c.Labels, 78, 22))
			}
		}
	case "table1":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Table1Confusion(cfg)
		if err != nil {
			return err
		}
		done(map[string]float64{"clusters": float64(res.K), "ec": res.Err})
		if err := emit(res); err != nil {
			return err
		}
	case "table2":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Table2Votes(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		tableMetrics("", res.Rows, m)
		done(m)
		if asJSON {
			return emit(res)
		}
		fmt.Printf("Table 2 — %s", res)
	case "table3":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Table3Mushrooms(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		tableMetrics("", res.Rows, m)
		done(m)
		if asJSON {
			return emit(res)
		}
		fmt.Printf("Table 3 — %s", res)
	case "census":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.CensusSampling(cfg)
		if err != nil {
			return err
		}
		done(map[string]float64{
			"clusters":       float64(res.KFound),
			"ec":             res.Err,
			"limbo_clusters": float64(res.LimboK),
			"limbo_ec":       res.LimboErr,
			"seconds":        res.Duration.Seconds(),
		})
		if err := emit(res); err != nil {
			return err
		}
	case "fig5left", "fig5middle":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Fig5Sampling(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{"full_ec": res.FullErr, "full_seconds": res.FullTime.Seconds()}
		for _, p := range res.Points {
			prefix := fmt.Sprintf("s%d:", p.SampleSize)
			m[prefix+"time_ratio"] = p.TimeRatio
			m[prefix+"ec"] = p.Err
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
	case "fig5right":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.Fig5Scalability(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, p := range res.Points {
			prefix := fmt.Sprintf("n%d:", p.N)
			m[prefix+"seconds"] = p.Duration.Seconds()
			m[prefix+"ec"] = p.Err
		}
		if len(res.Points) >= 2 {
			// Time growth relative to size growth; ~1 means linear scaling.
			first, last := res.Points[0], res.Points[len(res.Points)-1]
			if first.Duration > 0 && first.N > 0 {
				timeGrowth := last.Duration.Seconds() / first.Duration.Seconds()
				sizeGrowth := float64(last.N) / float64(first.N)
				m["linearity_ratio"] = timeGrowth / sizeGrowth
			}
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
	case "missing":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.MissingValueSweep(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, p := range res.Points {
			prefix := fmt.Sprintf("f%.0f:", 100*p.Fraction)
			m[prefix+"coin_ec"] = p.CoinErr
			m[prefix+"avg_ec"] = p.AvgErr
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
	case "ensembles":
		cfg, done := rep.begin(artifact, cfg)
		results, err := experiments.EnsembleComparison(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, res := range results {
			for _, row := range res.Rows {
				m[res.Dataset+":ed:"+row.Name] = row.ED
				m[res.Dataset+":ec:"+row.Name] = row.EC
			}
		}
		done(m)
		if asJSON {
			return emit(results)
		}
		fmt.Println("Extension — paper aggregators vs related-work consensus methods")
		for _, res := range results {
			fmt.Print(res)
			fmt.Println()
		}
	case "ingest":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.IngestThroughput(cfg)
		if err != nil {
			return err
		}
		// Deterministic rows are gated (counts exact, rand_index toleranced);
		// everything timing-bearing carries a benchdiff-ignored suffix.
		m := map[string]float64{
			"rows":             float64(res.Rows),
			"bytes":            float64(res.Bytes),
			"attrs":            float64(res.Attrs),
			"clusters":         float64(res.Clusters),
			"rand_index":       res.Rand,
			"seq_seconds":      res.Seq.Seconds(),
			"streamed_seconds": res.Streamed.Seconds(),
		}
		if res.Streamed > 0 {
			m["stream_time_ratio"] = res.Seq.Seconds() / res.Streamed.Seconds()
			m["ingest_throughput"] = float64(res.Rows) / res.Streamed.Seconds()
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
	case "huge":
		cfg, done := rep.begin(artifact, cfg)
		res, err := experiments.HugeScaling(cfg)
		if err != nil {
			return err
		}
		m := map[string]float64{}
		for _, p := range res.Points {
			prefix := fmt.Sprintf("n%d:", p.N)
			m[prefix+"seconds"] = p.Duration.Seconds()
			m[prefix+"clusters"] = float64(p.KFound)
			m[prefix+"rand_index"] = p.Rand
			m[prefix+"disagreement"] = p.Disagreement
			m[prefix+"lower_bound"] = p.LowerBound
			m[prefix+"objective_ratio"] = p.Disagreement / p.LowerBound
			m[prefix+"objective_seconds"] = p.ObjectiveDuration.Seconds()
			// Ratio-gated by benchdiff (the *alloc_bytes suffix), not
			// exact-compared: allocation totals drift run to run.
			m[prefix+"alloc_bytes"] = float64(p.AllocBytes)
		}
		if len(res.Points) >= 2 {
			first, last := res.Points[0], res.Points[len(res.Points)-1]
			if first.Duration > 0 && first.N > 0 {
				timeGrowth := last.Duration.Seconds() / first.Duration.Seconds()
				sizeGrowth := float64(last.N) / float64(first.N)
				m["linearity_ratio"] = timeGrowth / sizeGrowth
			}
		}
		if c := res.CSV; c != nil {
			m["csv:rows"] = float64(c.N)
			m["csv:bytes"] = float64(c.Bytes)
			m["csv:clusters"] = float64(c.KFound)
			m["csv:rand_index"] = c.Rand
			m["csv:seq_seconds"] = c.SeqDuration.Seconds()
			m["csv:streamed_seconds"] = c.StreamDuration.Seconds()
			if c.StreamDuration > 0 {
				m["csv:stream_time_ratio"] = c.SeqDuration.Seconds() / c.StreamDuration.Seconds()
			}
			// Ratio-gated by benchdiff like the in-memory rungs.
			m["csv:alloc_bytes"] = float64(c.AllocBytes)
		}
		done(m)
		if err := emit(res); err != nil {
			return err
		}
	case "all":
		artifacts := []string{"fig3", "fig4", "table1", "table2", "table3", "census", "fig5left", "fig5right", "ensembles", "missing", "ingest"}
		for i, a := range artifacts {
			fmt.Printf("==== %s ====\n", a)
			if err := run(a, cfg, plot, asJSON, rep); err != nil {
				return fmt.Errorf("%s: %w", a, err)
			}
			fmt.Println()
			// One event per finished artifact; the last one is a completion
			// event, so the throttle always delivers it.
			rep.progress.Emit(obs.ProgressEvent{
				Stage: "experiments:" + a, Done: int64(i + 1), Total: int64(len(artifacts)),
			})
		}
	default:
		return fmt.Errorf("unknown artifact %q", artifact)
	}
	return nil
}
