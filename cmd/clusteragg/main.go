// Command clusteragg clusters categorical CSV data by clustering
// aggregation: every categorical attribute becomes an input clustering and
// the aggregate minimizing the total pairwise disagreement is computed with
// one of the paper's algorithms.
//
// Every run takes one path: the CSV rows stream into the packed label block
// through clusteragg.ReadCSV, the method (or SAMPLING) runs on that problem,
// and the objective is evaluated. The span tree is pipeline{ingest, the
// method's span, objective}. Runs of at most 4000 rows without -sample
// materialize the distance matrix first.
//
// Usage:
//
//	clusteragg [flags] <file.csv>
//	clusteragg analyze [flags] <report.json> [baseline.json]
//
// Reading from standard input: pass "-" as the file name.
//
// The analyze subcommand renders the convergence series recorded in a JSON
// run report (-report) as ASCII plots; with a second report it also diffs
// the two trajectories. See analyze.go for its flags.
//
// Flags:
//
//	-method NAME   best | balls | agglomerative | furthest | localsearch |
//	               pivot | bestof (default agglomerative; bestof races the
//	               paper's five and keeps the lowest disagreement; under
//	               -sample, bestof runs AGGLOMERATIVE)
//	-alpha F       BALLS alpha parameter (default 0.4, the value Section 4
//	               reports to work better in practice; Theorem 1's
//	               3-approximation bound needs 0.25)
//	-k N           force N clusters where the method supports it
//	               (negative is an error)
//	-refine        post-process with LOCALSEARCH
//	-header        treat the first CSV record as column names
//	-class NAME    column holding class labels (reported, not clustered on)
//	-sample N      use SAMPLING with a sample of N rows (0 = exact;
//	               negative is an error)
//	-seed N        random seed for sampling and PIVOT (default 1; SAMPLING
//	               reads 0 as 1)
//	-workers N     cap worker goroutines for the parallel stages
//	               (0 = GOMAXPROCS, 1 = sequential; results are identical
//	               for every value)
//	-summary       print cluster sizes instead of per-row assignments
//	-describe      print each cluster's dominant attribute values
//	-trace         print a span tree and algorithm counters on stderr
//	-report FILE   write a JSON run report (schema: docs/OBSERVABILITY.md);
//	               "-" writes it to stdout
//	-tracefile F   write the span tree as Chrome trace_event JSON ("-" =
//	               stdout); load in Perfetto or chrome://tracing
//	-progress      print throttled progress events on stderr while running
//	-log FORMAT    stream the structured event log to stderr as "text" or
//	               "json" lines (slog format); the retained tail also lands
//	               in the -report events section
//	-cpuprofile F  write a pprof CPU profile of the run; spans and worker
//	               goroutines carry phase/method/worker pprof labels, so
//	               `go tool pprof -tagfocus phase=materialize` slices it
//	-memprofile F  write a pprof heap profile taken after the run
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"clusteragg"
	"clusteragg/internal/core"
	"clusteragg/internal/corrclust"
	"clusteragg/internal/dataset"
	"clusteragg/internal/eval"
	"clusteragg/internal/obs"
)

// cliConfig carries the parsed flags.
type cliConfig struct {
	method     string
	alpha      float64
	k          int
	refine     bool
	header     bool
	class      string
	sample     int
	seed       int64
	workers    int
	summary    bool
	describe   bool
	trace      bool
	report     string
	tracefile  string
	progress   bool
	logFormat  string
	cpuprofile string
	memprofile string

	// traceOut receives the -trace output, progressOut the -progress
	// ticker, and logOut the -log stream; nil means os.Stderr. Tests
	// substitute buffers.
	traceOut    io.Writer
	progressOut io.Writer
	logOut      io.Writer
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		if err := runAnalyze(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "clusteragg analyze: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var cfg cliConfig
	flag.StringVar(&cfg.method, "method", "agglomerative", "aggregation method: best|balls|agglomerative|furthest|localsearch|pivot|bestof (bestof runs agglomerative under -sample)")
	flag.Float64Var(&cfg.alpha, "alpha", corrclust.RecommendedBallsAlpha, "BALLS alpha: the paper's experimental value 0.4 (Section 4); Theorem 1's 3-approximation bound holds at 0.25")
	flag.IntVar(&cfg.k, "k", 0, "force this many clusters where supported (0 = parameter-free)")
	flag.BoolVar(&cfg.refine, "refine", false, "post-process with LOCALSEARCH")
	flag.BoolVar(&cfg.header, "header", false, "first CSV record is a header")
	flag.StringVar(&cfg.class, "class", "", "class column name (requires -header)")
	flag.IntVar(&cfg.sample, "sample", 0, "SAMPLING sample size (0 = exact algorithm)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for sampling and randomized methods")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines for parallel stages (0 = GOMAXPROCS, 1 = sequential)")
	flag.BoolVar(&cfg.summary, "summary", false, "print cluster sizes instead of assignments")
	flag.BoolVar(&cfg.describe, "describe", false, "print each cluster's dominant attribute values")
	flag.BoolVar(&cfg.trace, "trace", false, "print a span tree and algorithm counters on stderr")
	flag.StringVar(&cfg.report, "report", "", "write a JSON run report to this file (\"-\" = stdout)")
	flag.StringVar(&cfg.tracefile, "tracefile", "", "write a Chrome trace_event JSON trace to this file (\"-\" = stdout)")
	flag.BoolVar(&cfg.progress, "progress", false, "print throttled progress events on stderr")
	flag.StringVar(&cfg.logFormat, "log", "", "stream the structured event log to stderr as \"text\" or \"json\" lines")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clusteragg [flags] <file.csv|->")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), cfg); err != nil {
		fmt.Fprintf(os.Stderr, "clusteragg: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, cfg cliConfig) error {
	if cfg.sample < 0 {
		return fmt.Errorf("-sample %d: %w", cfg.sample, clusteragg.ErrNegativeOption)
	}
	if cfg.k < 0 {
		return fmt.Errorf("-k %d: %w", cfg.k, clusteragg.ErrNegativeOption)
	}
	if cfg.workers < 0 {
		return fmt.Errorf("-workers %d: %w", cfg.workers, clusteragg.ErrNegativeOption)
	}
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var rec *obs.Recorder
	if cfg.trace || cfg.report != "" || cfg.tracefile != "" || cfg.logFormat != "" {
		rec = obs.New()
	}
	if cfg.logFormat != "" {
		w := cfg.logOut
		if w == nil {
			w = os.Stderr
		}
		var h slog.Handler
		switch cfg.logFormat {
		case "text":
			h = slog.NewTextHandler(w, nil)
		case "json":
			h = slog.NewJSONHandler(w, nil)
		default:
			return fmt.Errorf("-log: unknown format %q (want text or json)", cfg.logFormat)
		}
		rec.Events().Attach(h)
	}
	// CPU attribution: phase/method/worker pprof labels cost a few allocs
	// per span, so they stay off unless a -cpuprofile will consume them.
	if cfg.cpuprofile != "" {
		obs.EnableProfileLabels(true)
		defer obs.EnableProfileLabels(false)
	}
	// Allocation telemetry: TotalAlloc/Mallocs deltas over the whole run,
	// with the peak heap sampled from the progress ticker and at the end of
	// the run.
	tracker := obs.StartAllocTracker()
	// Runtime telemetry (nil and free when rec is): goroutines, heap, GC
	// cycles, total CPU, polled from runtime/metrics on the same ticks as
	// the alloc tracker.
	sampler := obs.NewRuntimeSampler(rec)
	var progress *obs.Progress
	if cfg.progress {
		w := cfg.progressOut
		if w == nil {
			w = os.Stderr
		}
		progress = obs.NewProgress(func(e obs.ProgressEvent) {
			tracker.Sample()
			sampler.Sample()
			fmt.Fprintf(w, "# %s\n", e)
		}, 0)
	}
	start := time.Now()

	var in io.Reader
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	bestOf := strings.EqualFold(cfg.method, "bestof")
	method := core.MethodAgglomerative // bestof's method under SAMPLING
	if !bestOf {
		var err error
		if method, err = parseMethod(cfg.method); err != nil {
			return err
		}
	}
	csvOpts := clusteragg.CSVOptions{
		HasHeader:   cfg.header,
		ClassColumn: cfg.class,
		Method:      method,
		Options: core.AggregateOptions{
			BallsAlpha: core.Alpha(cfg.alpha),
			K:          cfg.k,
			Refine:     cfg.refine,
			Workers:    cfg.workers,
			Rand:       rand.New(rand.NewSource(cfg.seed)),
			Recorder:   rec,
			Progress:   progress,
		},
		SampleSize: cfg.sample,
		SampleSeed: cfg.seed,
	}
	methodName := cfg.method
	sampling := cfg.sample > 0
	rec.Event("run.start", "method", cfg.method, "sampling", sampling, "workers", cfg.workers)
	pipe := rec.Start("pipeline")
	input, err := clusteragg.ReadCSV(in, csvOpts)
	if err != nil {
		return err
	}
	csvOpts.Options.Materialize = !sampling && input.Rows <= 4000
	var res *clusteragg.CSVResult
	if bestOf && !sampling {
		labels, winner, err := input.Problem.BestOf(nil, csvOpts.Options)
		if err != nil {
			return err
		}
		methodName = "bestof:" + winner.Slug()
		fmt.Printf("# bestof winner=%s\n", winner)
		res = input.Evaluate(labels)
	} else if res, err = input.Aggregate(csvOpts); err != nil {
		return err
	}
	pipe.End()
	labels := res.Labels
	if res.LowerBound > 0 {
		rec.Series("cost_over_lower_bound").Append(0, res.Disagreement/res.LowerBound)
	}
	rec.Event("run.done", "n", res.Rows, "m", res.Attributes, "clusters", labels.K(), "cost", res.Disagreement)
	// Final polls, so the report's runtime.* gauges and peak heap are
	// fresh.
	tracker.Sample()
	sampler.Sample()
	fmt.Printf("# n=%d attributes=%d clusters=%d disagreement=%.0f lower-bound=%.0f\n",
		res.Rows, res.Attributes, labels.K(), res.Disagreement, res.LowerBound)
	if res.Class != nil {
		ec, err := eval.ClassificationError(labels, res.Class)
		if err != nil {
			return err
		}
		fmt.Printf("# classification-error=%.1f%%\n", 100*ec)
	}

	if cfg.trace {
		w := cfg.traceOut
		if w == nil {
			w = os.Stderr
		}
		if err := rec.WriteText(w); err != nil {
			return err
		}
	}
	if cfg.tracefile != "" {
		procs := []obs.TraceProcess{rec.TraceProcess("clusteragg " + methodName)}
		if err := obs.WriteTraceFileProcesses(cfg.tracefile, procs); err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
	}
	if cfg.report != "" {
		rep := obs.RunReport{
			N:          res.Rows,
			M:          res.Attributes,
			Method:     methodName,
			Clusters:   labels.K(),
			Cost:       res.Disagreement,
			LowerBound: res.LowerBound,
			Workers:    core.EffectiveWorkers(cfg.workers),
			WallNS:     int64(time.Since(start)),
			Alloc:      tracker.Finish(),
		}
		rep.FillFrom(rec)
		if err := obs.WriteJSON(cfg.report, rep); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if cfg.memprofile != "" {
		f, err := os.Create(cfg.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the live-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("mem profile: %w", err)
		}
	}
	if cfg.describe {
		tab := &dataset.Table{}
		for j, col := range input.Problem.Clusterings() {
			tab.Cols = append(tab.Cols, &dataset.Column{
				Name: input.Columns[j], Kind: dataset.Categorical, Values: col, Names: input.Values[j],
			})
		}
		profiles, err := dataset.Describe(tab, labels)
		if err != nil {
			return err
		}
		for _, p := range profiles {
			fmt.Printf("cluster %d: %s\n", p.Cluster, p)
		}
		return nil
	}
	if cfg.summary {
		for i, size := range labels.Sizes() {
			fmt.Printf("cluster %d: %d rows\n", i, size)
		}
		return nil
	}
	var b strings.Builder
	for i, l := range labels {
		fmt.Fprintf(&b, "%d,%d\n", i, l)
	}
	fmt.Print(b.String())
	return nil
}

func parseMethod(name string) (core.Method, error) {
	switch strings.ToLower(name) {
	case "best":
		return core.MethodBest, nil
	case "balls":
		return core.MethodBalls, nil
	case "agglomerative":
		return core.MethodAgglomerative, nil
	case "furthest":
		return core.MethodFurthest, nil
	case "localsearch":
		return core.MethodLocalSearch, nil
	case "pivot":
		return core.MethodPivot, nil
	default:
		return 0, fmt.Errorf("unknown method %q", name)
	}
}
