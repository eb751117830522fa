package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A layer the workload's job never calls reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"dataset.read_s", "s"},
	{"dataset.mb_per_s", "MiB/s"},
	{"dataset.alloc_mb", "MiB"},
	{"pack.s", "s"},
	{"pack.alloc_mb", "MiB"},
	{"pack.width_bytes", "bytes"},
	{"sample.s", "s"},
	{"sample.core_s", "s"},
	{"sample.assign_s", "s"},
	{"sample.shards_s", "s"},
	{"sample.reps_s", "s"},
	{"sample.recluster_s", "s"},
	{"sample.assign.objects_per_s", "1/s"},
	{"sample.size", "count"},
	{"sample.shards", "count"},
	{"sample.shard.reps", "count"},
	{"sample.fresh_singletons", "count"},
	{"sample.recluster.objects", "count"},
	{"sample.recluster.materialized", "flag"},
	{"sample.assign.useful_ratio", "ratio"},
	{"clusters", "count"},
	{"exact.materialize_s", "s"},
	{"exact.bestclustering_s", "s"},
	{"exact.balls_s", "s"},
	{"exact.agglomerative_s", "s"},
	{"exact.furthest_s", "s"},
	{"exact.localsearch_s", "s"},
	{"exact.bestof_s", "s"},
	{"bestclustering.dist_probes", "count"},
	{"agglomerative.heap_pops", "count"},
	{"agglomerative.stale_ratio", "ratio"},
	{"furthest.dist_probes", "count"},
	{"localsearch.moves", "count"},
	{"materialize.block_adds", "count"},
	{"objective.disagreement_s", "s"},
	{"objective.lowerbound_s", "s"},
	{"objective.pairs_per_s", "1/s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_heap_mb", "MiB"},
	{"trace.overhead_s", "s"},
	{"ledger.unattributed_s", "s"},
	{"ledger.overcount", "flag"},
	{"parallel.speedup", "ratio"},
}

// traced produces the per-layer ledger. For d it alternates untraced jobs
// with jobs that carry an obs.Recorder, so trace.overhead_s compares like
// with like; then it makes one Workers=1 pass for parallel.speedup, one
// kernel probe for the label width, and, on exact-mushrooms, times each
// BestOf racer alone. Per-job values are medians over the traced jobs.
func (r *runner) traced(d time.Duration) map[string]metric {
	r.job(core.AggregateOptions{})
	var plain, traced []float64
	var ledgers []map[string]float64
	var last *jobOut
	deadline := time.Now().Add(d)
	for i := 0; i < 2*minJobs || time.Now().Before(deadline); i++ {
		runtime.GC()
		if i%2 == 0 {
			if j := r.job(core.AggregateOptions{}); j != nil {
				plain = append(plain, j.wall.Seconds())
			}
			continue
		}
		rec := obs.New()
		probe := startRuntimeProbe()
		j := r.job(core.AggregateOptions{Recorder: rec})
		rt := probe.stop()
		if j == nil {
			continue
		}
		l := ledger(r.in, j, rec)
		for k, v := range rt {
			l[k] = v
		}
		ledgers = append(ledgers, l)
		traced = append(traced, j.wall.Seconds())
		last = j
	}
	if last == nil || len(plain) == 0 {
		return nil
	}

	out := make(map[string]float64)
	for _, m := range layerMetrics {
		vals := make([]float64, 0, len(ledgers))
		for _, l := range ledgers {
			vals = append(vals, l[m.name])
		}
		out[m.name] = median(vals)
	}
	// Fastest against fastest, as for wall_s: medians would mostly compare
	// how much of each half fell in the host's slow phases.
	out["trace.overhead_s"] = fastest(traced) - fastest(plain)
	runtime.GC()
	if j := r.job(core.AggregateOptions{Workers: 1}); j != nil {
		out["parallel.speedup"] = j.wall.Seconds() / fastest(plain)
	}
	if err := kernelProbe(last.problem, out); err != nil {
		r.fail("kernel probe", err)
	}
	if r.w.racers {
		if err := timeRacers(last.problem, out); err != nil {
			r.fail("racer timing", err)
		}
	}

	res := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		res[m.name] = metric{out[m.name], m.unit}
	}
	return res
}

// fail counts a failed check made outside a job.
func (r *runner) fail(what string, err error) {
	r.attempted++
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %v\n", r.w.name, what, err)
}

// ledger reads one traced job: the layer calls timed from outside, the
// Recorder's spans for the phases inside Problem.Sample and BestOf, and its
// counters.
func ledger(in *input, j *jobOut, rec *obs.Recorder) map[string]float64 {
	l := map[string]float64{
		"dataset.read_s":           j.read.Seconds(),
		"dataset.alloc_mb":         mib(j.readAlloc),
		"pack.s":                   j.pack.Seconds(),
		"pack.alloc_mb":            mib(j.packAlloc),
		"objective.disagreement_s": j.disagreement.Seconds(),
		"objective.lowerbound_s":   j.lowerBound.Seconds(),
		"clusters":                 float64(maxLabel(j.labels) + 1),
	}
	if j.read > 0 {
		l["dataset.mb_per_s"] = mib(uint64(len(in.csv))) / j.read.Seconds()
	}
	if obj := j.disagreement + j.lowerBound; obj > 0 {
		l["objective.pairs_per_s"] = 2 * float64(pairs(int64(in.n))) / obj.Seconds()
	}

	c := rec.Counters()
	for _, name := range []string{"sample.size", "sample.shard.reps", "sample.fresh_singletons",
		"sample.recluster.objects", "bestclustering.dist_probes", "agglomerative.heap_pops",
		"furthest.dist_probes", "localsearch.moves", "materialize.block_adds"} {
		l[name] = float64(c[name])
	}
	if pops := c["agglomerative.heap_pops"]; pops > 0 {
		l["agglomerative.stale_ratio"] = float64(c["agglomerative.stale_pops"]) / float64(pops)
	}
	if tried := c["sample.assigned"] + c["sample.fresh_singletons"]; tried > 0 {
		l["sample.assign.useful_ratio"] = float64(c["sample.assigned"]) / float64(tried)
	}

	// critical is the sum of the layer times that block the result.
	critical := j.read + j.pack + j.disagreement + j.lowerBound
	for _, root := range rec.Spans() {
		switch root.Name {
		case "sample":
			l["sample.s"] = root.Duration().Seconds()
			// The library counts no shards on its single-level path.
			l["sample.shards"] = float64(max(c["sample.shards"], 1))
			for _, ch := range root.Children {
				critical += ch.Duration()
				switch ch.Name {
				case "sample:core":
					l["sample.core_s"] = ch.Duration().Seconds()
				case "sample:assign":
					l["sample.assign_s"] = ch.Duration().Seconds()
					l["sample.assign.objects_per_s"] = float64(in.n) / ch.Duration().Seconds()
				case "sample:shards":
					l["sample.shards_s"] = ch.Duration().Seconds()
				case "sample:reps":
					l["sample.reps_s"] = ch.Duration().Seconds()
				case "sample:recluster":
					l["sample.recluster_s"] = ch.Duration().Seconds()
					l["sample.recluster.materialized"] = materialized(ch)
				}
			}
		case "bestof":
			// The racers run concurrently: only the slowest blocks the result.
			l["exact.bestof_s"] = j.solve.Seconds()
			var slowest time.Duration
			for _, ch := range root.Children {
				if ch.Name == "materialize" {
					critical += ch.Duration()
				} else {
					slowest = max(slowest, ch.Duration())
				}
			}
			critical += slowest
		}
	}
	l["ledger.unattributed_s"] = (j.wall - critical).Seconds()
	if critical > j.wall {
		l["ledger.overcount"] = 1
		fmt.Fprintf(os.Stderr, "perfbench: ledger overcount: sequential layers %v exceed wall %v\n", critical, j.wall)
	}
	return l
}

// materialized reports 1 when the singleton recluster aggregated its
// objects exactly, 0 when it recursed into another Sample or had nothing
// to do.
func materialized(recluster obs.SpanSnapshot) float64 {
	for _, ch := range recluster.Children {
		if ch.Name == "sample" {
			return 0
		}
	}
	if len(recluster.Children) == 0 {
		return 0
	}
	return 1
}

// kernelProbe reads the packed label width from the kernel.width event,
// which a matrix-free Aggregate emits. BESTCLUSTERING is the cheapest
// matrix-free method on inputs without missing values.
func kernelProbe(p *core.Problem, out map[string]float64) error {
	rec := obs.New()
	if _, err := p.Aggregate(core.MethodBest, core.AggregateOptions{Recorder: rec}); err != nil {
		return err
	}
	if ev := rec.EventsSnapshot(); ev != nil {
		for _, e := range ev.Entries {
			if e.Msg == "kernel.width" {
				w, err := strconv.Atoi(e.Attrs["bytes"])
				if err != nil {
					return fmt.Errorf("kernel.width bytes %q: %w", e.Attrs["bytes"], err)
				}
				out["pack.width_bytes"] = float64(w)
				return nil
			}
		}
	}
	return fmt.Errorf("no kernel.width event")
}

// timeRacers times each of BestOf's five racers alone against one shared
// materialized matrix. As in the race, a racer's time includes the cost
// evaluation of its candidate.
func timeRacers(p *core.Problem, out map[string]float64) error {
	runtime.GC()
	t0 := time.Now()
	m := p.MatrixWorkers(0)
	out["exact.materialize_s"] = time.Since(t0).Seconds()
	racers := []struct {
		name string
		run  func() (partition.Labels, error)
	}{
		{"bestclustering", func() (partition.Labels, error) {
			return p.Aggregate(core.MethodBest, core.AggregateOptions{})
		}},
		{"balls", func() (partition.Labels, error) { return corrclust.Balls(m, corrclust.DefaultBallsAlpha) }},
		{"agglomerative", func() (partition.Labels, error) { return corrclust.Agglomerative(m), nil }},
		{"furthest", func() (partition.Labels, error) { return corrclust.Furthest(m), nil }},
		{"localsearch", func() (partition.Labels, error) {
			return corrclust.LocalSearch(m, corrclust.LocalSearchOptions{}), nil
		}},
	}
	for _, rc := range racers {
		runtime.GC()
		t0 := time.Now()
		labels, err := rc.run()
		if err != nil {
			return fmt.Errorf("%s: %w", rc.name, err)
		}
		corrclust.Cost(m, labels)
		out["exact."+rc.name+"_s"] = time.Since(t0).Seconds()
	}
	return nil
}

// runtimeProbe reads the Go runtime's GC CPU time and cycle count around a
// job, and samples the live heap while it runs.
type runtimeProbe struct {
	gcCPU    float64
	gcCycles uint64
	peakHeap uint64
	stopc    chan struct{}
	wg       sync.WaitGroup
}

// peakHeapEvery is how often the probe samples the live heap. A peak between
// two samples goes unseen.
const peakHeapEvery = 2 * time.Millisecond

func readRuntime() (gcCPU float64, gcCycles, heap uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stopc: make(chan struct{})}
	p.gcCPU, p.gcCycles, p.peakHeap = readRuntime()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(peakHeapEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
				_, _, heap := readRuntime()
				p.peakHeap = max(p.peakHeap, heap)
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the runtime metrics of the interval.
func (p *runtimeProbe) stop() map[string]float64 {
	close(p.stopc)
	p.wg.Wait()
	gcCPU, gcCycles, heap := readRuntime()
	return map[string]float64{
		"runtime.gc_cpu_s":     gcCPU - p.gcCPU,
		"runtime.gc_cycles":    float64(gcCycles - p.gcCycles),
		"runtime.peak_heap_mb": mib(max(p.peakHeap, heap)),
	}
}
