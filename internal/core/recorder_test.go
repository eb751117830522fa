package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// recorderProblem builds a seeded synthetic aggregation problem: m noisy
// copies of a planted 3-clustering over n objects.
func recorderProblem(t testing.TB, n, m int, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth := make(partition.Labels, n)
	for i := range truth {
		truth[i] = i % 3
	}
	inputs := make([]partition.Labels, m)
	for ci := range inputs {
		c := make(partition.Labels, n)
		copy(c, truth)
		for i := range c {
			if rng.Float64() < 0.15 {
				c[i] = rng.Intn(4)
			}
		}
		inputs[ci] = c
	}
	p, err := NewProblem(inputs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameLabels(t *testing.T, name string, plain, traced partition.Labels) {
	t.Helper()
	if len(plain) != len(traced) {
		t.Fatalf("%s: length %d vs %d", name, len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("%s: label[%d] = %d without recorder, %d with", name, i, plain[i], traced[i])
			return
		}
	}
}

// TestRecorderDoesNotChangeResults runs every method with and without a
// Recorder attached and demands bit-identical labels: instrumentation must
// observe, never steer.
func TestRecorderDoesNotChangeResults(t *testing.T) {
	p := recorderProblem(t, 80, 5, 7)
	methods := append(Methods(), ExtensionMethods()...)
	for _, method := range methods {
		for _, mat := range []bool{false, true} {
			opts := func(rec *obs.Recorder) AggregateOptions {
				return AggregateOptions{
					Materialize: mat,
					Rand:        rand.New(rand.NewSource(3)),
					Recorder:    rec,
				}
			}
			plain, err := p.Aggregate(method, opts(nil))
			if err != nil {
				t.Fatalf("%v (materialize=%v): %v", method, mat, err)
			}
			rec := obs.New()
			traced, err := p.Aggregate(method, opts(rec))
			if err != nil {
				t.Fatalf("%v (materialize=%v) instrumented: %v", method, mat, err)
			}
			sameLabels(t, method.String(), plain, traced)
			if len(rec.Spans()) == 0 {
				t.Errorf("%v: recorder collected no spans", method)
			}
			if len(rec.Counters()) == 0 {
				t.Errorf("%v: recorder collected no counters", method)
			}
		}
	}
}

// TestRecorderBestOfEquivalence checks BestOf under instrumentation: same
// winner, same labels, and a nonzero distance-probe counter for each paper
// method that reads distances. BESTCLUSTERING scores the inputs by their
// contingency counts and BestOf scores the racers the same way, so neither
// probes X.
func TestRecorderBestOfEquivalence(t *testing.T) {
	p := recorderProblem(t, 60, 4, 11)
	opts := func(rec *obs.Recorder) AggregateOptions {
		return AggregateOptions{
			Materialize: true,
			Rand:        rand.New(rand.NewSource(5)),
			Recorder:    rec,
		}
	}
	plain, plainWinner, err := p.BestOf(nil, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	traced, tracedWinner, err := p.BestOf(nil, opts(rec))
	if err != nil {
		t.Fatal(err)
	}
	if plainWinner != tracedWinner {
		t.Fatalf("winner %v without recorder, %v with", plainWinner, tracedWinner)
	}
	sameLabels(t, "bestof", plain, traced)

	counters := rec.Counters()
	for _, method := range Methods() {
		if method == MethodBest {
			continue
		}
		key := method.Slug() + ".dist_probes"
		if counters[key] <= 0 {
			t.Errorf("counter %s = %d, want > 0", key, counters[key])
		}
	}
}

// TestRecorderSampleEquivalence checks the SAMPLING pipeline: identical
// labels with and without a Recorder, and the sampling-specific counters
// present.
func TestRecorderSampleEquivalence(t *testing.T) {
	p := recorderProblem(t, 200, 4, 13)
	run := func(rec *obs.Recorder) partition.Labels {
		t.Helper()
		labels, err := p.Sample(MethodAgglomerative,
			AggregateOptions{Recorder: rec},
			SamplingOptions{SampleSize: 40, Rand: rand.New(rand.NewSource(2))})
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	plain := run(nil)
	rec := obs.New()
	traced := run(rec)
	sameLabels(t, "sample", plain, traced)

	counters := rec.Counters()
	if got := counters["sample.size"]; got != 40 {
		t.Errorf("sample.size = %d, want 40", got)
	}
	if counters["sample.assigned"]+counters["sample.fresh_singletons"] != 200-40 {
		t.Errorf("assigned %d + fresh %d != %d non-sampled objects",
			counters["sample.assigned"], counters["sample.fresh_singletons"], 200-40)
	}
	if counters["sample.assign.dist_probes"] <= 0 {
		t.Error("sample.assign.dist_probes not counted")
	}
}

// TestProgressDoesNotChangeResults attaches an unthrottled Progress sink to
// every method at Workers 0, 1 and 8 and demands labels bit-identical to the
// uninstrumented run. Refine is on so every method exercises the LOCALSEARCH
// emit path, whose completion event is guaranteed to be delivered.
func TestProgressDoesNotChangeResults(t *testing.T) {
	p := recorderProblem(t, 90, 5, 19)
	methods := append(Methods(), ExtensionMethods()...)
	for _, method := range methods {
		for _, workers := range []int{0, 1, 8} {
			opts := func(prog *obs.Progress) AggregateOptions {
				return AggregateOptions{
					Materialize: true,
					Refine:      true,
					Workers:     workers,
					Rand:        rand.New(rand.NewSource(3)),
					Progress:    prog,
				}
			}
			plain, err := p.Aggregate(method, opts(nil))
			if err != nil {
				t.Fatalf("%v (workers=%d): %v", method, workers, err)
			}
			var events atomic.Int64
			prog := obs.NewProgress(func(obs.ProgressEvent) { events.Add(1) }, time.Nanosecond)
			observed, err := p.Aggregate(method, opts(prog))
			if err != nil {
				t.Fatalf("%v (workers=%d) with progress: %v", method, workers, err)
			}
			sameLabels(t, fmt.Sprintf("%v workers=%d", method, workers), plain, observed)
			if events.Load() == 0 {
				t.Errorf("%v (workers=%d): no progress events delivered", method, workers)
			}
		}
	}
}

// TestProgressSampleEquivalence runs the SAMPLING pipeline with a Progress
// sink at every worker count: identical labels, and the batched assignment
// stage reports completion (Done == Total == n).
func TestProgressSampleEquivalence(t *testing.T) {
	const n, sampleSize = 600, 60
	p := recorderProblem(t, n, 4, 23)
	run := func(prog *obs.Progress, workers int) partition.Labels {
		t.Helper()
		labels, err := p.Sample(MethodAgglomerative,
			AggregateOptions{Workers: workers, Progress: prog},
			SamplingOptions{SampleSize: sampleSize, Rand: rand.New(rand.NewSource(2))})
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	plain := run(nil, 0)
	for _, workers := range []int{0, 1, 8} {
		var completed atomic.Bool
		prog := obs.NewProgress(func(e obs.ProgressEvent) {
			if e.Stage == "sample:assign" && e.Total == n && e.Done == n {
				completed.Store(true)
			}
		}, time.Nanosecond)
		got := run(prog, workers)
		sameLabels(t, fmt.Sprintf("sample workers=%d", workers), plain, got)
		if !completed.Load() {
			t.Errorf("workers=%d: sample:assign completion event not delivered", workers)
		}
	}
}

// TestConcurrentMetricWrites drives the parallel assignment and local-search
// paths with Workers=8 while a second goroutine continuously snapshots the
// registry, so `go test -race` covers concurrent gauge and series writes
// against snapshots: the registry promises a consistent read at any time,
// not only after the run.
func TestConcurrentMetricWrites(t *testing.T) {
	p := recorderProblem(t, 600, 4, 29)
	rec := obs.New()
	done := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-done:
				return
			default:
				rec.Counters()
				rec.Gauges()
				rec.AllSeries()
				runtime.Gosched()
			}
		}
	}()
	prog := obs.NewProgress(func(obs.ProgressEvent) {}, time.Nanosecond)
	_, err := p.Sample(MethodLocalSearch,
		AggregateOptions{Workers: 8, Recorder: rec, Progress: prog},
		SamplingOptions{SampleSize: 80, Rand: rand.New(rand.NewSource(6))})
	close(done)
	<-snapped
	if err != nil {
		t.Fatal(err)
	}
	series := rec.AllSeries()
	if series["sample.assign.throughput"].Count == 0 {
		t.Error("no assignment batches observed")
	}
	if series["localsearch.cost"].Count < 2 {
		t.Error("no local-search sweeps observed")
	}
	if _, ok := rec.Gauges()["localsearch.clusters"]; !ok {
		t.Error("localsearch.clusters gauge missing")
	}
}

// TestSampleAssignThroughputSeries pins sample.assign.throughput: every
// assignment batch of every stripe appends one positive objects-per-second
// point, so the series count is the number of batches the stripe layout
// makes, at one worker and at two.
func TestSampleAssignThroughputSeries(t *testing.T) {
	n := 3*assignBatchSize + 1000
	p := recorderProblem(t, n, 4, 37)
	for _, workers := range []int{1, 2} {
		rec := obs.New()
		_, err := p.Sample(MethodAgglomerative,
			AggregateOptions{Workers: workers, Recorder: rec},
			SamplingOptions{SampleSize: 200, Rand: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		// A recursive recluster would run a second assignment pass into
		// the same series.
		if r := rec.Counters()["sample.recluster.objects"]; r > reclusterCap {
			t.Fatalf("workers=%d: recluster of %d objects recurses", workers, r)
		}
		chunk := (n + workers - 1) / workers
		batches := 0
		for lo := 0; lo < n; lo += chunk {
			batches += (min(lo+chunk, n) - lo + assignBatchSize - 1) / assignBatchSize
		}
		ss := rec.AllSeries()["sample.assign.throughput"]
		if ss.Count != int64(batches) || len(ss.Points) != batches {
			t.Errorf("workers=%d: %d appends, %d points, want %d batches",
				workers, ss.Count, len(ss.Points), batches)
		}
		for i, pt := range ss.Points {
			if pt.Value <= 0 {
				t.Errorf("workers=%d: point %d = %g objects/s, want > 0", workers, i, pt.Value)
			}
		}
	}
}

// TestObsLayersDoNotChangeResults flips on every observability layer at
// once — pprof phase/worker labels, the runtime sampler polling on a tight
// interval, and the structured event log — and demands BestOf labels (and
// winner) bit-identical to the bare run at Workers 0, 1 and 8: telemetry
// must observe, never steer, even with the full stack live.
func TestObsLayersDoNotChangeResults(t *testing.T) {
	p := recorderProblem(t, 200, 4, 31)
	run := func(rec *obs.Recorder, workers int) (partition.Labels, Method) {
		t.Helper()
		labels, winner, err := p.BestOf(nil, AggregateOptions{
			Materialize: true,
			Refine:      true,
			Workers:     workers,
			Rand:        rand.New(rand.NewSource(9)),
			Recorder:    rec,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return labels, winner
	}
	for _, workers := range []int{0, 1, 8} {
		plain, plainWinner := run(nil, workers)

		obs.EnableProfileLabels(true)
		rec := obs.New()
		sampler := obs.NewRuntimeSampler(rec)
		sampler.Sample() // one synchronous poll so gauges exist even on a fast run
		stop := make(chan struct{})
		sampler.SampleEvery(time.Millisecond, stop)
		full, fullWinner := run(rec, workers)
		close(stop)
		obs.EnableProfileLabels(false)

		if plainWinner != fullWinner {
			t.Fatalf("workers=%d: winner %v bare, %v instrumented", workers, plainWinner, fullWinner)
		}
		sameLabels(t, fmt.Sprintf("obs-layers workers=%d", workers), plain, full)

		ev := rec.EventsSnapshot()
		if ev == nil || ev.Count == 0 {
			t.Errorf("workers=%d: no events recorded", workers)
		} else {
			found := false
			for _, e := range ev.Entries {
				if e.Msg == "bestof.winner" {
					found = true
				}
			}
			if !found {
				t.Errorf("workers=%d: bestof.winner event missing from %d entries", workers, len(ev.Entries))
			}
		}
		if _, ok := rec.Gauges()["runtime.goroutines"]; !ok {
			t.Errorf("workers=%d: runtime.goroutines gauge missing", workers)
		}
	}
}
