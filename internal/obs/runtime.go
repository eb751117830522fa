package obs

import (
	"context"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the Go-runtime side of the run telemetry: a RuntimeSampler
// polls runtime/metrics — heap occupancy, live objects, GC cycles and pause
// distribution, goroutine count, scheduler latency, total CPU — into the
// package's ordinary gauge/histogram/series primitives, so runtime health
// rides the same exposition paths (/metrics, /series, reports, traces) as
// the algorithm counters and a cost regression can be told apart from a GC
// or scheduling one. Every runtime.* name is machine- and GC-pacing-
// dependent, so cmd/benchdiff ignores the whole prefix by default.
//
// It also hosts the per-phase CPU attribution switch: Do wraps a function
// in runtime/pprof labels (phase/method/artifact/worker) when profiling
// labels are enabled, so -cpuprofile output slices by algorithm phase with
// `go tool pprof -tagfocus`. Labels are observational by construction —
// pprof.Do only annotates profiling samples — and the recorder-equivalence
// suite in internal/core pins that results are bit-identical with the
// switch on or off at every worker count.

// Runtime gauge/histogram/series names registered by a RuntimeSampler.
// The runtime.gc_pause_seconds and runtime.sched_latency_seconds
// histograms accumulate the *deltas* of the runtime's cumulative
// distributions between samples, bucketed by runtimeLatencyBuckets.
const (
	runtimeGoroutines   = "runtime.goroutines"
	runtimeHeapBytes    = "runtime.heap_bytes"
	runtimeHeapObjects  = "runtime.heap_objects"
	runtimeGCCycles     = "runtime.gc_cycles"
	runtimeCPUSeconds   = "runtime.cpu_total_seconds"
	runtimeGCPause      = "runtime.gc_pause_seconds"
	runtimeSchedLatency = "runtime.sched_latency_seconds"
)

// runtime/metrics sample names the sampler reads. The names are stable API
// (runtime/metrics documents them); readRuntimeSamples guards against a
// name going bad on a future toolchain by checking the value kind.
const (
	metricGoroutines  = "/sched/goroutines:goroutines"
	metricHeapBytes   = "/memory/classes/heap/objects:bytes"
	metricHeapObjects = "/gc/heap/objects:objects"
	metricGCCycles    = "/gc/cycles/total:gc-cycles"
	metricCPUTotal    = "/cpu/classes/total:cpu-seconds"
	metricGCPauses    = "/sched/pauses/total/gc:seconds"
	metricSchedLat    = "/sched/latencies:seconds"
)

// runtimeLatencyBuckets are the upper bounds, in seconds, for the GC-pause
// and scheduler-latency histograms: pauses and scheduling delays live in
// the µs–ms range, below DefaultLatencyBuckets' working resolution.
var runtimeLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1,
}

// RuntimeSampler polls runtime/metrics into a Recorder. Construct with
// NewRuntimeSampler, call Sample from any convenient cadence — the CLIs
// piggy-back on the AllocTracker/progress tick — or SampleEvery for a
// background ticker. A nil sampler ignores every call and costs one nil
// check, so a run without a recorder pays nothing.
type RuntimeSampler struct {
	mu      sync.Mutex       // serializes Sample: ticker + progress tick + scrape may race
	samples []metrics.Sample // reused across Sample calls

	goroutines  *Gauge
	heapBytes   *Gauge
	heapObjects *Gauge
	gcCycles    *Gauge
	cpuSeconds  *Gauge
	gcPause     *Histogram
	schedLat    *Histogram

	goroutineSeries *Series
	heapSeries      *Series

	// prevPause/prevSched hold the previous cumulative bucket counts of
	// the runtime's native histograms, so each Sample observes only the
	// delta.
	prevPause []uint64
	prevSched []uint64
	tick      int64 // series step counter
}

// NewRuntimeSampler binds a sampler to rec's registry. A nil recorder
// yields a nil sampler — the disabled path — so call sites thread the
// result without checks.
func NewRuntimeSampler(rec *Recorder) *RuntimeSampler {
	if rec == nil {
		return nil
	}
	s := &RuntimeSampler{
		samples: []metrics.Sample{
			{Name: metricGoroutines},
			{Name: metricHeapBytes},
			{Name: metricHeapObjects},
			{Name: metricGCCycles},
			{Name: metricCPUTotal},
			{Name: metricGCPauses},
			{Name: metricSchedLat},
		},
		goroutines:      rec.Gauge(runtimeGoroutines),
		heapBytes:       rec.Gauge(runtimeHeapBytes),
		heapObjects:     rec.Gauge(runtimeHeapObjects),
		gcCycles:        rec.Gauge(runtimeGCCycles),
		cpuSeconds:      rec.Gauge(runtimeCPUSeconds),
		gcPause:         rec.Histogram(runtimeGCPause, runtimeLatencyBuckets),
		schedLat:        rec.Histogram(runtimeSchedLatency, runtimeLatencyBuckets),
		goroutineSeries: rec.Series(runtimeGoroutines),
		heapSeries:      rec.Series(runtimeHeapBytes),
	}
	return s
}

// Sample reads the runtime metrics once and updates the bound gauges,
// histograms, and series. Safe from any goroutine and on a nil sampler.
// One call is a single metrics.Read — no stop-the-world, unlike
// runtime.ReadMemStats.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	s.tick++
	for i := range s.samples {
		v := &s.samples[i].Value
		switch s.samples[i].Name {
		case metricGoroutines:
			if v.Kind() == metrics.KindUint64 {
				s.goroutines.Set(float64(v.Uint64()))
				s.goroutineSeries.Append(s.tick, float64(v.Uint64()))
			}
		case metricHeapBytes:
			if v.Kind() == metrics.KindUint64 {
				s.heapBytes.Set(float64(v.Uint64()))
				s.heapSeries.Append(s.tick, float64(v.Uint64()))
			}
		case metricHeapObjects:
			if v.Kind() == metrics.KindUint64 {
				s.heapObjects.Set(float64(v.Uint64()))
			}
		case metricGCCycles:
			if v.Kind() == metrics.KindUint64 {
				s.gcCycles.Set(float64(v.Uint64()))
			}
		case metricCPUTotal:
			if v.Kind() == metrics.KindFloat64 {
				s.cpuSeconds.Set(v.Float64())
			}
		case metricGCPauses:
			if v.Kind() == metrics.KindFloat64Histogram {
				s.prevPause = observeHistogramDelta(s.gcPause, v.Float64Histogram(), s.prevPause)
			}
		case metricSchedLat:
			if v.Kind() == metrics.KindFloat64Histogram {
				s.prevSched = observeHistogramDelta(s.schedLat, v.Float64Histogram(), s.prevSched)
			}
		}
	}
}

// SampleEvery starts a background goroutine sampling at the given interval
// until stop is closed; it returns immediately. Nil-safe, mirroring
// AllocTracker.SampleEvery.
func (s *RuntimeSampler) SampleEvery(interval time.Duration, stop <-chan struct{}) {
	if s == nil {
		return
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.Sample()
			}
		}
	}()
}

// observeHistogramDelta feeds the growth of a cumulative runtime histogram
// since prev into h, using each native bucket's upper edge as the
// representative observation value, and returns the new cumulative counts
// (reusing prev's storage when shapes match). The runtime's bucket
// boundaries can include ±Inf sentinels; those observations take the
// bucket's finite edge.
func observeHistogramDelta(h *Histogram, cur *metrics.Float64Histogram, prev []uint64) []uint64 {
	if cur == nil {
		return prev
	}
	if len(prev) != len(cur.Counts) {
		prev = make([]uint64, len(cur.Counts))
	}
	for i, c := range cur.Counts {
		d := c - prev[i] // cumulative, so never negative
		prev[i] = c
		if d == 0 {
			continue
		}
		// Buckets[i] and Buckets[i+1] bound count i; prefer the upper edge,
		// falling back to the lower for the +Inf tail.
		v := cur.Buckets[i+1]
		if isInf(v) {
			v = cur.Buckets[i]
		}
		if isInf(v) {
			continue // degenerate (-Inf, +Inf) bucket; nothing meaningful to record
		}
		h.ObserveN(v, int64(d))
	}
	return prev
}

func isInf(v float64) bool { return math.IsInf(v, 0) }

// RuntimeStats is the /runtime endpoint's payload: a point-in-time read of
// the process's runtime health, independent of any recorder.
type RuntimeStats struct {
	Goroutines      int64   `json:"goroutines"`
	HeapBytes       uint64  `json:"heap_bytes"`
	HeapObjects     uint64  `json:"heap_objects"`
	GCCycles        uint64  `json:"gc_cycles"`
	GCPauseP50      float64 `json:"gc_pause_p50_seconds"`
	GCPauseP99      float64 `json:"gc_pause_p99_seconds"`
	CPUTotalSeconds float64 `json:"cpu_total_seconds"`
}

// ReadRuntimeStats reads the current runtime metrics. It allocates its
// sample buffer per call, which is fine for its scrape-cadence callers
// (/runtime, the dashboard poll); steady-state sampling goes through a
// RuntimeSampler instead.
func ReadRuntimeStats() RuntimeStats {
	samples := []metrics.Sample{
		{Name: metricGoroutines},
		{Name: metricHeapBytes},
		{Name: metricHeapObjects},
		{Name: metricGCCycles},
		{Name: metricGCPauses},
		{Name: metricCPUTotal},
	}
	metrics.Read(samples)
	var st RuntimeStats
	for i := range samples {
		v := &samples[i].Value
		switch samples[i].Name {
		case metricGoroutines:
			if v.Kind() == metrics.KindUint64 {
				st.Goroutines = int64(v.Uint64())
			}
		case metricHeapBytes:
			if v.Kind() == metrics.KindUint64 {
				st.HeapBytes = v.Uint64()
			}
		case metricHeapObjects:
			if v.Kind() == metrics.KindUint64 {
				st.HeapObjects = v.Uint64()
			}
		case metricGCCycles:
			if v.Kind() == metrics.KindUint64 {
				st.GCCycles = v.Uint64()
			}
		case metricGCPauses:
			if v.Kind() == metrics.KindFloat64Histogram {
				st.GCPauseP50 = histogramQuantile(v.Float64Histogram(), 0.50)
				st.GCPauseP99 = histogramQuantile(v.Float64Histogram(), 0.99)
			}
		case metricCPUTotal:
			if v.Kind() == metrics.KindFloat64 {
				st.CPUTotalSeconds = v.Float64()
			}
		}
	}
	return st
}

// histogramQuantile estimates quantile q from a runtime histogram by the
// upper edge of the bucket holding the q-th observation (Prometheus-style
// conservative estimate).
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			v := h.Buckets[i+1]
			if isInf(v) {
				v = h.Buckets[i]
			}
			if isInf(v) {
				return 0
			}
			return v
		}
	}
	return 0
}

// profLabelsOn is the global CPU-attribution switch. Off (the default),
// Do is one atomic load plus the call — no label allocation, no goroutine
// label swap — so instrumented spawn sites cost nothing in ordinary runs.
// The CLIs enable it for -cpuprofile and -listen runs.
var profLabelsOn atomic.Bool

// EnableProfileLabels turns per-phase pprof labeling on or off.
func EnableProfileLabels(on bool) { profLabelsOn.Store(on) }

// ProfileLabelsEnabled reports the current switch state.
func ProfileLabelsEnabled() bool { return profLabelsOn.Load() }

// ProfLabels names the profiling dimensions a phase or worker runs under.
// Empty fields are omitted from the label set.
type ProfLabels struct {
	// Phase is the top-level stage: "aggregate", "materialize",
	// "sample:assign", "ingest", ...
	Phase string
	// Method is the aggregation method slug for method-scoped work.
	Method string
	// Artifact is the experiments artifact name.
	Artifact string
	// Worker identifies the worker goroutine within a parallel stage
	// (usually the stripe index as a string).
	Worker string
}

// labelSet builds the pprof label set; only called with labeling enabled.
func (l ProfLabels) labelSet() pprof.LabelSet {
	kv := make([]string, 0, 8)
	if l.Phase != "" {
		kv = append(kv, "phase", l.Phase)
	}
	if l.Method != "" {
		kv = append(kv, "method", l.Method)
	}
	if l.Artifact != "" {
		kv = append(kv, "artifact", l.Artifact)
	}
	if l.Worker != "" {
		kv = append(kv, "worker", l.Worker)
	}
	return pprof.Labels(kv...)
}

// Do runs f under l's pprof labels when profiling labels are enabled, and
// calls it directly otherwise. Labels attach to the calling goroutine for
// the duration of f and are inherited by goroutines f spawns, so wrapping
// a phase covers its workers and wrapping a worker body refines the
// attribution with its worker index. Labels never affect results — they
// annotate CPU profile samples only.
func Do(l ProfLabels, f func()) {
	if !profLabelsOn.Load() {
		f()
		return
	}
	pprof.Do(context.Background(), l.labelSet(), func(context.Context) { f() })
}
