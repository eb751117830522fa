package obs

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the Go-runtime side of the run telemetry: a RuntimeSampler
// polls runtime/metrics — heap occupancy, live objects, GC cycles,
// goroutine count, total CPU — into the package's ordinary gauge and series
// primitives, so runtime health rides the same reports and traces as the
// algorithm counters and a cost regression can be told apart from a heap or
// GC one. Every runtime.* name is machine-
// and GC-pacing-dependent, so cmd/benchdiff ignores the whole prefix by
// default.
//
// It also hosts the per-phase CPU attribution switch: Do wraps a function
// in runtime/pprof labels (phase/method/worker) when profiling
// labels are enabled, so -cpuprofile output slices by algorithm phase with
// `go tool pprof -tagfocus`. Labels are observational by construction —
// pprof.Do only annotates profiling samples — and the recorder-equivalence
// suite in internal/core pins that results are bit-identical with the
// switch on or off at every worker count.

// Runtime gauge/series names registered by a RuntimeSampler. GC pause and
// scheduler latency are not recorded.
const (
	runtimeGoroutines  = "runtime.goroutines"
	runtimeHeapBytes   = "runtime.heap_bytes"
	runtimeHeapObjects = "runtime.heap_objects"
	runtimeGCCycles    = "runtime.gc_cycles"
	runtimeCPUSeconds  = "runtime.cpu_total_seconds"
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
)

// RuntimeSampler polls runtime/metrics into a Recorder. Construct with
// NewRuntimeSampler, call Sample from any convenient cadence — the CLIs
// piggy-back on the AllocTracker/progress tick — or SampleEvery for a
// background ticker. A nil sampler ignores every call and costs one nil
// check, so a run without a recorder pays nothing.
type RuntimeSampler struct {
	mu      sync.Mutex       // serializes Sample: ticker, progress tick and final poll may race
	samples []metrics.Sample // reused across Sample calls

	goroutines  *Gauge
	heapBytes   *Gauge
	heapObjects *Gauge
	gcCycles    *Gauge
	cpuSeconds  *Gauge

	goroutineSeries *Series
	heapSeries      *Series

	tick int64 // series step counter
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
		},
		goroutines:      rec.Gauge(runtimeGoroutines),
		heapBytes:       rec.Gauge(runtimeHeapBytes),
		heapObjects:     rec.Gauge(runtimeHeapObjects),
		gcCycles:        rec.Gauge(runtimeGCCycles),
		cpuSeconds:      rec.Gauge(runtimeCPUSeconds),
		goroutineSeries: rec.Series(runtimeGoroutines),
		heapSeries:      rec.Series(runtimeHeapBytes),
	}
	return s
}

// Sample reads the runtime metrics once and updates the bound gauges and
// series. Safe from any goroutine and on a nil sampler.
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

// profLabelsOn is the global CPU-attribution switch. Off (the default),
// Do is one atomic load plus the call — no label allocation, no goroutine
// label swap — so instrumented spawn sites cost nothing in ordinary runs.
// The clusteragg CLI enables it for -cpuprofile runs.
var profLabelsOn atomic.Bool

// EnableProfileLabels turns per-phase pprof labeling on or off.
func EnableProfileLabels(on bool) { profLabelsOn.Store(on) }

// ProfLabels names the profiling dimensions a phase or worker runs under.
// Empty fields are omitted from the label set.
type ProfLabels struct {
	// Phase is the top-level stage: "aggregate", "materialize",
	// "sample:assign", "ingest", ...
	Phase string
	// Method is the aggregation method slug for method-scoped work.
	Method string
	// Worker identifies the worker goroutine within a parallel stage
	// (usually the stripe index as a string).
	Worker string
}

// labelSet builds the pprof label set; only called with labeling enabled.
func (l ProfLabels) labelSet() pprof.LabelSet {
	kv := make([]string, 0, 6)
	if l.Phase != "" {
		kv = append(kv, "phase", l.Phase)
	}
	if l.Method != "" {
		kv = append(kv, "method", l.Method)
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
