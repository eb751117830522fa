package obs

import (
	"math"
	"sync/atomic"
)

// This file is the live half of the metric registry: the settable Gauge
// beside the monotonic Counter. Both share the same design rules —
// stdlib-only, lock-free atomic writes, nil-receiver no-ops — so the hot
// paths of instrumented algorithms pay one nil check when recording is
// disabled and one atomic op when it is enabled. The RunReport (report.go)
// snapshots gauges through Gauges.

// Gauge is a settable float64 metric, safe for concurrent use. Unlike a
// Counter it can go down (current cluster count, objects in flight). A nil
// *Gauge ignores Set and reports 0.
type Gauge struct {
	bits uint64 // float64 bits, accessed atomically
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Gauge returns the named gauge, creating it on first use. It returns nil on
// a nil Recorder, so the result can be used unconditionally.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// SetGauge sets the named gauge to v, registering it on first use.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.Gauge(name).Set(v)
}

// Gauges returns a snapshot of all gauges by name.
func (r *Recorder) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gauges) == 0 {
		return nil
	}
	out := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}
