package obs

import (
	"sync"
	"time"
)

// This file is the convergence-telemetry primitive: a named, append-only
// time series of (step, wall_ns, value) points. Iterative algorithms append
// one point per unit of progress — LOCALSEARCH's cost after each sweep,
// AGGLOMERATIVE's loss per merge, SAMPLING's per-batch assignment
// throughput — and the series bounds its memory by deterministic
// step-doubling decimation, so a million-sweep run retains the same O(1)
// footprint as a ten-sweep one. Like every other obs primitive, a nil
// *Series ignores Append at the cost of one nil check, and appending never
// influences the algorithm it observes.

// DefaultSeriesCap is the retained-point bound for series created by
// Recorder.Series. It is even, which the decimation invariant below relies
// on.
const DefaultSeriesCap = 512

// SeriesPoint is one observation: Step is the algorithm's own progress
// counter (sweep, merge, batch, or method index — whatever the appending
// loop counts), WallNS the offset from the Recorder's epoch, and Value the
// observed quantity. Step and Value are deterministic for a deterministic
// run; WallNS is wall clock and must be ignored by comparisons
// (cmd/benchdiff does).
type SeriesPoint struct {
	Step   int64   `json:"step"`
	WallNS int64   `json:"wall_ns"`
	Value  float64 `json:"value"`
}

// Series is an append-only, concurrency-safe, bounded time series.
// Construct via Recorder.Series; a nil *Series ignores Append, so call
// sites never guard.
//
// Bounding works by stride decimation: the series keeps every stride-th
// appended point, and when the retained buffer reaches its cap it drops
// every other retained point and doubles the stride. The keep/drop decision
// depends only on the append call index — never on timing — so two runs
// appending the same values retain the same points. The cap is even, so a
// freshly kept point's index (cap·stride) is always divisible by the
// doubled stride and the invariant "retained indices ≡ 0 (mod stride)"
// survives decimation. The most recent append is additionally remembered
// whole, so Snapshot always includes the endpoint (the converged cost)
// even when decimation would have dropped it.
type Series struct {
	mu       sync.Mutex
	epoch    time.Time
	max      int
	stride   int64 // keep every stride-th append
	n        int64 // total appends offered
	points   []SeriesPoint
	last     SeriesPoint // most recent append, retained or not
	tailKept bool        // last append survived decimation into points
}

// Append records value at step. Safe for concurrent use; a nil receiver is
// a no-op.
func (s *Series) Append(step int64, value float64) {
	if s == nil {
		return
	}
	now := int64(time.Since(s.epoch))
	s.mu.Lock()
	defer s.mu.Unlock()
	p := SeriesPoint{Step: step, WallNS: now, Value: value}
	keep := s.n%s.stride == 0
	s.n++
	s.last = p
	s.tailKept = keep
	if !keep {
		return
	}
	if len(s.points) >= s.max {
		half := s.points[:0]
		for i := 0; i < len(s.points); i += 2 {
			half = append(half, s.points[i])
		}
		s.points = half
		s.stride *= 2
	}
	s.points = append(s.points, p)
}

// SeriesSnapshot is an immutable copy of a series for reporting. Points are
// the retained (possibly decimated) observations in append order; Count is
// the total number of appends offered, and Stride the final decimation
// stride, so a reader can tell how much was dropped. The final point is
// always the series' most recent append.
type SeriesSnapshot struct {
	Points []SeriesPoint `json:"points"`
	Count  int64         `json:"count"`
	Stride int64         `json:"stride,omitempty"`
}

// Snapshot copies the series' retained points. Safe concurrently with
// Append: a snapshot of a live run never blocks writers beyond the copy.
func (s *Series) Snapshot() SeriesSnapshot {
	if s == nil {
		return SeriesSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := make([]SeriesPoint, len(s.points), len(s.points)+1)
	copy(pts, s.points)
	if s.n > 0 && !s.tailKept {
		pts = append(pts, s.last)
	}
	return SeriesSnapshot{Points: pts, Count: s.n, Stride: s.stride}
}

// Series returns the named series, creating it on first use. It returns nil
// on a nil Recorder, and a nil *Series ignores Append, so
// rec.Series("x").Append(...) is safe (and allocation-free) without a
// recorder.
func (r *Recorder) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{epoch: r.epoch, max: DefaultSeriesCap, stride: 1}
		r.series[name] = s
	}
	return s
}

// AllSeries returns a snapshot of every series, keyed by name. Safe
// concurrently with appends.
func (r *Recorder) AllSeries() map[string]SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]SeriesSnapshot, len(r.series))
	for name, s := range r.series {
		out[name] = s.Snapshot()
	}
	return out
}
