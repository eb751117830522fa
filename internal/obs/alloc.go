package obs

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the memory side of the run telemetry: an AllocTracker wraps
// a run and reports what it allocated (runtime.ReadMemStats deltas) plus
// the peak live heap observed while it ran. Total allocated bytes is the
// number the allocation-diet work optimizes and cmd/benchdiff gates — it
// is deterministic for a deterministic run, unlike RSS or live-heap
// snapshots, so it diffs cleanly across PRs; the peak live heap rides
// along as the operational "how big a machine do I need" signal.

// AllocStats is the alloc section of a RunReport (schema_version ≥ 4):
// allocation deltas over one tracked run.
type AllocStats struct {
	// Bytes is the total number of heap bytes allocated during the run
	// (runtime.MemStats.TotalAlloc delta — cumulative allocation, not peak
	// occupancy). This is the value cmd/benchdiff gates under -alloc-ratio.
	Bytes uint64 `json:"bytes"`
	// Mallocs is the number of heap objects allocated during the run
	// (MemStats.Mallocs delta).
	Mallocs uint64 `json:"mallocs"`
	// PeakHeapBytes is the largest live heap (MemStats.HeapAlloc) observed
	// at any sample point during the run — start, finish, and every
	// Sample() call in between (the CLIs sample from their progress
	// tickers). A coarse high-water mark: true between-sample peaks are not
	// seen, so it is reported but never gated.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
}

// AllocTracker measures AllocStats over a window: StartAllocTracker at the
// beginning, optionally Sample from a progress ticker (any goroutine), and
// Finish at the end. A nil tracker is inert, so callers thread it without
// nil checks. The tracker reads MemStats without forcing garbage
// collection; ReadMemStats stops the world for ~µs, which is why sampling
// is tied to the (throttled) progress ticker rather than a tight loop.
type AllocTracker struct {
	startTotal   uint64
	startMallocs uint64
	peakHeap     atomic.Uint64
}

// StartAllocTracker snapshots the current allocation cumulative counters
// and begins peak-heap tracking.
func StartAllocTracker() *AllocTracker {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t := &AllocTracker{
		startTotal:   ms.TotalAlloc,
		startMallocs: ms.Mallocs,
	}
	t.observeHeap(ms.HeapAlloc)
	return t
}

// Sample records the current live heap into the peak high-water mark. Safe
// from any goroutine and on a nil tracker.
func (t *AllocTracker) Sample() {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.observeHeap(ms.HeapAlloc)
}

// observeHeap CAS-raises the peak to heap when it is larger.
func (t *AllocTracker) observeHeap(heap uint64) {
	for {
		cur := t.peakHeap.Load()
		if heap <= cur {
			break
		}
		if t.peakHeap.CompareAndSwap(cur, heap) {
			break
		}
	}
}

// Finish takes the closing snapshot and returns the deltas. Nil-safe (nil
// tracker returns nil stats). The tracker can keep sampling after Finish,
// but the returned stats are fixed at the call.
func (t *AllocTracker) Finish() *AllocStats {
	if t == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.observeHeap(ms.HeapAlloc)
	return &AllocStats{
		Bytes:         ms.TotalAlloc - t.startTotal,
		Mallocs:       ms.Mallocs - t.startMallocs,
		PeakHeapBytes: t.peakHeap.Load(),
	}
}

// SampleEvery starts a background goroutine sampling the tracker at the
// given interval until stop is closed; it returns immediately. For runs
// with no natural progress callback (benchmarks, batch jobs). Nil-safe.
func (t *AllocTracker) SampleEvery(interval time.Duration, stop <-chan struct{}) {
	if t == nil {
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
				t.Sample()
			}
		}
	}()
}

// AllocRatio returns cur/base for gate math, treating a zero base as an
// infinite ratio when cur is non-zero (a run that allocated where the
// baseline recorded nothing is always a regression candidate).
func AllocRatio(cur, base uint64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(cur) / float64(base)
}
