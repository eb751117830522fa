package main

import (
	"runtime"
	"testing"
	"time"
)

var ballast []byte

// TestRuntimeProbe runs the heap sampler across a live allocation and a
// collection; under -race it also checks the sampler's handoff to stop.
func TestRuntimeProbe(t *testing.T) {
	p := startRuntimeProbe()
	ballast = make([]byte, 64<<20)
	time.Sleep(10 * peakHeapEvery)
	ballast = nil
	runtime.GC()
	m := p.stop()
	if m["runtime.peak_heap_mb"] < 64 {
		t.Errorf("peak heap %.1f MiB, want at least the 64 MiB ballast", m["runtime.peak_heap_mb"])
	}
	if m["runtime.gc_cycles"] < 1 {
		t.Errorf("gc cycles %v, want at least the forced one", m["runtime.gc_cycles"])
	}
}
