package obs

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// TestRuntimeSampler is the acceptance test for the runtime/metrics poller:
// one Sample populates every runtime.* gauge, repeated samples extend the
// convergence series, and concurrent callers (ticker, progress tick and
// final poll) serialize without racing. Run with -race.
func TestRuntimeSampler(t *testing.T) {
	rec := New()
	s := NewRuntimeSampler(rec)
	if s == nil {
		t.Fatal("NewRuntimeSampler returned nil for a live recorder")
	}
	s.Sample()

	gauges := rec.Gauges()
	for _, name := range []string{
		runtimeGoroutines, runtimeHeapBytes, runtimeHeapObjects,
		runtimeGCCycles, runtimeCPUSeconds,
	} {
		if v, ok := gauges[name]; !ok || v < 0 {
			t.Errorf("gauge %s = %v (present=%v), want >= 0", name, v, ok)
		}
	}
	if gauges[runtimeGoroutines] < 1 {
		t.Errorf("runtime.goroutines = %v, want >= 1", gauges[runtimeGoroutines])
	}
	if gauges[runtimeHeapBytes] <= 0 {
		t.Errorf("runtime.heap_bytes = %v, want > 0", gauges[runtimeHeapBytes])
	}

	// A GC cycle between samples must show up in the gc_cycles gauge.
	runtime.GC()
	runtime.GC()
	s.Sample()
	if g := rec.Gauges()[runtimeGCCycles]; g < 2 {
		t.Errorf("runtime.gc_cycles = %v after two forced GCs, want >= 2", g)
	}

	// Both samples appended to the goroutine/heap series.
	series := rec.AllSeries()
	for _, name := range []string{runtimeGoroutines, runtimeHeapBytes} {
		ss, ok := series[name]
		if !ok || len(ss.Points) < 2 {
			t.Errorf("series %s has %d points, want >= 2", name, len(ss.Points))
		}
	}

	// Concurrent samples must serialize (the -race run is the assertion).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				s.Sample()
			}
		}()
	}
	wg.Wait()
}

func TestRuntimeSamplerNil(t *testing.T) {
	if s := NewRuntimeSampler(nil); s != nil {
		t.Fatalf("NewRuntimeSampler(nil) = %v, want nil", s)
	}
	var s *RuntimeSampler
	s.Sample() // must not panic
	stop := make(chan struct{})
	s.SampleEvery(time.Millisecond, stop) // must not panic or spawn
	close(stop)
}

func TestRuntimeSamplerSampleEvery(t *testing.T) {
	rec := New()
	s := NewRuntimeSampler(rec)
	stop := make(chan struct{})
	s.SampleEvery(time.Millisecond, stop)
	deadline := time.After(2 * time.Second)
	for {
		if ss := rec.AllSeries()[runtimeGoroutines]; len(ss.Points) >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background sampler appended no points within 2s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
}

// TestDoProfileLabels pins the CPU-attribution contract end to end: with
// labeling enabled, work wrapped in Do shows up in a CPU profile under its
// phase/method labels (the gunzipped proto's string table carries the label
// keys and values); with labeling disabled, Do is a plain call.
func TestDoProfileLabels(t *testing.T) {
	ran := false
	Do(ProfLabels{Phase: "off"}, func() { ran = true })
	if !ran {
		t.Fatal("Do did not call f with labeling disabled")
	}

	EnableProfileLabels(true)
	defer EnableProfileLabels(false)
	if !profLabelsOn.Load() {
		t.Fatal("profiling labels off after EnableProfileLabels(true)")
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	// Busy-spin long enough for the 100 Hz profiler to take labeled samples.
	stop := time.Now().Add(300 * time.Millisecond)
	Do(ProfLabels{Phase: "obstestphase", Method: "obstestmethod", Worker: "0"}, func() {
		x := 0
		for time.Now().Before(stop) {
			for i := 0; i < 1e5; i++ {
				x += i * i
			}
		}
		_ = x
	})
	pprof.StopCPUProfile()

	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip profile: %v", err)
	}
	for _, want := range []string{"phase", "obstestphase", "method", "obstestmethod"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("CPU profile string table missing label %q", want)
		}
	}
}
