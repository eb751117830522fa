package obs

import (
	"math"
	"testing"
	"time"
)

func TestAllocTrackerMeasures(t *testing.T) {
	tr := StartAllocTracker()
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 64<<10)
	}
	tr.Sample()
	st := tr.Finish()
	if st == nil {
		t.Fatal("Finish returned nil on a live tracker")
	}
	if st.Bytes < 64*(64<<10) {
		t.Errorf("Bytes = %d, want at least the %d explicitly allocated", st.Bytes, 64*(64<<10))
	}
	if st.Mallocs < 64 {
		t.Errorf("Mallocs = %d, want ≥ 64", st.Mallocs)
	}
	if st.PeakHeapBytes == 0 {
		t.Error("PeakHeapBytes = 0, want a live-heap observation")
	}
	_ = sink
}

func TestAllocTrackerNilSafe(t *testing.T) {
	var tr *AllocTracker
	tr.Sample()
	tr.SampleEvery(time.Millisecond, nil)
	if st := tr.Finish(); st != nil {
		t.Errorf("nil tracker Finish = %+v, want nil", st)
	}
}

func TestAllocTrackerPeakMonotone(t *testing.T) {
	tr := StartAllocTracker()
	tr.observeHeap(100)
	tr.observeHeap(50) // lower observation must not regress the peak
	if got := tr.peakHeap.Load(); got < 100 {
		t.Errorf("peak = %d after observing 100 then 50, want ≥ 100", got)
	}
}

// ballastSink forces the test ballast onto the heap (a local of that size
// would be stack-allocated and invisible to HeapAlloc).
var ballastSink []byte

func TestAllocTrackerSampleEvery(t *testing.T) {
	tr := StartAllocTracker()
	stop := make(chan struct{})
	tr.SampleEvery(time.Millisecond, stop)
	ballastSink = make([]byte, 8<<20)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	st := tr.Finish()
	if st.PeakHeapBytes < uint64(len(ballastSink)) {
		t.Errorf("peak %d never saw the %d-byte ballast", st.PeakHeapBytes, len(ballastSink))
	}
	ballastSink = nil
}

func TestAllocRatio(t *testing.T) {
	cases := []struct {
		cur, base uint64
		want      float64
	}{
		{150, 100, 1.5},
		{100, 100, 1},
		{0, 0, 1},
		{1, 0, math.Inf(1)},
		{0, 100, 0},
	}
	for _, c := range cases {
		if got := AllocRatio(c.cur, c.base); got != c.want {
			t.Errorf("AllocRatio(%d, %d) = %v, want %v", c.cur, c.base, got, c.want)
		}
	}
}
