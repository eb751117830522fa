package obs

import (
	"sync"
	"testing"
)

func TestSeriesAppendAndSnapshot(t *testing.T) {
	r := New()
	s := r.Series("localsearch.cost")
	if s2 := r.Series("localsearch.cost"); s2 != s {
		t.Error("Series is not idempotent per name")
	}
	s.Append(0, 100)
	s.Append(1, 60)
	s.Append(2, 42)

	snap := s.Snapshot()
	if snap.Count != 3 || snap.Stride != 1 || len(snap.Points) != 3 {
		t.Fatalf("snapshot = %+v, want 3 points stride 1", snap)
	}
	for i, want := range []float64{100, 60, 42} {
		p := snap.Points[i]
		if p.Step != int64(i) || p.Value != want {
			t.Errorf("point %d = %+v, want step %d value %g", i, p, i, want)
		}
		if p.WallNS < 0 {
			t.Errorf("point %d wall offset %d < 0", i, p.WallNS)
		}
	}
	all := r.AllSeries()
	if len(all) != 1 || all["localsearch.cost"].Count != 3 {
		t.Errorf("AllSeries = %+v", all)
	}
}

// TestSeriesDecimation pins the bounding contract: the retained set stays
// within the cap, keeps exactly the appends at indices ≡ 0 (mod stride),
// and the stride doubles each time the buffer fills — all decided by append
// index, never by timing.
func TestSeriesDecimation(t *testing.T) {
	s := &Series{max: 8, stride: 1}
	const total = 100
	for i := 0; i < total; i++ {
		s.Append(int64(i), float64(i))
		if len(s.points) > s.max {
			t.Fatalf("after %d appends: %d retained points > cap %d", i+1, len(s.points), s.max)
		}
	}
	snap := s.Snapshot()
	if snap.Count != total {
		t.Errorf("Count = %d, want %d", snap.Count, total)
	}
	// 100 appends into a cap of 8: stride doubles 1→2→4→8→16.
	if snap.Stride != 16 {
		t.Errorf("stride = %d, want 16", snap.Stride)
	}
	// All points but the appended endpoint sit on the stride grid, ascending.
	grid := snap.Points[:len(snap.Points)-1]
	for i, p := range grid {
		if p.Step != int64(i)*snap.Stride {
			t.Errorf("retained point %d has step %d, want %d", i, p.Step, int64(i)*snap.Stride)
		}
		if p.Value != float64(p.Step) {
			t.Errorf("retained point %d value %g, want %g", i, p.Value, float64(p.Step))
		}
	}
	// The most recent append survives even though 99 % 16 != 0.
	if end := snap.Points[len(snap.Points)-1]; end.Step != total-1 || end.Value != total-1 {
		t.Errorf("endpoint = %+v, want step/value %d", end, total-1)
	}
}

// TestSeriesDeterministic pins that two identical append sequences retain
// identical points — the decimation decision must not depend on wall time.
func TestSeriesDeterministic(t *testing.T) {
	build := func() SeriesSnapshot {
		s := &Series{max: 16, stride: 1}
		for i := 0; i < 1000; i++ {
			s.Append(int64(i), float64(i%7))
		}
		return s.Snapshot()
	}
	a, b := build(), build()
	if a.Count != b.Count || a.Stride != b.Stride || len(a.Points) != len(b.Points) {
		t.Fatalf("shapes differ: %+v vs %+v", a, b)
	}
	for i := range a.Points {
		if a.Points[i].Step != b.Points[i].Step || a.Points[i].Value != b.Points[i].Value {
			t.Errorf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestSeriesEndpointAlwaysPresent(t *testing.T) {
	s := &Series{max: 4, stride: 1}
	for i := 0; i < 7; i++ {
		s.Append(int64(i), float64(i))
		snap := s.Snapshot()
		if len(snap.Points) == 0 {
			t.Fatalf("after %d appends: empty snapshot", i+1)
		}
		if end := snap.Points[len(snap.Points)-1]; end.Step != int64(i) {
			t.Errorf("after %d appends: endpoint step %d, want %d", i+1, end.Step, i)
		}
	}
}

func TestSeriesNilAndEmpty(t *testing.T) {
	var s *Series
	s.Append(1, 2) // must not panic
	if snap := s.Snapshot(); snap.Count != 0 || len(snap.Points) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}

	var r *Recorder
	r.Series("x").Append(1, 2) // nil recorder: no-op chain
	if r.AllSeries() != nil {
		t.Error("nil recorder AllSeries != nil")
	}

	live := New()
	empty := live.Series("touched")
	if snap := empty.Snapshot(); snap.Count != 0 || len(snap.Points) != 0 {
		t.Errorf("empty series snapshot = %+v", snap)
	}
	if all := live.AllSeries(); len(all) != 1 {
		t.Errorf("registered-but-empty series missing from AllSeries: %v", all)
	}
}

// TestSeriesConcurrentAppendAndSnapshot exercises the snapshot-while-writing
// contract under the race detector: appends from several goroutines while
// snapshots are taken concurrently.
func TestSeriesConcurrentAppendAndSnapshot(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := r.Series("shared")
			for i := 0; i < 500; i++ {
				s.Append(int64(i), float64(w))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := r.AllSeries()["shared"]
		if int64(len(snap.Points)) > snap.Count {
			t.Fatalf("snapshot has more points than appends: %+v", snap)
		}
	}
	wg.Wait()
	if got := r.AllSeries()["shared"].Count; got != 2000 {
		t.Errorf("total appends = %d, want 2000", got)
	}
}
