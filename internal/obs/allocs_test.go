package obs

import "testing"

// The nil-receiver no-op contract is only free if it is also allocation-free:
// these tests pin 0 allocations for every call an instrumented hot path makes
// when recording is disabled, and for the per-event work of the live metric
// types when it is enabled.

func pinAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s allocates %v times per call, want 0", name, n)
	}
}

func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	pinAllocs(t, "nil Recorder.Start+End", func() { r.Start("x").End() })
	pinAllocs(t, "nil Recorder.Add", func() { r.Add("c", 1) })
	pinAllocs(t, "nil Recorder.Counter", func() { r.Counter("c").Add(1) })
	pinAllocs(t, "nil Recorder.SetGauge", func() { r.SetGauge("g", 1) })
	pinAllocs(t, "nil Recorder.Gauge", func() { r.Gauge("g").Set(1) })
	pinAllocs(t, "nil Recorder.Series", func() { r.Series("s").Append(1, 2) })
}

func TestNilSeriesZeroAllocs(t *testing.T) {
	var s *Series
	pinAllocs(t, "nil Series.Append", func() { s.Append(1, 2) })
}

func TestNilSpanZeroAllocs(t *testing.T) {
	var s *Span
	pinAllocs(t, "nil Span.End", func() { s.End() })
	pinAllocs(t, "nil Span.StartChild", func() { s.StartChild("w").End() })
}

func TestNilProgressZeroAllocs(t *testing.T) {
	var p *Progress
	pinAllocs(t, "nil Progress.Emit", func() {
		p.Emit(ProgressEvent{Stage: "s", Done: 1, Total: 2})
	})
}

// TestDisabledObsZeroAllocs pins the disabled paths added with the runtime
// telemetry layer: a nil sampler, a nil recorder's Event, and Do with
// profiling labels off must all be allocation-free — they sit on spawn sites
// and progress ticks of every run, instrumented or not.
func TestDisabledObsZeroAllocs(t *testing.T) {
	var s *RuntimeSampler
	pinAllocs(t, "nil RuntimeSampler.Sample", func() { s.Sample() })
	var r *Recorder
	pinAllocs(t, "nil Recorder.Event", func() { r.Event("e", "k", 1) })
	var l *EventLog
	pinAllocs(t, "nil EventLog.Info", func() { l.Info("e", "k", 1) })
	if profLabelsOn.Load() {
		t.Fatal("profiling labels unexpectedly enabled")
	}
	f := func() {}
	pinAllocs(t, "Do with labels disabled", func() {
		Do(ProfLabels{Phase: "p", Method: "m", Worker: "0"}, f)
	})
}

func TestLiveMetricsZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	pinAllocs(t, "Counter.Add", func() { c.Add(1) })
	pinAllocs(t, "Gauge.Set", func() { g.Set(2) })
}
