package obs

import "testing"

func TestGaugeSetValue(t *testing.T) {
	r := New()
	g := r.Gauge("clusters")
	if g.Value() != 0 {
		t.Fatalf("fresh gauge = %v", g.Value())
	}
	g.Set(42.5)
	if g.Value() != 42.5 {
		t.Fatalf("after Set: %v", g.Value())
	}
	r.SetGauge("clusters", 7)
	if got := r.Gauges()["clusters"]; got != 7 {
		t.Fatalf("SetGauge: %v", got)
	}
	if r.Gauge("clusters") != g {
		t.Error("second Gauge call returned a different instance")
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Recorder
	if r.Gauge("g") != nil {
		t.Error("nil recorder returned non-nil gauge")
	}
	r.SetGauge("g", 1)
	if r.Gauges() != nil {
		t.Error("nil recorder gauge snapshot not nil")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
}

func TestEmptySnapshotsAreNil(t *testing.T) {
	r := New()
	if r.Gauges() != nil {
		t.Error("recorder with no gauges should snapshot nil (omitted from reports)")
	}
}
