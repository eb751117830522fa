package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeTrace parses trace_event JSON back into the exporter's event type.
func decodeTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	return f.TraceEvents
}

// eventsByName indexes non-metadata events.
func eventsByName(events []traceEvent) map[string]traceEvent {
	out := make(map[string]traceEvent)
	for _, e := range events {
		if e.Ph == "X" {
			out[e.Name] = e
		}
	}
	return out
}

func TestWriteTraceStructure(t *testing.T) {
	spans := []SpanSnapshot{
		{
			Name: "aggregate", StartNS: 1_000, DurationNS: 10_000, SelfNS: 2_000,
			Children: []SpanSnapshot{
				{Name: "materialize", StartNS: 2_000, DurationNS: 3_000, SelfNS: 3_000},
				{Name: "solve", StartNS: 6_000, DurationNS: 4_000, SelfNS: 4_000},
			},
		},
		{Name: "evaluate", StartNS: 12_000, DurationNS: 1_000, SelfNS: 1_000},
	}
	var b bytes.Buffer
	if err := writeTraceProcesses(&b, []TraceProcess{{Name: "run", Spans: spans}}); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, b.Bytes())

	if events[0].Ph != "M" || events[0].Name != "process_name" || events[0].Args["name"] != "run" {
		t.Errorf("first event is not the process_name metadata: %+v", events[0])
	}
	byName := eventsByName(events)
	agg := byName["aggregate"]
	if agg.TS != 1.0 || agg.Dur == nil || *agg.Dur != 10.0 {
		t.Errorf("aggregate ts/dur = %v/%v µs, want 1/10", agg.TS, agg.Dur)
	}
	if agg.Args["self_us"] != 2.0 {
		t.Errorf("aggregate self_us = %v", agg.Args["self_us"])
	}
	// Sequential children nest on their parent's lane; the next root too.
	for _, name := range []string{"materialize", "solve", "evaluate"} {
		if byName[name].TID != agg.TID {
			t.Errorf("%s on lane %d, want parent lane %d", name, byName[name].TID, agg.TID)
		}
	}
}

// TestWriteTraceWorkerLanes pins the overlap layout: concurrent sibling
// spans (parallel workers started with StartChild) cannot share a track, so
// each overlapping sibling spills to a fresh lane while non-overlapping ones
// reuse lanes.
func TestWriteTraceWorkerLanes(t *testing.T) {
	spans := []SpanSnapshot{
		{
			Name: "race", StartNS: 0, DurationNS: 100, SelfNS: 0,
			Children: []SpanSnapshot{
				{Name: "w0", StartNS: 0, DurationNS: 50},
				{Name: "w1", StartNS: 10, DurationNS: 50}, // overlaps w0
				{Name: "w2", StartNS: 20, DurationNS: 50}, // overlaps w0+w1
				{Name: "late", StartNS: 80, DurationNS: 10},
			},
		},
	}
	var b bytes.Buffer
	if err := writeTraceProcesses(&b, []TraceProcess{{Name: "run", Spans: spans}}); err != nil {
		t.Fatal(err)
	}
	byName := eventsByName(decodeTrace(t, b.Bytes()))
	race := byName["race"]
	if byName["w0"].TID != race.TID {
		t.Errorf("first worker should inherit the parent lane: %d vs %d", byName["w0"].TID, race.TID)
	}
	lanes := map[int]bool{byName["w0"].TID: true}
	for _, w := range []string{"w1", "w2"} {
		tid := byName[w].TID
		if lanes[tid] {
			t.Errorf("%s overlaps an earlier sibling on the same lane %d", w, tid)
		}
		lanes[tid] = true
	}
	// "late" starts after w0 ended, so it reuses the first free lane.
	if byName["late"].TID != byName["w0"].TID {
		t.Errorf("late span did not reuse the freed lane: %d vs %d", byName["late"].TID, byName["w0"].TID)
	}
}

func TestWriteTraceProcesses(t *testing.T) {
	procs := []TraceProcess{
		{Name: "fig3", Spans: []SpanSnapshot{{Name: "a", DurationNS: 10}}},
		{Name: "fig4", Spans: []SpanSnapshot{{Name: "b", DurationNS: 20}}},
	}
	var b bytes.Buffer
	if err := writeTraceProcesses(&b, procs); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, b.Bytes())
	pids := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" {
			pids[e.Args["name"].(string)] = e.PID
		}
	}
	if pids["fig3"] == 0 || pids["fig4"] == 0 || pids["fig3"] == pids["fig4"] {
		t.Errorf("artifacts do not get distinct pids: %v", pids)
	}
	byName := eventsByName(events)
	if byName["a"].PID != pids["fig3"] || byName["b"].PID != pids["fig4"] {
		t.Errorf("spans not attached to their artifact's pid: %+v %+v", byName["a"], byName["b"])
	}
}

// TestWriteTraceZeroDurationSpan pins two edge behaviors: a zero-duration
// complete event still carries an explicit "dur":0 (omitting it breaks
// viewers), and a zero-duration child occupies a lane slot degenerately —
// a sibling starting at the same instant may share its lane because the
// slot's end equals its start.
func TestWriteTraceZeroDurationSpan(t *testing.T) {
	spans := []SpanSnapshot{
		{
			Name: "parent", StartNS: 0, DurationNS: 100,
			Children: []SpanSnapshot{
				{Name: "instant", StartNS: 10, DurationNS: 0},
				{Name: "after", StartNS: 10, DurationNS: 20},
			},
		},
	}
	var b bytes.Buffer
	if err := writeTraceProcesses(&b, []TraceProcess{{Name: "run", Spans: spans}}); err != nil {
		t.Fatal(err)
	}
	raw := b.String()
	if !strings.Contains(raw, `"dur": 0,`) {
		t.Errorf("zero-duration span lost its explicit dur field:\n%s", raw)
	}
	byName := eventsByName(decodeTrace(t, b.Bytes()))
	inst := byName["instant"]
	if inst.Dur == nil || *inst.Dur != 0 {
		t.Errorf("instant dur = %v, want explicit 0", inst.Dur)
	}
	if byName["after"].TID != inst.TID {
		t.Errorf("sibling at the zero-duration span's end did not reuse its lane: %d vs %d",
			byName["after"].TID, inst.TID)
	}
}

// TestWriteTraceCounterEvents pins the series → counter-event export: one
// "C" event per retained point, on the process's pid, interleaved after the
// span lanes, in name-sorted point order — byte-for-byte, since every input
// is constructed (no wall clock involved).
func TestWriteTraceCounterEvents(t *testing.T) {
	dur := func(v float64) *float64 { return &v }
	procs := []TraceProcess{{
		Name:  "run",
		Spans: []SpanSnapshot{{Name: "solve", StartNS: 1_000, DurationNS: 4_000}},
		Series: map[string]SeriesSnapshot{
			"localsearch.cost": {Points: []SeriesPoint{
				{Step: 0, WallNS: 2_000, Value: 9},
				{Step: 1, WallNS: 3_000, Value: 5},
			}, Count: 2, Stride: 1},
			"agglomerative.merge_loss": {Points: []SeriesPoint{
				{Step: 0, WallNS: 2_500, Value: 0.25},
			}, Count: 1, Stride: 1},
		},
	}}
	var b bytes.Buffer
	if err := writeTraceProcesses(&b, procs); err != nil {
		t.Fatal(err)
	}

	events := decodeTrace(t, b.Bytes())
	want := []traceEvent{
		{Name: "process_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "run"}},
		{Name: "solve", Ph: "X", TS: 1, Dur: dur(4), PID: 1, TID: 1, Args: map[string]any{"self_us": 0.0}},
		{Name: "agglomerative.merge_loss", Ph: "C", TS: 2.5, PID: 1, TID: 0, Args: map[string]any{"value": 0.25}},
		{Name: "localsearch.cost", Ph: "C", TS: 2, PID: 1, TID: 0, Args: map[string]any{"value": 9.0}},
		{Name: "localsearch.cost", Ph: "C", TS: 3, PID: 1, TID: 0, Args: map[string]any{"value": 5.0}},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d:\n%s", len(events), len(want), b.String())
	}
	for i, w := range want {
		e := events[i]
		if e.Name != w.Name || e.Ph != w.Ph || e.TS != w.TS || e.PID != w.PID || e.TID != w.TID {
			t.Errorf("event %d = %+v, want %+v", i, e, w)
		}
		if (e.Dur == nil) != (w.Dur == nil) || (w.Dur != nil && *e.Dur != *w.Dur) {
			t.Errorf("event %d dur = %v, want %v", i, e.Dur, w.Dur)
		}
		for k, v := range w.Args {
			if e.Args[k] != v {
				t.Errorf("event %d args[%s] = %v, want %v", i, k, e.Args[k], v)
			}
		}
	}
	// The export is deterministic to the byte for fixed inputs: two writes
	// must agree, pinning JSON field and event ordering.
	var b2 bytes.Buffer
	if err := writeTraceProcesses(&b2, procs); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("trace export is not byte-deterministic for fixed inputs")
	}
}

// TestTraceFromRecorder round-trips real recorded spans (including
// StartChild worker spans) through the exporter.
func TestTraceFromRecorder(t *testing.T) {
	r := New()
	root := r.Start("aggregate")
	w0 := root.StartChild("worker:0")
	w1 := root.StartChild("worker:1")
	w0.End()
	w1.End()
	root.End()
	var b bytes.Buffer
	if err := writeTraceProcesses(&b, []TraceProcess{r.TraceProcess("run")}); err != nil {
		t.Fatal(err)
	}
	byName := eventsByName(decodeTrace(t, b.Bytes()))
	for _, name := range []string{"aggregate", "worker:0", "worker:1"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("span %s missing from trace", name)
		}
	}
}
