// Package obs is the repository's observability substrate: named, nested,
// wall-clock-timed spans and monotonic counters collected by a Recorder,
// plus a distance-probe-counting Instance wrapper and a machine-readable
// run-report schema.
//
// The package depends only on the standard library so every layer of the
// stack (corrclust algorithms, the core framework, the CLIs) can import it
// without cycles. All entry points are nil-safe: a nil *Recorder, *Span, or
// *Counter is a no-op, so instrumented code pays nothing beyond a nil check
// when recording is disabled, and call sites never need to guard.
//
//	rec := obs.New()
//	span := rec.Start("aggregate")
//	rec.Add("dist.probes", probes)
//	span.End()
//	rec.WriteText(os.Stderr)
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder collects spans and counters for one run. The zero value is not
// usable; construct with New. A nil *Recorder is valid and ignores every
// call. Counter increments are safe for concurrent use; spans are intended
// for the sequential phase structure of a run (concurrent Start/End calls
// are safe but the nesting then reflects interleaving order).
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time // construction time; span starts are relative to it
	roots    []*Span
	stack    []*Span
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*Series
	events   *EventLog // lazily created on first Events/Event call
}

// New returns an empty Recorder. Its construction time is the epoch all span
// start offsets (SpanSnapshot.StartNS, the trace export's timestamps) are
// measured from.
func New() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		series:   make(map[string]*Series),
	}
}

// Span is one named, wall-clock-timed section of a run. Spans nest: a span
// started while another is open becomes its child. End a span exactly once;
// a nil *Span ignores End.
type Span struct {
	rec      *Recorder
	name     string
	start    time.Time
	duration time.Duration
	children []*Span
	ended    bool
}

// Start opens a span named name as a child of the innermost open span (or
// as a new root). It returns nil on a nil Recorder.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{rec: r, name: name, start: time.Now()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) > 0 {
		parent := r.stack[len(r.stack)-1]
		parent.children = append(parent.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.stack = append(r.stack, s)
	return s
}

// End closes the span, fixing its duration. Unclosed descendants are popped
// with it (defensive against early returns), and a second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.duration = time.Since(s.start)
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == s {
			r.stack = r.stack[:i]
			break
		}
	}
}

// StartChild opens a span named name as an explicit child of s, bypassing
// the open-span stack. Concurrent sections (method racing, parallel workers)
// use it so their spans attach to a stable parent instead of nesting by
// goroutine interleaving order. The child never joins the stack: spans
// started with Recorder.Start while it is open do not nest under it. End it
// exactly once, as usual; a nil *Span returns nil, keeping call sites
// unconditional.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	r := s.rec
	c := &Span{rec: r, name: name, start: time.Now()}
	r.mu.Lock()
	s.children = append(s.children, c)
	r.mu.Unlock()
	return c
}

// Counter is a monotonic int64 counter, safe for concurrent use. A nil
// *Counter ignores Add and reports 0.
type Counter struct {
	v int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Counter returns the named counter, creating it on first use. It returns
// nil on a nil Recorder, so the result can be used unconditionally.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by delta. Zero deltas still register the
// counter so it appears (as 0) in reports.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.Counter(name).Add(delta)
}

// Counters returns a snapshot of all counters by name.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Events returns the recorder's event log, creating it (capacity
// DefaultEventsCap) on first use. It returns nil on a nil Recorder, so the
// result can be used unconditionally.
func (r *Recorder) Events() *EventLog {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.events == nil {
		r.events = newEventLog(DefaultEventsCap)
	}
	return r.events
}

// Event appends an info-level event to the recorder's event log. kv is
// alternating key/value pairs; see EventLog.Log. Nil-safe.
func (r *Recorder) Event(msg string, kv ...any) {
	if r == nil {
		return
	}
	r.Events().Info(msg, kv...)
}

// EventsSnapshot snapshots the event log without creating one: a recorder
// that never emitted an event reports nil (the report's events section is
// then omitted entirely, matching pre-v5 bytes).
func (r *Recorder) EventsSnapshot() *EventsSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	l := r.events
	r.mu.Unlock()
	if l == nil {
		return nil
	}
	s := l.Snapshot()
	return &s
}

// SpanSnapshot is an immutable copy of a span subtree for reporting. A span
// still open at snapshot time reports its duration so far. StartNS is the
// span's start offset from the Recorder's construction time (the epoch the
// Chrome trace export positions events by). SelfNS is the span's exclusive
// self time: its duration minus the sum of its direct children's durations,
// clamped at zero — concurrent children (worker spans) can sum past their
// parent's wall clock, and a negative self time carries no information.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartNS    int64          `json:"start_ns"`
	DurationNS int64          `json:"duration_ns"`
	SelfNS     int64          `json:"self_ns"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Duration returns the span's wall-clock duration.
func (s SpanSnapshot) Duration() time.Duration { return time.Duration(s.DurationNS) }

// Self returns the span's exclusive self time (duration minus children).
func (s SpanSnapshot) Self() time.Duration { return time.Duration(s.SelfNS) }

// Spans returns a snapshot of the recorded span forest.
func (r *Recorder) Spans() []SpanSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return snapshotSpans(r.roots, r.epoch)
}

func snapshotSpans(spans []*Span, epoch time.Time) []SpanSnapshot {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanSnapshot, len(spans))
	for i, s := range spans {
		d := s.duration
		if !s.ended {
			d = time.Since(s.start)
		}
		children := snapshotSpans(s.children, epoch)
		self := int64(d)
		for _, c := range children {
			self -= c.DurationNS
		}
		if self < 0 {
			self = 0
		}
		out[i] = SpanSnapshot{
			Name:       s.name,
			StartNS:    int64(s.start.Sub(epoch)),
			DurationNS: int64(d),
			SelfNS:     self,
			Children:   children,
		}
	}
	return out
}

// WriteText writes a human-readable span tree (total and exclusive self
// time per span) followed by the counters, gauges, series, and events,
// each section sorted by name. Every section's iteration order is deterministic,
// so two recorders holding the same metric values produce byte-identical
// output (the golden test in text_golden_test.go pins this). It is what the
// clusteragg -trace flag prints.
func (r *Recorder) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans := r.Spans()
	counters := r.Counters()
	gauges := r.Gauges()
	series := r.AllSeries()
	events := r.EventsSnapshot()
	if len(spans) > 0 {
		if _, err := fmt.Fprintln(w, "spans (wall clock):"); err != nil {
			return err
		}
		if err := writeSpanTree(w, spans, 1); err != nil {
			return err
		}
	}
	if len(counters) > 0 {
		if _, err := fmt.Fprintln(w, "counters:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(counters) {
			if _, err := fmt.Fprintf(w, "  %-*s %12d\n", keyWidth(counters), name, counters[name]); err != nil {
				return err
			}
		}
	}
	if len(gauges) > 0 {
		if _, err := fmt.Fprintln(w, "gauges:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(gauges) {
			if _, err := fmt.Fprintf(w, "  %-*s %12g\n", keyWidth(gauges), name, gauges[name]); err != nil {
				return err
			}
		}
	}
	if len(series) > 0 {
		if _, err := fmt.Fprintln(w, "series:"); err != nil {
			return err
		}
		for _, name := range sortedKeys(series) {
			ss := series[name]
			last := 0.0
			if len(ss.Points) > 0 {
				last = ss.Points[len(ss.Points)-1].Value
			}
			if _, err := fmt.Fprintf(w, "  %-*s points=%d count=%d last=%g\n",
				keyWidth(series), name, len(ss.Points), ss.Count, last); err != nil {
				return err
			}
		}
	}
	if events != nil && len(events.Entries) > 0 {
		// Timestamps are omitted so the section is deterministic at a fixed
		// seed, like the rest of the text output.
		if _, err := fmt.Fprintf(w, "events (%d total, %d retained):\n",
			events.Count, len(events.Entries)); err != nil {
			return err
		}
		for _, e := range events.Entries {
			if _, err := fmt.Fprintf(w, "  %-5s %s", e.Level, e.Msg); err != nil {
				return err
			}
			for _, k := range sortedKeys(e.Attrs) {
				if _, err := fmt.Fprintf(w, " %s=%s", k, e.Attrs[k]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// keyWidth returns the widest key length, for column alignment.
func keyWidth[V any](m map[string]V) int {
	w := 0
	for k := range m {
		if len(k) > w {
			w = len(k)
		}
	}
	return w
}

func writeSpanTree(w io.Writer, spans []SpanSnapshot, depth int) error {
	for _, s := range spans {
		pad := 2 * depth
		if _, err := fmt.Fprintf(w, "%*s%-*s %12s self %12s\n", pad, "", 40-pad, s.Name,
			s.Duration().Round(time.Microsecond), s.Self().Round(time.Microsecond)); err != nil {
			return err
		}
		if err := writeSpanTree(w, s.Children, depth+1); err != nil {
			return err
		}
	}
	return nil
}
