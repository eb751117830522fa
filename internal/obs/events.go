package obs

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"
)

// This file is the narrative side of the run telemetry: a bounded,
// concurrency-safe ring of structured events — job and phase lifecycle,
// refresh-guard triggers, width and sample-size decisions —
// beside the numeric counters and series. Events carry deterministic
// attributes only (sizes, counts, decisions), never timings, so the event
// *content* of a run at a fixed seed is reproducible and cmd/benchdiff can
// gate it; the wall-clock timestamp rides along for operators and is never
// compared. The ring doubles as a log/slog sink (Handler/Logger) and can
// tee every event to an attached slog.Handler, which is how the CLIs' -log
// flag streams text or JSON lines to stderr while the ring keeps the tail
// for the report's events section and the /logs endpoint.

// DefaultEventsCap bounds the event ring, like DefaultSeriesCap bounds a
// series: a long run keeps the most recent events (plus the total count),
// so the report and the /logs scrape stay a bounded read.
const DefaultEventsCap = 256

// Event is one structured log entry. Attrs is deterministic run metadata
// (encoding/json marshals map keys sorted, so event bytes are stable);
// WallNS is the only wall-clock field and the only one benchdiff ignores.
type Event struct {
	// Seq is the event's 1-based position in emission order, stable even
	// after older entries fall out of the ring.
	Seq int64 `json:"seq"`
	// WallNS is the emission time in Unix nanoseconds. Operator-facing
	// only: never compared, never golden.
	WallNS int64 `json:"wall_ns"`
	// Level is the slog level name (INFO, WARN, ...).
	Level string            `json:"level"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// EventsSnapshot is the events section of a RunReport (schema_version ≥ 5)
// and the /logs payload: the retained tail plus the total emitted count.
type EventsSnapshot struct {
	// Count is the total number of events emitted, including any that the
	// ring has since dropped.
	Count int64 `json:"count"`
	// Dropped is how many events fell out of the ring (Count - retained).
	Dropped int64 `json:"dropped,omitempty"`
	// Entries is the retained tail, oldest first.
	Entries []Event `json:"entries,omitempty"`
}

// EventLog is a fixed-capacity ring of Events, safe for concurrent use. A
// nil *EventLog ignores every call, like the rest of the package. Emission
// is mutex-serialized — events are phase-cadence, not per-object, so the
// lock is never on a hot path — and snapshots copy the ring, so a /logs
// scrape mid-run never observes a half-written entry.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next int   // ring slot the next event lands in
	n    int   // occupied slots (≤ cap)
	seq  int64 // total events emitted
	sink slog.Handler
}

// NewEventLog returns an event log retaining the most recent capacity
// events (DefaultEventsCap when capacity ≤ 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventsCap
	}
	return &EventLog{ring: make([]Event, capacity)}
}

// Attach tees every subsequent event to h (a slog text/JSON handler on
// stderr is the CLIs' -log flag). The tee happens under the ring's lock, so
// streamed lines appear in ring order. A nil h detaches.
func (l *EventLog) Attach(h slog.Handler) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = h
}

// Log appends one event. kv is alternating key/value pairs; values are
// rendered with attrString (integers, floats, bools, and strings all format
// deterministically). A trailing key without a value is paired with "".
func (l *EventLog) Log(level slog.Level, msg string, kv ...any) {
	if l == nil {
		return
	}
	var attrs map[string]string
	if len(kv) > 0 {
		attrs = make(map[string]string, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			k := attrString(kv[i])
			v := ""
			if i+1 < len(kv) {
				v = attrString(kv[i+1])
			}
			attrs[k] = v
		}
	}
	l.append(time.Now().UnixNano(), level, msg, attrs)
}

// Info appends an info-level event (the common case for lifecycle events).
func (l *EventLog) Info(msg string, kv ...any) {
	if l == nil {
		return
	}
	l.Log(slog.LevelInfo, msg, kv...)
}

func (l *EventLog) append(wallNS int64, level slog.Level, msg string, attrs map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e := Event{Seq: l.seq, WallNS: wallNS, Level: level.String(), Msg: msg, Attrs: attrs}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	if l.sink != nil && l.sink.Enabled(context.Background(), level) {
		r := slog.NewRecord(time.Unix(0, wallNS), level, msg, 0)
		for _, k := range sortedKeys(attrs) {
			r.AddAttrs(slog.String(k, attrs[k]))
		}
		l.sink.Handle(context.Background(), r) //nolint:errcheck // a failing stderr write has no recovery
	}
}

// Snapshot copies the retained tail, oldest first.
func (l *EventLog) Snapshot() EventsSnapshot {
	if l == nil {
		return EventsSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := EventsSnapshot{Count: l.seq, Dropped: l.seq - int64(l.n)}
	if l.n == 0 {
		return s
	}
	s.Entries = make([]Event, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		s.Entries = append(s.Entries, l.ring[(start+i)%len(l.ring)])
	}
	return s
}

// Handler returns a slog.Handler that records into the ring, so external
// code holding a *slog.Logger (the future daemon's request log) lands in
// the same bounded tail as the package's own lifecycle events. A nil
// receiver yields a discard handler.
func (l *EventLog) Handler() slog.Handler {
	return eventLogHandler{log: l}
}

// Logger returns a *slog.Logger writing into the ring.
func (l *EventLog) Logger() *slog.Logger {
	return slog.New(l.Handler())
}

// eventLogHandler adapts an EventLog to the slog.Handler contract.
// WithAttrs pre-bound attributes and WithGroup prefixes are folded into
// each record's attribute map.
type eventLogHandler struct {
	log    *EventLog
	prefix string      // accumulated group prefix ("grp.")
	bound  []slog.Attr // attrs bound via WithAttrs, already prefixed
}

func (h eventLogHandler) Enabled(context.Context, slog.Level) bool { return h.log != nil }

func (h eventLogHandler) Handle(_ context.Context, r slog.Record) error {
	if h.log == nil {
		return nil
	}
	var attrs map[string]string
	add := func(a slog.Attr) {
		if attrs == nil {
			attrs = make(map[string]string, r.NumAttrs()+len(h.bound))
		}
		attrs[h.prefix+a.Key] = a.Value.String()
	}
	for _, a := range h.bound {
		if attrs == nil {
			attrs = make(map[string]string, r.NumAttrs()+len(h.bound))
		}
		attrs[a.Key] = a.Value.String()
	}
	r.Attrs(func(a slog.Attr) bool { add(a); return true })
	wall := r.Time.UnixNano()
	if r.Time.IsZero() {
		wall = time.Now().UnixNano()
	}
	h.log.append(wall, r.Level, r.Message, attrs)
	return nil
}

func (h eventLogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	bound := append([]slog.Attr(nil), h.bound...)
	for _, a := range attrs {
		bound = append(bound, slog.String(h.prefix+a.Key, a.Value.String()))
	}
	return eventLogHandler{log: h.log, prefix: h.prefix, bound: bound}
}

func (h eventLogHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return eventLogHandler{log: h.log, prefix: h.prefix + name + ".", bound: h.bound}
}

// attrString renders an attribute deterministically: integers and bools via
// strconv, floats via %g, strings as-is. The fmt fallback covers the
// occasional Stringer.
func attrString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(x)
	}
}
