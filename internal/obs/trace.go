package obs

import (
	"encoding/json"
	"io"
	"os"
)

// This file serializes the recorded span forest to Chrome trace_event JSON
// ("JSON Object Format": {"traceEvents": [...]}), loadable in Perfetto or
// chrome://tracing. Every span becomes one complete ("X") event; timestamps
// are microseconds from the Recorder's epoch, so spans line up on one
// timeline. Spans whose intervals nest render nested on a single track, but
// concurrent siblings — the parallel stages' worker spans started with
// StartChild — overlap without containment, which a single track cannot
// draw; the exporter lays those out onto additional tracks (tids) greedily,
// keeping every span on its parent's track unless it overlaps an earlier
// sibling there. A process's series render as counter ("C") events after
// its spans, so convergence trajectories plot as counter tracks alongside
// the span lanes, and its structured events render as instant ("i") marks
// on lane 0, so a refresh-guard trigger or sampling plan pins to the moment
// it happened in the span timeline.

// traceEvent is one trace_event entry. Ph "X" is a complete event with a
// duration; Ph "M" is metadata (process/thread names); Ph "C" is a counter
// sample; Ph "i" is an instant event (S scopes it to its process). Dur is a
// pointer so complete events always carry an explicit "dur" — a
// zero-duration span must still say "dur":0, which viewers accept and
// omission breaks — while metadata, counter, and instant events omit the
// field.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds from epoch
	Dur  *float64       `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope ("p")
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// laneLayout allocates tracks. Lane 1 is the first track of pid's timeline;
// overlapping siblings spill to fresh lanes.
type laneLayout struct {
	events   []traceEvent
	nextLane int
}

// place emits span s on lane and lays out its children: each child prefers
// the first already-used slot (its parent's lane first) whose previous
// occupant ended before the child starts, and otherwise opens a fresh lane.
// Children arrive in start order (spans append in Start order), so the
// greedy scan is the classic interval-partitioning argument: the lane count
// equals the maximum sibling overlap.
func (l *laneLayout) place(s SpanSnapshot, pid, lane int) {
	dur := float64(s.DurationNS) / 1e3
	l.events = append(l.events, traceEvent{
		Name: s.Name,
		Ph:   "X",
		TS:   float64(s.StartNS) / 1e3,
		Dur:  &dur,
		PID:  pid,
		TID:  lane,
		Args: map[string]any{"self_us": float64(s.SelfNS) / 1e3},
	})
	type slot struct {
		lane int
		end  int64
	}
	slots := []slot{{lane: lane, end: 0}} // parent's lane, free for the first child
	for _, c := range s.Children {
		placed := false
		for i := range slots {
			if slots[i].end <= c.StartNS {
				slots[i].end = c.StartNS + c.DurationNS
				l.place(c, pid, slots[i].lane)
				placed = true
				break
			}
		}
		if !placed {
			l.nextLane++
			slots = append(slots, slot{lane: l.nextLane, end: c.StartNS + c.DurationNS})
			l.place(c, pid, l.nextLane)
		}
	}
}

// TraceProcess is one named timeline in a multi-process trace export —
// cmd/experiments exports each artifact as its own process so Perfetto
// shows them stacked. Series (if any) render as counter tracks on the same
// timeline, and Events (if any) as instant marks pinned to the span
// timeline via EventEpochNS.
type TraceProcess struct {
	Name   string
	Spans  []SpanSnapshot
	Series map[string]SeriesSnapshot
	// Events is the structured event tail; entries stamp wall-clock Unix
	// nanoseconds, so EventEpochNS (the Recorder's construction time in
	// Unix nanoseconds) anchors them to the span timeline's zero.
	Events       *EventsSnapshot
	EventEpochNS int64
}

// TraceProcess bundles the recorder's span forest, series, and event tail
// into one named trace timeline, carrying the epoch that anchors event
// wall-clock stamps to the span timeline. A nil recorder yields an empty
// process (name only).
func (r *Recorder) TraceProcess(name string) TraceProcess {
	p := TraceProcess{Name: name}
	if r == nil {
		return p
	}
	p.Spans = r.Spans()
	p.Series = r.AllSeries()
	p.Events = r.EventsSnapshot()
	p.EventEpochNS = r.epoch.UnixNano()
	return p
}

// writeTraceProcesses writes several span forests as one trace, one
// process (pid) per entry.
func writeTraceProcesses(w io.Writer, procs []TraceProcess) error {
	var events []traceEvent
	for i, p := range procs {
		pid := i + 1
		events = append(events, traceEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			TID:  0,
			Args: map[string]any{"name": p.Name},
		})
		l := &laneLayout{nextLane: 1}
		for _, root := range p.Spans {
			// Roots are sequential phases of one run; they share lane 1.
			l.place(root, pid, 1)
		}
		events = append(events, l.events...)
		// Counter events follow the process's spans, sorted by series name
		// with points in append order, so output bytes are deterministic
		// up to the recorded timestamps.
		for _, name := range sortedKeys(p.Series) {
			for _, pt := range p.Series[name].Points {
				events = append(events, traceEvent{
					Name: name,
					Ph:   "C",
					TS:   float64(pt.WallNS) / 1e3,
					PID:  pid,
					TID:  0,
					Args: map[string]any{"value": pt.Value},
				})
			}
		}
		// Structured events render last, as process-scoped instant marks on
		// lane 0; attributes ride along in args. Wall stamps translate onto
		// the span epoch so the marks land inside the spans they narrate.
		if p.Events != nil {
			for _, e := range p.Events.Entries {
				ts := float64(e.WallNS-p.EventEpochNS) / 1e3
				if ts < 0 {
					ts = 0
				}
				args := map[string]any{"level": e.Level}
				for k, v := range e.Attrs {
					args[k] = v
				}
				events = append(events, traceEvent{
					Name: e.Msg,
					Ph:   "i",
					TS:   ts,
					PID:  pid,
					TID:  0,
					S:    "p",
					Args: args,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteTraceFileProcesses writes a multi-process trace to path ("-" means
// stdout). It is the -tracefile flag's implementation in both CLIs.
func WriteTraceFileProcesses(path string, procs []TraceProcess) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return writeTraceProcesses(w, procs)
}
