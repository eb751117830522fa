package obs

import (
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRingWrap(t *testing.T) {
	l := newEventLog(4)
	for i := 1; i <= 10; i++ {
		l.Info("e", "i", i)
	}
	s := l.Snapshot()
	if s.Count != 10 {
		t.Errorf("Count = %d, want 10", s.Count)
	}
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped)
	}
	if len(s.Entries) != 4 {
		t.Fatalf("retained %d entries, want 4", len(s.Entries))
	}
	for i, e := range s.Entries {
		wantSeq := int64(7 + i) // oldest retained first
		if e.Seq != wantSeq {
			t.Errorf("entry %d: seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Level != "INFO" || e.Msg != "e" {
			t.Errorf("entry %d: %s %q, want INFO \"e\"", i, e.Level, e.Msg)
		}
		if e.WallNS == 0 {
			t.Errorf("entry %d: wall_ns not stamped", i)
		}
	}
	if got := s.Entries[3].Attrs["i"]; got != "10" {
		t.Errorf("newest entry attr i = %q, want \"10\"", got)
	}
}

func TestEventLogNil(t *testing.T) {
	var l *EventLog
	l.Info("x", "k", 1) // must not panic
	l.log(slog.LevelWarn, "y")
	l.Attach(slog.NewTextHandler(&strings.Builder{}, nil))
	s := l.Snapshot()
	if s.Count != 0 || len(s.Entries) != 0 {
		t.Errorf("nil log snapshot = %+v, want zero", s)
	}
}

func TestEventLogAttachTee(t *testing.T) {
	l := newEventLog(8)
	var buf strings.Builder
	l.Attach(slog.NewTextHandler(&buf, nil))
	l.Info("seal", "shard", 3)
	out := buf.String()
	for _, want := range []string{"msg=seal", "shard=3", "level=INFO"} {
		if !strings.Contains(out, want) {
			t.Errorf("teed line missing %q: %s", want, out)
		}
	}
	// Detach: subsequent events stay in the ring but stop streaming.
	l.Attach(nil)
	before := buf.Len()
	l.Info("quiet")
	if buf.Len() != before {
		t.Error("event streamed after Attach(nil)")
	}
	if s := l.Snapshot(); s.Count != 2 {
		t.Errorf("Count = %d, want 2", s.Count)
	}
}

func TestAttrString(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{"s", "s"},
		{42, "42"},
		{int64(-7), "-7"},
		{uint64(9), "9"},
		{true, "true"},
		{1.5, "1.5"},
		{0.1, "0.1"},
		{5 * time.Second, "5s"}, // Stringer fallback
	}
	for _, c := range cases {
		if got := attrString(c.in); got != c.want {
			t.Errorf("attrString(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEventLogTrailingKey(t *testing.T) {
	l := newEventLog(4)
	l.Info("odd", "k") // trailing key pairs with ""
	e := l.Snapshot().Entries[0]
	if v, ok := e.Attrs["k"]; !ok || v != "" {
		t.Errorf("trailing key attr = %q (present=%v), want \"\"", v, ok)
	}
}

func TestRecorderEventsLazy(t *testing.T) {
	rec := New()
	if s := rec.EventsSnapshot(); s != nil {
		t.Fatalf("EventsSnapshot before any event = %+v, want nil", s)
	}
	rec.Event("first", "k", "v")
	s := rec.EventsSnapshot()
	if s == nil || s.Count != 1 {
		t.Fatalf("EventsSnapshot after one event = %+v, want count 1", s)
	}
	if s.Entries[0].Msg != "first" || s.Entries[0].Attrs["k"] != "v" {
		t.Errorf("entry = %+v", s.Entries[0])
	}

	var nilRec *Recorder
	nilRec.Event("x") // must not panic
	if nilRec.Events() != nil {
		t.Error("nil recorder's Events() != nil")
	}
	if nilRec.EventsSnapshot() != nil {
		t.Error("nil recorder's EventsSnapshot() != nil")
	}
}

// TestEventLogConcurrent drives emitters against snapshotters; the -race run
// is the assertion, plus seq accounting must stay exact.
func TestEventLogConcurrent(t *testing.T) {
	l := newEventLog(16)
	var wg sync.WaitGroup
	const emitters, each = 8, 50
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Info("e", "w", w, "i", i)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := l.Snapshot()
			if int64(len(s.Entries)) > s.Count {
				t.Errorf("retained %d > emitted %d", len(s.Entries), s.Count)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := l.Snapshot()
	if s.Count != emitters*each {
		t.Errorf("Count = %d, want %d", s.Count, emitters*each)
	}
	if len(s.Entries) != 16 || s.Dropped != emitters*each-16 {
		t.Errorf("retained %d dropped %d, want 16 and %d", len(s.Entries), s.Dropped, emitters*each-16)
	}
}
