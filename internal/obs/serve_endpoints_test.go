package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeLogsEndpoint(t *testing.T) {
	rec := New()
	rec.Event("ingest.seal", "shard", 0, "rows", 128)
	rec.Event("sample.shards", "shards", 4)
	s, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s, "/logs")
	if code != http.StatusOK {
		t.Fatalf("/logs status %d", code)
	}
	var payload struct {
		Events EventsSnapshot `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/logs is not JSON: %v\n%s", err, body)
	}
	if payload.Events.Count != 2 || len(payload.Events.Entries) != 2 {
		t.Fatalf("/logs = %+v, want 2 events", payload.Events)
	}
	if e := payload.Events.Entries[0]; e.Msg != "ingest.seal" || e.Attrs["rows"] != "128" {
		t.Errorf("first entry = %+v", e)
	}

	// An event-free recorder — and a nil one — serve an empty section, not
	// an error, and the scrape itself must not materialize an event log
	// (that would flip the report schema of an event-free run).
	empty := New()
	s.SetRecorder(empty)
	if code, body := get(t, s, "/logs"); code != http.StatusOK || !strings.Contains(body, `"count": 0`) {
		t.Errorf("/logs on event-free recorder: status %d body %s", code, body)
	}
	if empty.EventsSnapshot() != nil {
		t.Error("/logs scrape materialized an event log on the recorder")
	}
	s.SetRecorder(nil)
	if code, _ := get(t, s, "/logs"); code != http.StatusOK {
		t.Errorf("/logs with nil recorder: status %d", code)
	}
}

// TestServeSetRecorderUnderLoad swaps the bound recorder while scrapers and
// instrumented writers run full tilt; the -race run is the assertion, and
// every scrape must come back 200 regardless of which recorder (or nil) it
// lands on. This is the cmd/experiments pattern: one recorder per artifact,
// rebound mid-flight.
func TestServeSetRecorderUnderLoad(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer + swapper: a new "artifact" every iteration
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := New()
			s.SetRecorder(rec)
			rec.Add("swap.counter", int64(i))
			rec.Event("swap.event", "i", i)
			rec.SetGauge("swap.gauge", float64(i))
		}
	}()
	for _, path := range []string{"/metrics", "/logs", "/series"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + s.Addr() + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(path)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestServeCloseDrainsScrape pins graceful shutdown: a scrape already inside
// the handler when Close is called completes with a full 200 response
// instead of a connection reset, and Close returns once it has drained.
func TestServeCloseDrainsScrape(t *testing.T) {
	rec := New()
	rec.Add("drain.counter", 1)
	s, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	delay := func() {
		close(entered)
		time.Sleep(300 * time.Millisecond)
	}
	s.scrapeDelay.Store(&delay)

	type result struct {
		code int
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/metrics")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		got <- result{code: resp.StatusCode, body: sb.String()}
	}()

	<-entered // the scrape is in flight
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Errorf("Close during in-flight scrape: %v", err)
	}
	if d := time.Since(start); d >= closeDrainTimeout {
		t.Errorf("Close took %v, want under the %v drain timeout", d, closeDrainTimeout)
	}

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight scrape failed across Close: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Errorf("in-flight scrape status %d, want 200", r.code)
	}
	if !strings.Contains(r.body, "clusteragg_drain_counter_total 1") {
		t.Errorf("in-flight scrape body truncated:\n%s", r.body)
	}

	// The listener is down: new scrapes must fail, and a second Close is
	// still safe.
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("GET succeeded after Close")
	}
	s.Close()
}

// TestServeRuntimeGaugesOnMetrics pins that a RuntimeSampler's gauges ride
// the ordinary /metrics exposition in Prometheus form.
func TestServeRuntimeGaugesOnMetrics(t *testing.T) {
	rec := New()
	NewRuntimeSampler(rec).Sample()
	s, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE clusteragg_runtime_goroutines gauge",
		"# TYPE clusteragg_runtime_heap_bytes gauge",
		"# TYPE clusteragg_runtime_gc_cycles gauge",
		"# TYPE clusteragg_runtime_heap_objects gauge",
		"# TYPE clusteragg_runtime_cpu_total_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
