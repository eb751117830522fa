package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// get fetches path from the server and returns status and body.
func get(t *testing.T, s *MetricsServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeRoutes pins the exposition surface in one place: each
// observation has one route, and the retired duplicates stay gone.
func TestServeRoutes(t *testing.T) {
	s, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		path        string
		code        int
		contentType string // prefix; empty for a 404
	}{
		{"/metrics", http.StatusOK, "text/plain; version=0.0.4"},
		{"/series", http.StatusOK, "application/json"},
		{"/logs", http.StatusOK, "application/json"},
		{"/debug/pprof/", http.StatusOK, "text/html"},
		{"/dashboard", http.StatusNotFound, ""},
		{"/debug/vars", http.StatusNotFound, ""},
		{"/runtime", http.StatusNotFound, ""},
		{"/healthz", http.StatusNotFound, ""},
		{"/buildinfo", http.StatusNotFound, ""},
	} {
		resp, err := http.Get("http://" + s.Addr() + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); tc.contentType != "" && !strings.HasPrefix(ct, tc.contentType) {
			t.Errorf("GET %s: content type %q, want prefix %q", tc.path, ct, tc.contentType)
		}
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	rec := New()
	rec.Add("localsearch.sweeps", 7)
	rec.SetGauge("localsearch.clusters", 3)

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
		"# TYPE clusteragg_localsearch_sweeps_total counter",
		"clusteragg_localsearch_sweeps_total 7",
		"# TYPE clusteragg_localsearch_clusters gauge",
		"clusteragg_localsearch_clusters 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServePprofIndex(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "heap") {
		t.Errorf("/debug/pprof/ status %d, heap link present %v", code, strings.Contains(body, "heap"))
	}
}

func TestServeSeriesEndpoint(t *testing.T) {
	rec := New()
	s := rec.Series("localsearch.cost")
	s.Append(0, 9)
	s.Append(1, 5)
	srv, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv, "/series")
	if code != http.StatusOK {
		t.Fatalf("/series status %d", code)
	}
	var payload struct {
		Series map[string]SeriesSnapshot `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/series is not JSON: %v\n%s", err, body)
	}
	got := payload.Series["localsearch.cost"]
	if got.Count != 2 || len(got.Points) != 2 || got.Points[1].Value != 5 {
		t.Errorf("/series payload = %+v", payload.Series)
	}

	// Scraping stays well-formed while a writer appends concurrently.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(2); i < 500; i++ {
			s.Append(i, float64(i))
		}
	}()
	for i := 0; i < 10; i++ {
		code, body := get(t, srv, "/series")
		if code != http.StatusOK {
			t.Fatalf("live scrape status %d", code)
		}
		if err := json.Unmarshal([]byte(body), &payload); err != nil {
			t.Fatalf("live scrape not JSON: %v", err)
		}
	}
	<-done

	// A nil recorder yields an empty object, not an error.
	srv.SetRecorder(nil)
	code, body = get(t, srv, "/series")
	if code != http.StatusOK {
		t.Fatalf("nil recorder /series status %d", code)
	}
	payload.Series = nil
	if err := json.Unmarshal([]byte(body), &payload); err != nil || len(payload.Series) != 0 {
		t.Errorf("nil recorder /series = %q (err %v)", body, err)
	}
}

func TestServeSetRecorder(t *testing.T) {
	first := New()
	first.Add("runs", 1)
	s, err := Serve("127.0.0.1:0", first)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.recorder() != first {
		t.Fatal("Recorder() != bound recorder")
	}

	second := New()
	second.Add("runs", 2)
	s.SetRecorder(second)
	_, body := get(t, s, "/metrics")
	if !strings.Contains(body, "clusteragg_runs_total 2") {
		t.Errorf("scrape did not follow SetRecorder:\n%s", body)
	}

	// A nil recorder exposes an empty (not erroring) registry.
	s.SetRecorder(nil)
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK || strings.Contains(body, "clusteragg_runs_total") {
		t.Errorf("nil recorder scrape: status %d body %q", code, body)
	}
}

func TestServeNilReceivers(t *testing.T) {
	var s *MetricsServer
	if s.Addr() != "" || s.recorder() != nil {
		t.Error("nil server exposes state")
	}
	s.SetRecorder(New())
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"localsearch.sweeps": "clusteragg_localsearch_sweeps",
		"sample:assign":      "clusteragg_sample:assign",
		"a-b c/2":            "clusteragg_a_b_c_2",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
