package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the opt-in HTTP exposition of a Recorder: Prometheus text on
// /metrics, the convergence series on /series, the event tail on /logs, and
// the runtime/pprof handlers on /debug/pprof/. Each observation has exactly
// one exposition here; nothing here runs unless Serve is called (the
// CLIs' -listen flag), so a run without it pays nothing. A scrape locks the
// registry only against concurrent metric *registration* — metric writes
// are plain atomic ops that take no lock and are never blocked by a scrape
// — and reads every value in a single pass of atomic loads, so a snapshot
// is consistent per metric and costs the instrumented run nothing.

// MetricsServer is a live metrics endpoint bound to a Recorder. The bound
// recorder is swappable (SetRecorder), so a process that uses one recorder
// per run — cmd/experiments runs one per artifact — exposes whichever run is
// current.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
	rec atomic.Pointer[Recorder]
	// scrapeDelay, when set, runs inside the /metrics handler before the
	// response is written. Test hook: the graceful-Close test uses it to
	// hold a scrape in flight across Close.
	scrapeDelay atomic.Pointer[func()]
}

// Serve starts an HTTP server on addr (host:port; ":0" picks a free port)
// exposing rec. Endpoints:
//
//	/metrics      Prometheus text: counters (…_total) and gauges, the
//	              runtime.* gauges of a RuntimeSampler among them
//	/series       JSON convergence time-series of the bound recorder
//	              ({"series": {name: {points, count, stride}}}); safe to
//	              scrape while the run is appending
//	/logs         JSON structured event log ({"events": {count, entries}});
//	              safe to scrape while the run is emitting
//	/debug/pprof/ the standard runtime profiling handlers
//
// It returns once the listener is bound; requests are served on a
// background goroutine until Close. rec may be nil (endpoints then expose
// an empty registry) and may be swapped later with SetRecorder.
func Serve(addr string, rec *Recorder) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &MetricsServer{ln: ln}
	s.rec.Store(rec)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if delay := s.scrapeDelay.Load(); delay != nil {
			(*delay)()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, s.recorder())
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		all := s.recorder().AllSeries()
		if all == nil {
			all = map[string]SeriesSnapshot{}
		}
		writeJSONBody(w, map[string]any{"series": all})
	})
	mux.HandleFunc("/logs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ev := s.recorder().EventsSnapshot()
		if ev == nil {
			ev = &EventsSnapshot{}
		}
		writeJSONBody(w, map[string]any{"events": ev})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Close's ErrServerClosed is expected
	return s, nil
}

// Addr returns the server's bound address (resolving a requested ":0").
func (s *MetricsServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// recorder returns the currently bound recorder (possibly nil).
func (s *MetricsServer) recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec.Load()
}

// SetRecorder rebinds the server to rec. Safe concurrently with scrapes.
func (s *MetricsServer) SetRecorder(rec *Recorder) {
	if s == nil {
		return
	}
	s.rec.Store(rec)
}

// closeDrainTimeout bounds how long Close waits for in-flight scrapes: long
// enough for any real /metrics or /series response, short enough that a
// CLI's deferred Close never hangs noticeably on a stuck client.
const closeDrainTimeout = 2 * time.Second

// Close shuts the server down gracefully: the listener closes immediately
// (no new scrapes) and in-flight requests get closeDrainTimeout to finish
// before the remaining connections are force-closed — a Prometheus scrape
// racing a run's exit completes instead of seeing a mid-response reset. A
// nil receiver is a no-op, so CLIs can defer Close unconditionally.
func (s *MetricsServer) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeDrainTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// The drain deadline expired; fall back to the hard close.
		return s.srv.Close()
	}
	return nil
}

// writeJSONBody encodes v to w; encoding a marshalable value to an HTTP
// response can only fail on a dropped connection, which has no useful
// recovery.
func writeJSONBody(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck
}

// promName maps a registry name to a valid Prometheus metric name:
// prefixed with the subsystem, dots and other invalid runes to underscores
// ("localsearch.sweeps" → "clusteragg_localsearch_sweeps").
func promName(name string) string {
	var b strings.Builder
	b.WriteString("clusteragg_")
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the way Prometheus text expects (+Inf spelled
// out).
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the recorder's metrics in the Prometheus text
// exposition format (version 0.0.4): every counter as a _total counter and
// every gauge as a gauge. Families are sorted by name, so output order is
// deterministic. A nil recorder writes nothing.
func WritePrometheus(w io.Writer, rec *Recorder) {
	if rec == nil {
		return
	}
	counters := rec.Counters()
	for _, name := range sortedKeys(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}
	gauges := rec.Gauges()
	for _, name := range sortedKeys(gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(gauges[name]))
	}
}
