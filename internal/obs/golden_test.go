package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// populate fills a recorder with the same values in the given key order.
func populate(r *Recorder, order []string) {
	for _, k := range order {
		switch k {
		case "moves":
			r.Add("localsearch.moves", 12)
		case "merges":
			r.Add("agglomerative.merges", 3)
		case "alpha":
			r.SetGauge("alpha", -2)
		case "z":
			r.SetGauge("z", 1.5)
		case "cost":
			s := r.Series("localsearch.cost")
			s.Append(0, 9)
			s.Append(1, 5)
		case "events":
			r.Event("sample.shards", "shards", 2, "target", 8)
			r.Event("ls.refresh", "sweep", 1)
		}
	}
}

// TestWriteTextGolden pins WriteText byte-for-byte: sections and keys sort
// deterministically, so registration order must not leak into the output.
// Spans are omitted — their durations are wall clock and cannot be golden.
func TestWriteTextGolden(t *testing.T) {
	const want = `counters:
  agglomerative.merges            3
  localsearch.moves              12
gauges:
  alpha           -2
  z              1.5
series:
  localsearch.cost points=2 count=2 last=5
events (2 total, 2 retained):
  INFO  sample.shards shards=2 target=8
  INFO  ls.refresh sweep=1
`
	a, b := New(), New()
	populate(a, []string{"moves", "merges", "alpha", "z", "cost", "events"})
	populate(b, []string{"events", "cost", "z", "alpha", "merges", "moves"})
	var outA, outB strings.Builder
	if err := a.WriteText(&outA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteText(&outB); err != nil {
		t.Fatal(err)
	}
	if outA.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", outA.String(), want)
	}
	if outA.String() != outB.String() {
		t.Errorf("registration order leaked into output:\n%s\nvs\n%s", outA.String(), outB.String())
	}
}

// TestRunReportJSONGolden pins the report encoding byte-for-byte: map keys
// marshal sorted, series and event snapshots keep their field order, and
// the same metric values always produce the same bytes regardless of how the
// recorder was populated.
func TestRunReportJSONGolden(t *testing.T) {
	const want = `{"schema_version":6,"n":4,"cost":9,"wall_ns":0,` +
		`"alloc":{"bytes":4096,"mallocs":17,"peak_heap_bytes":65536},` +
		`"counters":{"agglomerative.merges":3,"localsearch.moves":12},` +
		`"gauges":{"alpha":-2,"z":1.5},` +
		`"series":{"localsearch.cost":{"points":` +
		`[{"step":0,"wall_ns":0,"value":9},{"step":1,"wall_ns":0,"value":5}],` +
		`"count":2,"stride":1}},` +
		`"events":{"count":2,"entries":[` +
		`{"seq":1,"wall_ns":0,"level":"INFO","msg":"sample.shards",` +
		`"attrs":{"shards":"2","target":"8"}},` +
		`{"seq":2,"wall_ns":0,"level":"INFO","msg":"ls.refresh",` +
		`"attrs":{"sweep":"1"}}]}}`
	for _, order := range [][]string{
		{"moves", "merges", "alpha", "z", "cost", "events"},
		{"events", "cost", "z", "alpha", "merges", "moves"},
	} {
		r := New()
		populate(r, order)
		rep := RunReport{N: 4, Cost: 9,
			Alloc: &AllocStats{Bytes: 4096, Mallocs: 17, PeakHeapBytes: 65536}}
		rep.FillFrom(r)
		// Point wall offsets and event stamps are wall clock and cannot be
		// golden; zero them.
		for k, ss := range rep.Series {
			for i := range ss.Points {
				ss.Points[i].WallNS = 0
			}
			rep.Series[k] = ss
		}
		for i := range rep.Events.Entries {
			rep.Events.Entries[i].WallNS = 0
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("order %v:\n%s\nwant:\n%s", order, data, want)
		}
	}
}

// TestReportBackCompat pins that schema-1 through -4 report bytes still
// decode: sections those versions predate come back as their zero values,
// and the histograms section that versions 2–5 carry (dropped in version 6)
// is skipped without error.
func TestReportBackCompat(t *testing.T) {
	const v1 = `{"schema_version":1,"n":4,"cost":9,"wall_ns":7,` +
		`"counters":{"localsearch.moves":12},` +
		`"spans":[{"name":"aggregate","duration_ns":5}]}`
	const v2 = `{"schema_version":2,"n":4,"cost":9,"wall_ns":7,` +
		`"counters":{"localsearch.moves":12},"gauges":{"alpha":-2},` +
		`"histograms":{"lat":{"bounds":[1,2],"counts":[1,0,1],"count":2,"sum":4}}}`
	const v3 = `{"schema_version":3,"n":4,"cost":9,"wall_ns":7,` +
		`"counters":{"localsearch.moves":12},` +
		`"series":{"localsearch.cost":{"points":` +
		`[{"step":0,"wall_ns":0,"value":9}],"count":1,"stride":1}}}`
	const v4 = `{"schema_version":4,"n":4,"cost":9,"wall_ns":7,` +
		`"alloc":{"bytes":4096,"mallocs":17,"peak_heap_bytes":65536},` +
		`"counters":{"localsearch.moves":12}}`
	for name, data := range map[string]string{"v1": v1, "v2": v2, "v3": v3, "v4": v4} {
		var r RunReport
		if err := json.Unmarshal([]byte(data), &r); err != nil {
			t.Fatalf("%s report no longer parses: %v", name, err)
		}
		if r.N != 4 || r.Cost != 9 || r.Counters["localsearch.moves"] != 12 {
			t.Errorf("%s report lost fields: %+v", name, r)
		}
		if name == "v2" && r.Gauges["alpha"] != -2 {
			t.Errorf("v2 report lost the gauges beside its histograms section: %+v", r.Gauges)
		}
		if name != "v3" && r.Series != nil {
			t.Errorf("%s report grew a series section from nowhere: %+v", name, r.Series)
		}
		if name != "v4" && r.Alloc != nil {
			t.Errorf("%s report grew an alloc section from nowhere: %+v", name, r.Alloc)
		}
		if r.Events != nil {
			t.Errorf("%s report grew an events section from nowhere: %+v", name, r.Events)
		}
	}
}
