package main

import (
	"bytes"
	"strings"
	"testing"

	"clusteragg/internal/dataset"
)

func TestRunUnknownDataset(t *testing.T) {
	if err := run(&bytes.Buffer{}, genConfig{name: "nope", seed: 1}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRoundTripVotes(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, genConfig{name: "votes", seed: 1}); err != nil {
		t.Fatal(err)
	}
	tab, err := dataset.ReadCSV(&buf, dataset.CSVOptions{
		HasHeader:   true,
		ClassColumn: "class",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 435 {
		t.Errorf("round-trip N = %d, want 435", tab.N())
	}
	if got := len(tab.CategoricalColumns()); got != 16 {
		t.Errorf("round-trip columns = %d, want 16", got)
	}
	if got := tab.MissingTotal(); got != 288 {
		t.Errorf("round-trip missing = %d, want 288", got)
	}
	if len(tab.ClassNames) != 2 {
		t.Errorf("round-trip classes = %v", tab.ClassNames)
	}
}

func TestRoundTripCensusNumericColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, genConfig{name: "census", seed: 1, rows: 200}); err != nil {
		t.Fatal(err)
	}
	tab, err := dataset.ReadCSV(&buf, dataset.CSVOptions{
		HasHeader:   true,
		ClassColumn: "class",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 200 {
		t.Errorf("N = %d", tab.N())
	}
	if tab.Column("age") == nil || tab.Column("age").Kind != dataset.Numeric {
		t.Error("age column not numeric after round trip")
	}
	if got := len(tab.CategoricalColumns()); got != 8 {
		t.Errorf("categorical columns = %d, want 8", got)
	}
}

func TestStreamPlantedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := genConfig{name: "planted", seed: 3, rows: 2000, attrs: 5, k: 4, noise: 0.1, missing: 0.05}
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	tab, err := dataset.ReadCSV(bytes.NewReader(buf.Bytes()), dataset.CSVOptions{
		HasHeader:   true,
		ClassColumn: "class",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 2000 {
		t.Errorf("N = %d, want 2000", tab.N())
	}
	if got := len(tab.CategoricalColumns()); got != 5 {
		t.Errorf("categorical columns = %d, want 5", got)
	}
	if len(tab.ClassNames) != 4 {
		t.Errorf("classes = %v, want 4 planted groups", tab.ClassNames)
	}
	if tab.MissingTotal() == 0 {
		t.Error("missing probability 0.05 produced no ? cells")
	}
	// The planted structure must be recoverable: rows i and i+k sit in the
	// same planted group, so their attribute values agree except where
	// noise or missingness hit (clean² ≈ 0.85² ≈ 0.72 expected here).
	cs, err := tab.Clusterings()
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for _, c := range cs {
		for i := 0; i+4 < len(c); i++ {
			if c[i] < 0 || c[i+4] < 0 {
				continue
			}
			total++
			if c[i] == c[i+4] {
				agree++
			}
		}
	}
	if total == 0 || float64(agree)/float64(total) < 0.6 {
		t.Errorf("planted structure too weak: %d/%d same-group cell pairs agree", agree, total)
	}
}

func TestStreamPlantedDeterministicAndValidated(t *testing.T) {
	gen := func() string {
		var buf bytes.Buffer
		if err := run(&buf, genConfig{name: "planted", seed: 9, rows: 500, attrs: 3, k: 5, noise: 0.2}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if gen() != gen() {
		t.Error("same seed produced different planted streams")
	}
	lines := strings.Split(strings.TrimSpace(gen()), "\n")
	if len(lines) != 501 {
		t.Errorf("planted stream has %d lines, want 501 (header + 500 rows)", len(lines))
	}
	if lines[0] != "attr01,attr02,attr03,class" {
		t.Errorf("header = %q", lines[0])
	}
	for _, bad := range []genConfig{
		{name: "planted", rows: 0, attrs: 3, k: 5},
		{name: "planted", rows: 10, attrs: 0, k: 5},
		{name: "planted", rows: 10, attrs: 3, k: 0},
		{name: "planted", rows: 10, attrs: 3, k: 5, noise: 1.5},
		{name: "planted", rows: 10, attrs: 3, k: 5, missing: -0.1},
	} {
		if err := run(&bytes.Buffer{}, bad); err == nil {
			t.Errorf("invalid planted config %+v accepted", bad)
		}
	}
}

// withChunkRows shrinks the chunked generator's granularity so small tests
// cross many chunk boundaries.
func withChunkRows(t *testing.T, rows int) {
	t.Helper()
	old := plantedChunkRows
	plantedChunkRows = rows
	t.Cleanup(func() { plantedChunkRows = old })
}

// TestStreamPlantedChunkedDeterministic: -workers > 1 output must depend
// only on the flags — identical at every worker count, across runs, and at
// exact chunk-boundary row counts.
func TestStreamPlantedChunkedDeterministic(t *testing.T) {
	withChunkRows(t, 128)
	gen := func(rows, workers int) string {
		var buf bytes.Buffer
		cfg := genConfig{name: "planted", seed: 11, rows: rows, attrs: 4, k: 6, noise: 0.15, missing: 0.02, workers: workers}
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, rows := range []int{100, 256, 300, 1000} { // below one chunk, exact boundary, ragged, many chunks
		want := gen(rows, 2)
		for _, workers := range []int{3, 4, 8} {
			if got := gen(rows, workers); got != want {
				t.Errorf("rows=%d: workers=%d bytes diverge from workers=2", rows, workers)
			}
		}
		if gen(rows, 3) != gen(rows, 3) {
			t.Errorf("rows=%d: same flags produced different chunked streams", rows)
		}
		if lines := strings.Split(strings.TrimSpace(want), "\n"); len(lines) != rows+1 {
			t.Errorf("rows=%d: chunked stream has %d lines, want %d", rows, len(lines), rows+1)
		}
	}
}

// TestStreamPlantedChunkedRoundTrip: the chunked stream must carry the same
// schema and planted structure as the sequential one and read back through
// the CSV reader.
func TestStreamPlantedChunkedRoundTrip(t *testing.T) {
	withChunkRows(t, 128)
	cfg := genConfig{name: "planted", seed: 3, rows: 700, attrs: 5, k: 4, noise: 0.1, missing: 0.05, workers: 4}
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	opts := dataset.CSVOptions{HasHeader: true, ClassColumn: "class"}
	tab, err := dataset.ReadCSV(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 700 {
		t.Errorf("N = %d, want 700", tab.N())
	}
	if got := len(tab.CategoricalColumns()); got != 5 {
		t.Errorf("categorical columns = %d, want 5", got)
	}
	if len(tab.ClassNames) != 4 {
		t.Errorf("classes = %v, want 4 planted groups", tab.ClassNames)
	}
	if tab.MissingTotal() == 0 {
		t.Error("missing probability 0.05 produced no ? cells")
	}
	if _, err := tab.Clusterings(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVHeaderAndMissing(t *testing.T) {
	var buf bytes.Buffer
	tab := dataset.SyntheticVotes(2)
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.HasPrefix(lines[0], "issue01,") || !strings.HasSuffix(lines[0], ",class") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(buf.String(), "?") {
		t.Error("missing values not written as ?")
	}
}
