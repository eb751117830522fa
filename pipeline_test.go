package clusteragg_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusteragg"
	"clusteragg/internal/obs"
)

// pipelineCSV builds a deterministic mixed CSV: three categorical columns
// (one high-cardinality so ids widen), a numeric column the schema must
// exclude, a class column, and a sprinkle of missing cells.
func pipelineCSV(rows int) string {
	rng := rand.New(rand.NewSource(97))
	var b strings.Builder
	b.WriteString("color,shape,tag,num,class\n")
	for i := 0; i < rows; i++ {
		color := fmt.Sprintf("c%d", rng.Intn(5))
		shape := fmt.Sprintf("s%d", rng.Intn(4))
		tag := fmt.Sprintf("t%d", rng.Intn(300)) // id range past uint8
		if rng.Intn(17) == 0 {
			color = "?"
		}
		if rng.Intn(23) == 0 {
			shape = ""
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d.5,%s\n", color, shape, tag, i, []string{"A", "B"}[i%2])
	}
	return b.String()
}

func runCSV(t *testing.T, csv string, opts clusteragg.CSVOptions) *clusteragg.CSVResult {
	t.Helper()
	res, err := clusteragg.AggregateCSV(strings.NewReader(csv), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, name string, got, want *clusteragg.CSVResult) {
	t.Helper()
	if !slices.Equal(got.Labels, want.Labels) {
		t.Errorf("%s: labels diverge", name)
	}
	if !slices.Equal(got.Class, want.Class) {
		t.Errorf("%s: class labels diverge", name)
	}
	if got.Disagreement != want.Disagreement || got.LowerBound != want.LowerBound {
		t.Errorf("%s: cost %v/%v, want %v/%v", name, got.Disagreement, got.LowerBound, want.Disagreement, want.LowerBound)
	}
	if got.Attributes != want.Attributes || got.Rows != want.Rows || got.BytesRead != want.BytesRead {
		t.Errorf("%s: attrs/rows/bytes %d/%d/%d, want %d/%d/%d", name,
			got.Attributes, got.Rows, got.BytesRead, want.Attributes, want.Rows, want.BytesRead)
	}
}

// TestAggregateCSVPipelinedEquiv: the streamed ingest path (parallel
// chunked reader packing rows straight into the label block) must
// reproduce the read-everything-first path bit for bit — labels, class
// column, costs, and byte counts — at every ingest worker count, in the
// default-seed and seeded configurations.
func TestAggregateCSVPipelinedEquiv(t *testing.T) {
	csv := pipelineCSV(500)
	cases := []struct {
		name string
		mod  func(*clusteragg.CSVOptions)
	}{
		{"sampled", func(o *clusteragg.CSVOptions) { o.SampleSize = 30 }},
		{"seeded", func(o *clusteragg.CSVOptions) { o.SampleSize = 30; o.SampleSeed = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(ingest int) clusteragg.CSVOptions {
				o := clusteragg.CSVOptions{
					HasHeader:     true,
					ClassColumn:   "class",
					Method:        clusteragg.MethodAgglomerative,
					IngestWorkers: ingest,
				}
				tc.mod(&o)
				return o
			}
			want := runCSV(t, csv, mk(0))
			if want.Rows != 500 || int(want.BytesRead) != len(csv) {
				t.Fatalf("sequential read %d rows / %d bytes, want 500 / %d", want.Rows, want.BytesRead, len(csv))
			}
			for _, workers := range []int{1, 2, 8} {
				sameResult(t, fmt.Sprintf("ingest-workers=%d", workers), runCSV(t, csv, mk(workers)), want)
			}
		})
	}
}

// TestAggregateCSVParallelIngestExact: outside SAMPLING the parallel reader
// feeds the classic drain-then-aggregate path and must change nothing.
func TestAggregateCSVParallelIngestExact(t *testing.T) {
	csv := pipelineCSV(120)
	mk := func(ingest int) clusteragg.CSVOptions {
		return clusteragg.CSVOptions{
			HasHeader:     true,
			ClassColumn:   "class",
			Method:        clusteragg.MethodFurthest,
			IngestWorkers: ingest,
		}
	}
	want := runCSV(t, csv, mk(0))
	sameResult(t, "exact ingest-workers=3", runCSV(t, csv, mk(3)), want)
}

// TestAggregateCSVPipelineTelemetry: the streamed run must record ingest
// counters matching the byte/row ground truth, an ingest lane and the
// sample span under the pipeline span, and an ingest-throughput series.
func TestAggregateCSVPipelineTelemetry(t *testing.T) {
	csv := pipelineCSV(300)
	rec := clusteragg.NewRecorder()
	res := runCSV(t, csv, clusteragg.CSVOptions{
		HasHeader:     true,
		ClassColumn:   "class",
		Method:        clusteragg.MethodAgglomerative,
		SampleSize:    25,
		IngestWorkers: 2,
		Options:       clusteragg.AggregateOptions{Recorder: rec},
	})
	c := rec.Counters()
	if c["ingest.rows"] != 300 {
		t.Errorf("ingest.rows = %d, want 300", c["ingest.rows"])
	}
	if c["ingest.bytes"] != res.BytesRead || int(c["ingest.bytes"]) != len(csv) {
		t.Errorf("ingest.bytes = %d, want %d", c["ingest.bytes"], len(csv))
	}
	if c["sample.size"] != 25 {
		t.Errorf("sample.size = %d, want 25", c["sample.size"])
	}
	if _, ok := rec.AllSeries()["ingest.throughput"]; !ok {
		t.Error("ingest.throughput series missing")
	}
	var pipeline, ingest, sample bool
	var walk func(spans []obs.SpanSnapshot, parent string)
	walk = func(spans []obs.SpanSnapshot, parent string) {
		for _, s := range spans {
			switch {
			case s.Name == "pipeline":
				pipeline = true
			case s.Name == "ingest" && parent == "pipeline":
				ingest = true
			case s.Name == "sample" && parent == "pipeline":
				sample = true
			}
			walk(s.Children, s.Name)
		}
	}
	walk(rec.Spans(), "")
	if !pipeline || !ingest || !sample {
		t.Errorf("span structure incomplete: pipeline=%v ingest=%v sample=%v", pipeline, ingest, sample)
	}
}

// TestAggregateCSVPipelinedErrors: error cases must surface through the
// streamed path exactly as through the sequential one.
func TestAggregateCSVPipelinedErrors(t *testing.T) {
	for _, tc := range []struct{ name, csv string }{
		{"empty", ""},
		{"numeric-only", "1\n2\n3\n"},
		{"ragged", "a,b\nx\ny,q\n"},
	} {
		seqOpts := clusteragg.CSVOptions{SampleSize: 10}
		pipeOpts := clusteragg.CSVOptions{SampleSize: 10, IngestWorkers: 2}
		_, seqErr := clusteragg.AggregateCSV(strings.NewReader(tc.csv), seqOpts)
		_, pipeErr := clusteragg.AggregateCSV(strings.NewReader(tc.csv), pipeOpts)
		if seqErr == nil || pipeErr == nil {
			t.Errorf("%s: errors = %v / %v, want both non-nil", tc.name, seqErr, pipeErr)
			continue
		}
		if seqErr.Error() != pipeErr.Error() {
			t.Errorf("%s: streamed error %q, sequential %q", tc.name, pipeErr, seqErr)
		}
	}
}

// TestAggregateCSVNegativeOptions: negative counts are rejected with
// ErrNegativeOption on the sequential and the streamed path alike, instead
// of silently selecting the exact aggregation or the sequential reader.
func TestAggregateCSVNegativeOptions(t *testing.T) {
	csv := pipelineCSV(40)
	for _, tc := range []struct {
		name string
		opts clusteragg.CSVOptions
	}{
		{"sample/sequential", clusteragg.CSVOptions{SampleSize: -5}},
		{"sample/streamed", clusteragg.CSVOptions{SampleSize: -5, IngestWorkers: 2}},
		{"ingest-workers/exact", clusteragg.CSVOptions{IngestWorkers: -3}},
		{"ingest-workers/sampled", clusteragg.CSVOptions{SampleSize: 10, IngestWorkers: -3}},
	} {
		tc.opts.HasHeader = true
		_, err := clusteragg.AggregateCSV(strings.NewReader(csv), tc.opts)
		if !errors.Is(err, clusteragg.ErrNegativeOption) {
			t.Errorf("%s: error %v, want ErrNegativeOption", tc.name, err)
		}
	}
}
