package clusteragg_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusteragg"
	"clusteragg/internal/dataset"
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

// referenceCSV computes AggregateCSV's result the long way: read the whole
// table, pack its categorical columns one clustering at a time, then
// aggregate or sample. AggregateCSV streams rows into the packed block
// instead and must match it exactly.
func referenceCSV(csv string, opts clusteragg.CSVOptions) (*clusteragg.CSVResult, error) {
	t, err := dataset.ReadCSV(strings.NewReader(csv), dataset.CSVOptions{
		HasHeader:   opts.HasHeader,
		ClassColumn: opts.ClassColumn,
	})
	if err != nil {
		return nil, err
	}
	cats := t.CategoricalColumns()
	if len(cats) == 0 {
		return nil, errors.New("clusteragg: csv input has no categorical columns")
	}
	b := clusteragg.NewPackedColumns(t.N(), len(cats))
	for _, c := range cats {
		labels, err := c.Clustering()
		if err != nil {
			return nil, err
		}
		if err := b.AppendColumn(labels); err != nil {
			return nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, err
	}
	problem, err := clusteragg.NewProblemPacked(pc, clusteragg.ProblemOptions{})
	if err != nil {
		return nil, err
	}
	var labels clusteragg.Labels
	if opts.SampleSize > 0 {
		seed := opts.SampleSeed
		if seed == 0 {
			seed = 1
		}
		labels, err = problem.Sample(opts.Method, opts.Options, clusteragg.SamplingOptions{
			SampleSize: opts.SampleSize,
			Rand:       rand.New(rand.NewSource(seed)),
		})
	} else {
		labels, err = problem.Aggregate(opts.Method, opts.Options)
	}
	if err != nil {
		return nil, err
	}
	return &clusteragg.CSVResult{
		Labels:       labels,
		Class:        t.Class,
		Disagreement: problem.Disagreement(labels),
		LowerBound:   problem.LowerBound(),
		Attributes:   problem.M(),
		Rows:         t.N(),
		BytesRead:    t.BytesRead,
	}, nil
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

// matchesReference runs AggregateCSV and checks it against referenceCSV.
func matchesReference(t *testing.T, name, csv string, opts clusteragg.CSVOptions) *clusteragg.CSVResult {
	t.Helper()
	want, err := referenceCSV(csv, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got := runCSV(t, csv, opts)
	sameResult(t, name, got, want)
	return got
}

// TestAggregateCSVPipelinedEquiv: streaming rows into the packed label
// block must reproduce the read-everything-first reference bit for bit —
// labels, class column, costs, and byte counts — in the default-seed and
// seeded SAMPLING configurations, at Workers 1 and 2.
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
			for _, workers := range []int{1, 2} {
				o := clusteragg.CSVOptions{
					HasHeader:   true,
					ClassColumn: "class",
					Method:      clusteragg.MethodAgglomerative,
					Options:     clusteragg.AggregateOptions{Workers: workers},
				}
				tc.mod(&o)
				res := matchesReference(t, fmt.Sprintf("workers=%d", workers), csv, o)
				if res.Rows != 500 || int(res.BytesRead) != len(csv) {
					t.Fatalf("read %d rows / %d bytes, want 500 / %d", res.Rows, res.BytesRead, len(csv))
				}
			}
		})
	}
}

// TestAggregateCSVParallelIngestExact: outside SAMPLING the streamed rows
// feed the exact aggregation and must change nothing against the
// reference.
func TestAggregateCSVParallelIngestExact(t *testing.T) {
	matchesReference(t, "exact", pipelineCSV(120), clusteragg.CSVOptions{
		HasHeader:   true,
		ClassColumn: "class",
		Method:      clusteragg.MethodFurthest,
	})
}

// TestAggregateCSVPipelineTelemetry: a run must record ingest counters
// matching the byte/row ground truth, an ingest lane under the pipeline
// span (with the sample span beside it when sampling), and an
// ingest-throughput series.
func TestAggregateCSVPipelineTelemetry(t *testing.T) {
	csv := pipelineCSV(300)
	for _, sampleSize := range []int{25, 0} {
		rec := clusteragg.NewRecorder()
		res := runCSV(t, csv, clusteragg.CSVOptions{
			HasHeader:   true,
			ClassColumn: "class",
			Method:      clusteragg.MethodAgglomerative,
			SampleSize:  sampleSize,
			Options:     clusteragg.AggregateOptions{Recorder: rec},
		})
		c := rec.Counters()
		if c["ingest.rows"] != 300 {
			t.Errorf("sample=%d: ingest.rows = %d, want 300", sampleSize, c["ingest.rows"])
		}
		if c["ingest.bytes"] != res.BytesRead || int(c["ingest.bytes"]) != len(csv) {
			t.Errorf("sample=%d: ingest.bytes = %d, want %d", sampleSize, c["ingest.bytes"], len(csv))
		}
		if c["sample.size"] != int64(sampleSize) {
			t.Errorf("sample.size = %d, want %d", c["sample.size"], sampleSize)
		}
		if _, ok := rec.AllSeries()["ingest.throughput"]; !ok {
			t.Errorf("sample=%d: ingest.throughput series missing", sampleSize)
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
		if !pipeline || !ingest || sample != (sampleSize > 0) {
			t.Errorf("sample=%d: span structure pipeline=%v ingest=%v sample=%v", sampleSize, pipeline, ingest, sample)
		}
	}
}

// TestAggregateCSVPipelinedErrors: error cases must surface exactly as the
// reference reports them, exact and sampled; an input without categorical
// columns names the input, not an empty table name.
func TestAggregateCSVPipelinedErrors(t *testing.T) {
	for _, tc := range []struct{ name, csv, want string }{
		{"empty", "", "dataset: empty csv input"},
		{"numeric-only", "1\n2\n3\n", "clusteragg: csv input has no categorical columns"},
		{"ragged", "a,b\nx\ny,q\n", "dataset: reading csv: record on line 2: wrong number of fields"},
	} {
		for _, sampleSize := range []int{0, 10} {
			opts := clusteragg.CSVOptions{SampleSize: sampleSize}
			_, err := clusteragg.AggregateCSV(strings.NewReader(tc.csv), opts)
			_, refErr := referenceCSV(tc.csv, opts)
			if err == nil || err.Error() != tc.want || refErr == nil || refErr.Error() != tc.want {
				t.Errorf("%s sample=%d: error %v (reference %v), want %q", tc.name, sampleSize, err, refErr, tc.want)
			}
		}
	}
}

// TestAggregateCSVNegativeOptions: a negative sample size is rejected with
// ErrNegativeOption instead of silently selecting the exact aggregation.
func TestAggregateCSVNegativeOptions(t *testing.T) {
	csv := pipelineCSV(40)
	for _, opts := range []clusteragg.CSVOptions{
		{HasHeader: true, SampleSize: -5},
		{HasHeader: true, SampleSize: -5, Method: clusteragg.MethodFurthest},
	} {
		_, err := clusteragg.AggregateCSV(strings.NewReader(csv), opts)
		if !errors.Is(err, clusteragg.ErrNegativeOption) {
			t.Errorf("%+v: error %v, want ErrNegativeOption", opts, err)
		}
	}
}
