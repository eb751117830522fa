package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

// This file is the "ingest" artifact: the CSV reader measured end to end
// (CSV bytes → aggregate labels) in two modes — reading a Table, then
// packing its columns, and the streamed path where the reader packs rows
// straight into the label block, so no Table or []int clustering ever
// materializes. Past its first chunk the reader parses on GOMAXPROCS chunk
// parsers in both modes. The two modes must produce identical labels (the
// run errors out otherwise), so the artifact's gated rows are the
// deterministic facts: row/byte counts, the cluster count, and the Rand
// index against the planted truth. All wall times carry benchdiff-ignored
// suffixes (seconds, time_ratio, throughput): they are recorded for the
// PERFORMANCE.md table, not gated — single-core CI machines cannot hold a
// parallelism ratio.

// ingestSampleSize is the SAMPLING size; explicit so the artifact is
// deterministic and cheap.
const ingestSampleSize = 500

// IngestResult is the "ingest" artifact's outcome.
type IngestResult struct {
	Rows     int
	Attrs    int
	Bytes    int64
	Clusters int
	// Rand is the Rand index of the aggregate against the planted truth
	// carried by the class column.
	Rand float64
	// Per-mode end-to-end wall times (CSV bytes → labels): Seq reads a
	// Table first, Streamed packs rows as they are parsed.
	Seq, Streamed time.Duration
}

// plantedCSVTo streams the huge recipe as CSV: a header row, then n rows of
// hugeM noisy copies of the i%hugeK planted truth (10% noise over hugeK+2
// values, no missing cells) with the truth as a trailing class column — the
// CSV twin of hugeProblem. Deterministic in (n, seed).
func plantedCSVTo(w io.Writer, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	values := make([]string, hugeK+2)
	for v := range values {
		values[v] = fmt.Sprintf("v%03d", v)
	}
	classes := make([]string, hugeK)
	for c := range classes {
		classes[c] = fmt.Sprintf("c%03d", c)
	}
	var row bytes.Buffer
	for a := 0; a < hugeM; a++ {
		fmt.Fprintf(&row, "attr%02d,", a+1)
	}
	row.WriteString("class\n")
	if _, err := w.Write(row.Bytes()); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row.Reset()
		truth := i % hugeK
		for a := 0; a < hugeM; a++ {
			if rng.Float64() < 0.1 {
				row.WriteString(values[rng.Intn(hugeK+2)])
			} else {
				row.WriteString(values[truth])
			}
			row.WriteByte(',')
		}
		row.WriteString(classes[truth])
		row.WriteByte('\n')
		if _, err := w.Write(row.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// ingestDrain is the drain-then-compute path: read the whole CSV into a
// Table, pack the categorical columns, and run SAMPLING.
func ingestDrain(r io.Reader, aggOpts core.AggregateOptions, sOpts core.SamplingOptions) (partition.Labels, partition.Labels, error) {
	t, err := dataset.ReadCSV(r, dataset.CSVOptions{Name: "ingest", HasHeader: true, ClassColumn: "class"})
	if err != nil {
		return nil, nil, err
	}
	cats := t.CategoricalColumns()
	b := core.NewPackedColumns(t.N(), len(cats))
	for _, c := range cats {
		col, err := c.Clustering()
		if err != nil {
			return nil, nil, err
		}
		if err := b.AppendColumn(col); err != nil {
			return nil, nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	labels, err := samplePacked(pc, aggOpts, sOpts)
	return labels, t.Class, err
}

// samplePacked runs the artifact's SAMPLING (over FURTHEST) on a packed
// label block — the compute half every ingest mode shares.
func samplePacked(pc *core.PackedClusterings, aggOpts core.AggregateOptions, sOpts core.SamplingOptions) (partition.Labels, error) {
	p, err := core.NewProblemPacked(pc, core.ProblemOptions{})
	if err != nil {
		return nil, err
	}
	return p.Sample(core.MethodFurthest, aggOpts, sOpts)
}

// ingestSink packs the reader's row stream straight into a
// row-mode PackedBuilder (the internal twin of the root facade's sink,
// without the facade's telemetry trimmings).
type ingestSink struct {
	b     *core.PackedBuilder
	class partition.Labels
}

func (s *ingestSink) Schema(cats []string, hasClass bool) error {
	s.b = core.NewPackedBuilder(len(cats))
	return nil
}

func (s *ingestSink) Rows(lo, hi int, cats [][]int, class []int) error {
	if class != nil {
		s.class = append(s.class, class...)
	}
	return s.b.AppendRows(cats)
}

// ingestStreamed is the streamed path: parsed rows pack straight into the
// label block, which is then sampled like the drained one.
func ingestStreamed(r io.Reader, aggOpts core.AggregateOptions, sOpts core.SamplingOptions) (partition.Labels, partition.Labels, int64, error) {
	sink := &ingestSink{}
	st, err := dataset.ReadCSVStream(r, dataset.CSVOptions{Name: "ingest", HasHeader: true, ClassColumn: "class"}, sink)
	if err != nil {
		return nil, nil, 0, err
	}
	pc, err := sink.b.Build()
	if err != nil {
		return nil, nil, 0, err
	}
	labels, err := samplePacked(pc, aggOpts, sOpts)
	return labels, sink.class, st.Bytes, err
}

// IngestThroughput runs the two ingest modes over the same in-memory CSV
// and verifies they agree label for label. Only the streamed run records
// into cfg.Recorder, so the artifact's counters describe one streamed pass
// (ingest.rows / ingest.bytes / sample.*), not a double-counted sum.
func IngestThroughput(cfg Config) (*IngestResult, error) {
	n := cfg.ingestRows()
	var buf bytes.Buffer
	if err := plantedCSVTo(&buf, n, cfg.seed()); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	res := &IngestResult{
		Rows:  n,
		Attrs: hugeM,
		Bytes: int64(len(data)),
	}
	sOpts := func() core.SamplingOptions {
		return core.SamplingOptions{SampleSize: ingestSampleSize, Rand: rand.New(rand.NewSource(cfg.seed()))}
	}

	var seqLabels, streamLabels, class partition.Labels
	var err error
	res.Seq, err = timeIt(func() (e error) {
		seqLabels, class, e = ingestDrain(bytes.NewReader(data), core.AggregateOptions{Workers: cfg.Workers}, sOpts())
		return e
	})
	if err != nil {
		return nil, err
	}
	var streamBytes int64
	res.Streamed, err = timeIt(func() (e error) {
		streamLabels, _, streamBytes, e = ingestStreamed(bytes.NewReader(data),
			core.AggregateOptions{Workers: cfg.Workers, Recorder: cfg.Recorder}, sOpts())
		return e
	})
	if err != nil {
		return nil, err
	}
	cfg.Recorder.Add("ingest.rows", int64(n))
	cfg.Recorder.Add("ingest.bytes", streamBytes)

	if !slices.Equal(seqLabels, streamLabels) {
		return nil, fmt.Errorf("ingest: labels diverge between the table and the streamed ingest")
	}
	if streamBytes != res.Bytes {
		return nil, fmt.Errorf("ingest: streamed path consumed %d bytes, want %d", streamBytes, res.Bytes)
	}
	res.Clusters = streamLabels.K()
	if res.Rand, err = partition.RandIndex(streamLabels, class); err != nil {
		return nil, err
	}
	return res, nil
}

// String prints the mode table.
func (r *IngestResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ingest — CSV → labels end to end, n=%d, m=%d attributes, %.1f MB\n",
		r.Rows, r.Attrs, float64(r.Bytes)/(1<<20))
	fmt.Fprintf(&b, "%14s %10s %10s\n", "mode", "time(s)", "MB/s")
	mbps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(r.Bytes) / (1 << 20) / d.Seconds()
	}
	fmt.Fprintf(&b, "%14s %10.3f %10.1f\n", "table", r.Seq.Seconds(), mbps(r.Seq))
	fmt.Fprintf(&b, "%14s %10.3f %10.1f\n", "streamed", r.Streamed.Seconds(), mbps(r.Streamed))
	fmt.Fprintf(&b, "labels identical across modes; clusters=%d, Rand index vs planted truth=%.4f\n",
		r.Clusters, r.Rand)
	return b.String()
}
