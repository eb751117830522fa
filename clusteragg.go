package clusteragg

// This file is the library's public API. The implementation lives under
// internal/; the facade re-exports the aggregation framework, the partition
// primitives, and a CSV convenience entry point so downstream modules can
// depend on a single import path:
//
//	problem, _ := clusteragg.NewProblem(inputs, clusteragg.ProblemOptions{})
//	labels, _ := problem.Aggregate(clusteragg.MethodAgglomerative, clusteragg.AggregateOptions{})

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// Labels is a clustering: one cluster label per object. Label Missing marks
// objects a clustering carries no information about.
type Labels = partition.Labels

// Missing is the label of objects a clustering says nothing about.
const Missing = partition.Missing

// Distance returns the Mirkin distance between two clusterings: the number
// of unordered object pairs on which they disagree.
func Distance(a, b Labels) (int, error) { return partition.Distance(a, b) }

// RandIndex returns the fraction of unordered pairs two clusterings agree
// on.
func RandIndex(a, b Labels) (float64, error) { return partition.RandIndex(a, b) }

// Problem is a clustering-aggregation instance over m input clusterings.
type Problem = core.Problem

// ProblemOptions configures NewProblem (missing-value model, weights).
type ProblemOptions = core.ProblemOptions

// NewProblem validates the input clusterings and builds an aggregation
// problem. The labels are packed into the same block NewProblemPacked takes
// (so they must lie below 2³¹−1) and the slices are not retained.
func NewProblem(clusterings []Labels, opts ProblemOptions) (*Problem, error) {
	return core.NewProblem(clusterings, opts)
}

// PackedClusterings is the width-packed columnar label block: the same m
// clusterings a []Labels slice would hold, stored row-major at the
// narrowest integer width the label range needs (1, 2, or 4 bytes). Build
// one with NewPackedBuilder or NewPackedColumns and hand it to
// NewProblemPacked; results are bit-identical to the []Labels constructor.
type PackedClusterings = core.PackedClusterings

// PackedBuilder streams labels into a PackedClusterings, widening the
// storage in place as larger labels arrive.
type PackedBuilder = core.PackedBuilder

// NewPackedBuilder returns a row-streaming builder over m clusterings:
// append one object's m labels at a time with AppendRow.
func NewPackedBuilder(m int) *PackedBuilder { return core.NewPackedBuilder(m) }

// NewPackedColumns returns a column-streaming builder for n objects over m
// clusterings: append one whole clustering at a time with AppendColumn, so
// each input column can be released as soon as it is packed.
func NewPackedColumns(n, m int) *PackedBuilder { return core.NewPackedColumns(n, m) }

// NewProblemPacked builds an aggregation problem directly over a packed
// label block — no []Labels inputs ever materialize. See PERFORMANCE.md's
// memory-budget section for when this matters.
func NewProblemPacked(pc *PackedClusterings, opts ProblemOptions) (*Problem, error) {
	return core.NewProblemPacked(pc, opts)
}

// MissingMode selects the missing-value strategy of Section 2 of the paper.
type MissingMode = core.MissingMode

// Missing-value strategies.
const (
	// MissingCoin is the paper's adopted coin model (default).
	MissingCoin = core.MissingCoin
	// MissingAverage lets the remaining attributes decide.
	MissingAverage = core.MissingAverage
)

// Method identifies an aggregation algorithm.
type Method = core.Method

// The paper's five aggregation algorithms plus the two documented
// extensions.
const (
	MethodBest          = core.MethodBest
	MethodBalls         = core.MethodBalls
	MethodAgglomerative = core.MethodAgglomerative
	MethodFurthest      = core.MethodFurthest
	MethodLocalSearch   = core.MethodLocalSearch
	MethodPivot         = core.MethodPivot
	MethodAnneal        = core.MethodAnneal
)

// Methods lists the paper's five aggregation methods in paper order.
func Methods() []Method { return core.Methods() }

// ExtensionMethods lists the methods implemented beyond the paper.
func ExtensionMethods() []Method { return core.ExtensionMethods() }

// AggregateOptions tunes Problem.Aggregate.
type AggregateOptions = core.AggregateOptions

// Alpha returns a pointer to a, for setting AggregateOptions.BallsAlpha
// inline (nil means the Theorem 1 default of 1/4; an explicit 0 is legal).
func Alpha(a float64) *float64 { return core.Alpha(a) }

// SamplingOptions configures the SAMPLING wrapper for large datasets.
type SamplingOptions = core.SamplingOptions

// Recorder collects spans and counters from an instrumented run; attach one
// via AggregateOptions.Recorder / SamplingOptions.Recorder. See
// internal/obs and docs/OBSERVABILITY.md.
type Recorder = obs.Recorder

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return obs.New() }

// RunReport is the machine-readable record of one run (the clusteragg
// -report schema).
type RunReport = obs.RunReport

// CSVOptions configures AggregateCSV.
type CSVOptions struct {
	// HasHeader treats the first record as column names.
	HasHeader bool
	// ClassColumn names a column to exclude from clustering (typically a
	// class label kept for evaluation). Requires HasHeader.
	ClassColumn string
	// Method selects the aggregation algorithm. The zero value is
	// MethodBest (the paper's first algorithm); most callers want
	// MethodAgglomerative or MethodLocalSearch.
	Method Method
	// Options tunes the aggregation.
	Options AggregateOptions
	// SampleSize, when positive, switches to the SAMPLING algorithm with
	// this sample size. Negative values are rejected (ErrNegativeOption).
	SampleSize int
	// SampleSeed seeds the SAMPLING randomness (0 = seed 1, matching
	// SamplingOptions.Rand's default). Ignored outside SAMPLING.
	SampleSeed int64
}

// ErrNegativeOption is returned, wrapped with the offending field, when a
// CSVOptions count that must be non-negative is negative.
var ErrNegativeOption = errors.New("clusteragg: negative option")

// CSVResult is the outcome of AggregateCSV.
type CSVResult struct {
	// Labels is the aggregate clustering of the rows.
	Labels Labels
	// Class holds the class column's labels when one was designated.
	Class Labels
	// Disagreement and LowerBound are the objective value and its trivial
	// lower bound (unordered-pair scale).
	Disagreement float64
	LowerBound   float64
	// Attributes is the number of categorical attributes used.
	Attributes int
	// Rows is the number of data rows clustered (len(Labels)).
	Rows int
	// BytesRead is the number of CSV input bytes consumed.
	BytesRead int64
}

// AggregateCSV clusters categorical CSV data end to end: every categorical
// attribute becomes an input clustering (the Section 2 reduction) and the
// aggregate is computed with the chosen method. Numeric columns are ignored;
// "?" and empty cells are missing values. Parsed rows stream straight into
// the width-packed label block, so no table and no per-attribute []int
// clusterings ever materialize; the labels are those of reading the whole
// table first. The span tree gains a pipeline span holding the ingest lane,
// the aggregation (or sample) span, and the objective evaluation.
func AggregateCSV(r io.Reader, opts CSVOptions) (*CSVResult, error) {
	if opts.SampleSize < 0 {
		return nil, fmt.Errorf("%w: SampleSize %d", ErrNegativeOption, opts.SampleSize)
	}
	rec := opts.Options.Recorder
	pipe := rec.Start("pipeline")
	defer pipe.End()
	sink := &csvFeedSink{tp: rec.Series("ingest.throughput"), start: time.Now()}
	ingest := pipe.StartChild("ingest")
	st, err := dataset.ReadCSVStream(r, dataset.CSVOptions{
		HasHeader:   opts.HasHeader,
		ClassColumn: opts.ClassColumn,
	}, sink)
	ingest.End()
	if err != nil {
		return nil, err
	}
	rec.Add("ingest.rows", int64(st.Rows))
	rec.Add("ingest.bytes", st.Bytes)
	pc, err := sink.b.Build()
	if err != nil {
		return nil, err
	}
	problem, err := core.NewProblemPacked(pc, core.ProblemOptions{})
	if err != nil {
		return nil, err
	}
	var labels Labels
	if opts.SampleSize > 0 {
		labels, err = problem.Sample(opts.Method, opts.Options, core.SamplingOptions{
			SampleSize: opts.SampleSize,
			Rand:       sampleRand(opts.SampleSeed),
		})
	} else {
		labels, err = problem.Aggregate(opts.Method, opts.Options)
	}
	if err != nil {
		return nil, err
	}
	return &CSVResult{
		Labels:       labels,
		Class:        sink.class,
		Disagreement: problem.Disagreement(labels),
		LowerBound:   problem.LowerBound(),
		Attributes:   problem.M(),
		Rows:         st.Rows,
		BytesRead:    st.Bytes,
	}, nil
}

// sampleRand maps the CSVOptions seed to the SAMPLING randomness source,
// with 0 selecting the same deterministic seed-1 source SamplingOptions
// defaults to.
func sampleRand(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// csvFeedSink packs the CSV reader's row stream straight into a row-mode
// PackedBuilder: Schema sizes the builder off the settled categorical
// columns, Rows appends each batch (the raw per-column value ids —
// first-occurrence interning makes them identical to Column.Clustering()'s
// normalized labels) and accumulates the class column. It also keeps the
// ingest-throughput series fed.
type csvFeedSink struct {
	b     *core.PackedBuilder
	class Labels

	tp    *obs.Series
	start time.Time
}

func (s *csvFeedSink) Schema(cats []string, hasClass bool) error {
	if len(cats) == 0 {
		return errors.New("clusteragg: csv input has no categorical columns")
	}
	s.b = core.NewPackedBuilder(len(cats))
	return nil
}

func (s *csvFeedSink) Rows(lo, hi int, cats [][]int, class []int) error {
	if class != nil {
		s.class = append(s.class, class...)
	}
	if err := s.b.AppendRows(cats); err != nil {
		return err
	}
	// Cumulative ingest rate (rows/s) stepped by the row high-water mark.
	// Timing-bearing, so benchdiff ignores it.
	if sec := time.Since(s.start).Seconds(); s.tp != nil && sec > 0 {
		s.tp.Append(int64(hi), float64(hi)/sec)
	}
	return nil
}
