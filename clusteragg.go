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

// ProblemOptions configures NewProblem (the missing-value model).
type ProblemOptions = core.ProblemOptions

// NewProblem validates the input clusterings and builds an aggregation
// problem. The labels are packed into the same block NewProblemPacked takes
// (so they must lie below 2³¹−1) and the slices are not retained.
func NewProblem(clusterings []Labels, opts ProblemOptions) (*Problem, error) {
	return core.NewProblem(clusterings, opts)
}

// PackedClusterings is the width-packed columnar label block: the same m
// clusterings a []Labels slice would hold, stored row-major at one byte
// per label when every label is below 255 and four bytes otherwise. Build
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

// The paper's five aggregation algorithms plus the PIVOT extension.
const (
	MethodBest          = core.MethodBest
	MethodBalls         = core.MethodBalls
	MethodAgglomerative = core.MethodAgglomerative
	MethodFurthest      = core.MethodFurthest
	MethodLocalSearch   = core.MethodLocalSearch
	MethodPivot         = core.MethodPivot
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
// via AggregateOptions.Recorder (Sample records into the same one). See
// internal/obs and docs/OBSERVABILITY.md.
type Recorder = obs.Recorder

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return obs.New() }

// RunReport is the machine-readable record of one run (the clusteragg
// -report schema).
type RunReport = obs.RunReport

// CSVOptions configures ReadCSV and AggregateCSV.
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
// count that must be non-negative is negative: CSVOptions.SampleSize,
// AggregateOptions.K or AggregateOptions.Workers.
var ErrNegativeOption = core.ErrNegativeOption

// CSVResult is the outcome of AggregateCSV, CSVInput.Aggregate and
// CSVInput.Evaluate.
type CSVResult struct {
	// Labels is the aggregate clustering of the rows.
	Labels Labels
	// Class holds the class column's labels when one was designated.
	Class Labels
	// Disagreement and LowerBound are the objective value and its trivial
	// lower bound (unordered-pair scale), from Problem.Disagreement and
	// Problem.LowerBound. LowerBound counts the pairs of complete rows by
	// attribute subset, O(2^m·G) over the G distinct rows, when a cost
	// model puts that below their O(G²) sweep; either way the value is the
	// same.
	Disagreement float64
	LowerBound   float64
	// Attributes is the number of categorical attributes used.
	Attributes int
	// Rows is the number of data rows clustered (len(Labels)).
	Rows int
	// BytesRead is the number of CSV input bytes consumed.
	BytesRead int64
}

// CSVInput is CSV data ingested by ReadCSV as an aggregation problem.
type CSVInput struct {
	// Problem has one input clustering per categorical column, labelled
	// by the column's value ids.
	Problem *Problem
	// Class holds the class column's labels when one was designated.
	Class Labels
	// Columns names the categorical columns in column order, and
	// Values[j] maps column j's value ids to their strings.
	Columns []string
	Values  [][]string
	// Rows is the number of data rows read.
	Rows int
	// BytesRead is the number of CSV input bytes consumed.
	BytesRead int64

	rec *Recorder
}

// ReadCSV ingests categorical CSV data as an aggregation problem: every
// categorical attribute becomes an input clustering (the Section 2
// reduction). Numeric columns are ignored; "?" and empty cells are missing
// values. Parsed rows stream straight into the width-packed label block, so
// no table and no per-attribute []int clusterings ever materialize; the
// problem is the one reading the whole table first would give. ReadCSV
// reads HasHeader, ClassColumn and Options.Recorder, on which it records an
// ingest span (inside whatever span is open) and the ingest.* counters.
func ReadCSV(r io.Reader, opts CSVOptions) (*CSVInput, error) {
	rec := opts.Options.Recorder
	span := rec.Start("ingest")
	defer span.End()
	sink := &csvFeedSink{tp: rec.Series("ingest.throughput"), start: time.Now()}
	st, err := dataset.ReadCSVStream(r, dataset.CSVOptions{
		HasHeader:   opts.HasHeader,
		ClassColumn: opts.ClassColumn,
	}, sink)
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
	return &CSVInput{
		Problem:   problem,
		Class:     sink.class,
		Columns:   st.Cats,
		Values:    st.Values,
		Rows:      st.Rows,
		BytesRead: st.Bytes,
		rec:       rec,
	}, nil
}

// Aggregate computes the aggregate with opts.Method — under SAMPLING when
// SampleSize is positive, seeded by SampleSeed — and evaluates it.
func (in *CSVInput) Aggregate(opts CSVOptions) (*CSVResult, error) {
	if opts.SampleSize < 0 {
		return nil, fmt.Errorf("%w: SampleSize %d", ErrNegativeOption, opts.SampleSize)
	}
	var labels Labels
	var err error
	if opts.SampleSize > 0 {
		labels, err = in.Problem.Sample(opts.Method, opts.Options, core.SamplingOptions{
			SampleSize: opts.SampleSize,
			Rand:       sampleRand(opts.SampleSeed),
		})
	} else {
		labels, err = in.Problem.Aggregate(opts.Method, opts.Options)
	}
	if err != nil {
		return nil, err
	}
	return in.Evaluate(labels), nil
}

// Evaluate scores an aggregate of the input's rows, however it was
// computed: the objective and its lower bound, timed under an objective
// span on ReadCSV's Recorder.
func (in *CSVInput) Evaluate(labels Labels) *CSVResult {
	span := in.rec.Start("objective")
	defer span.End()
	return &CSVResult{
		Labels:       labels,
		Class:        in.Class,
		Disagreement: in.Problem.Disagreement(labels),
		LowerBound:   in.Problem.LowerBound(),
		Attributes:   in.Problem.M(),
		Rows:         in.Rows,
		BytesRead:    in.BytesRead,
	}
}

// AggregateCSV clusters categorical CSV data end to end: ReadCSV, then
// CSVInput.Aggregate. The span tree gains a pipeline span holding the
// ingest span, the aggregation (or sample) span, and the objective span.
func AggregateCSV(r io.Reader, opts CSVOptions) (*CSVResult, error) {
	if opts.SampleSize < 0 {
		return nil, fmt.Errorf("%w: SampleSize %d", ErrNegativeOption, opts.SampleSize)
	}
	pipe := opts.Options.Recorder.Start("pipeline")
	defer pipe.End()
	in, err := ReadCSV(r, opts)
	if err != nil {
		return nil, err
	}
	return in.Aggregate(opts)
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
