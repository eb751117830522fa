// Package core implements the clustering-aggregation framework of
// "Clustering Aggregation" (Gionis, Mannila, Tsaparas; ICDE 2005).
//
// A Problem holds m input clusterings C_1..C_m over the same n objects. The
// goal is a single clustering C minimizing the total disagreement
// D(C) = Σ_i d_V(C_i, C), where d_V counts object pairs placed together by
// one clustering and apart by the other. The Problem is itself a
// correlation-clustering Instance (Section 3's reduction): the distance
// X_uv is the fraction of input clusterings separating u and v, so
// D(C) = m · cost(C) and every algorithm from package corrclust applies.
//
// Missing values (label partition.Missing in an input clustering) follow the
// paper's coin model: an attribute missing a value on a pair reports
// "together" with probability ½, so it contributes ½ to X_uv and all costs
// are expectations. Every term of a coin-model objective is then a multiple
// of ½, exact in float64.
package core

import (
	"errors"
	"fmt"
	"sync"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// DefaultMissingTogether is the coin model's only probability p: a
// clustering carrying a missing value reports a pair as co-clustered with
// probability ½.
const DefaultMissingTogether = 0.5

// MissingMode selects how input clusterings with missing labels contribute
// to the pairwise distances. Section 2 of the paper describes both
// strategies.
type MissingMode int

const (
	// MissingCoin is the paper's adopted approach: a clustering with a
	// missing value on a pair reports "together" with probability ½
	// (DefaultMissingTogether) and costs become expectations.
	MissingCoin MissingMode = iota
	// MissingAverage is the paper's alternative: "an attribute that
	// contains a missing value in some tuple does not have any information
	// about how this tuple should be clustered, so we should let the
	// remaining attributes decide" — X_uv is the disagreeing fraction among
	// only the clusterings that have values on both objects. A pair missing
	// from every clustering gets distance 1/2 (no information either way).
	MissingAverage
)

// Problem is a clustering-aggregation instance: m input clusterings over n
// objects, held as one width-packed label block. It is itself the
// correlation-clustering instance of Section 3's reduction: it implements
// corrclust.Instance through Dist and corrclust.RowDistancer through
// DistRowTo, so it can be fed directly to any correlation-clustering
// algorithm (labelkernel.go holds the distance loops). Construct with
// NewProblem or NewProblemPacked. Immutable after construction and safe
// for concurrent use.
type Problem struct {
	// packedBlock is the inputs' label block (see packed.go), held by
	// value: its slices alias the PackedClusterings the Problem was built
	// over, and the hot loops read n, m, hasMiss and lab8/lab32 with one
	// load from p.
	packedBlock

	// average selects MissingAverage (see x).
	average bool
	// xs memoizes x by (s, q), q-major: xs[q*(m+1)+s] = x(s, q), so a pair
	// with no missing label reads one of the first m+1 cells. It is built
	// once in problemOptionsOf and shared with every Problem over derives
	// from this one; nil when m > histMaxM, where x is evaluated per pair.
	xs []float64

	// rows holds every object's label row packed into lanes, built on the
	// first row read (rowsOnce).
	rowsOnce sync.Once
	rows     *lanes

	// unpacked holds the []int views Clusterings returns, unpacked from the
	// block on its first call.
	unpackOnce sync.Once
	unpacked   []partition.Labels
}

// packedBlock names the PackedClusterings a Problem embeds, so the embedded
// field stays unexported.
type packedBlock = PackedClusterings

// ProblemOptions configures NewProblem.
type ProblemOptions struct {
	// MissingMode selects the missing-value strategy (MissingCoin, the
	// paper's adopted model, is the zero value).
	MissingMode MissingMode
}

// ErrNoClusterings is returned when a Problem is constructed without inputs.
var ErrNoClusterings = errors.New("core: no input clusterings")

// ErrNegativeOption is returned, wrapped with the offending field, when a
// count that must be non-negative is negative: AggregateOptions.K,
// AggregateOptions.Workers or a SAMPLING sample size.
var ErrNegativeOption = errors.New("clusteragg: negative option")

// NewProblem validates the inputs and builds an aggregation problem. All
// clusterings must have the same length and contain only valid labels
// (non-negative and below math.MaxInt32, or partition.Missing). The labels
// are packed column by column into the width-packed block NewProblemPacked
// takes, so the caller's slices are not retained.
func NewProblem(clusterings []partition.Labels, opts ProblemOptions) (*Problem, error) {
	if len(clusterings) == 0 {
		return nil, ErrNoClusterings
	}
	b := NewPackedColumns(len(clusterings[0]), len(clusterings))
	for _, c := range clusterings {
		if err := b.AppendColumn(c); err != nil {
			return nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, err
	}
	return NewProblemPacked(pc, opts)
}

// problemOptionsOf validates the options against m input clusterings and
// returns a Problem holding only m and the option-derived fields (missing
// model, distance table); over builds the Problem over a block from it.
func problemOptionsOf(m int, opts ProblemOptions) (*Problem, error) {
	if opts.MissingMode != MissingCoin && opts.MissingMode != MissingAverage {
		return nil, fmt.Errorf("core: unknown MissingMode %d", opts.MissingMode)
	}
	prob := &Problem{
		packedBlock: packedBlock{m: m},
		average:     opts.MissingMode == MissingAverage,
	}
	prob.xs = prob.distTable()
	return prob, nil
}

// over returns a Problem over the block pc, with m inputs, under p's
// options and distance table. NewProblemPacked calls it on the validated
// options, subProblem on the parent Problem.
func (p *Problem) over(pc *PackedClusterings) *Problem {
	return &Problem{packedBlock: *pc, average: p.average, xs: p.xs}
}

// Clusterings returns the input clusterings as []int label views, unpacked
// from the packed block on the first call and cached on the Problem (m·n
// ints, allocated once). They are not the slices passed to NewProblem;
// callers must not modify them.
func (p *Problem) Clusterings() []partition.Labels {
	p.unpackOnce.Do(func() {
		p.unpacked = make([]partition.Labels, p.m)
		for i := range p.unpacked {
			p.unpacked[i] = make(partition.Labels, p.n)
			p.column(i, p.unpacked[i])
		}
	})
	return p.unpacked
}

// LowerBound returns m · Σ_{u<v} min(X_uv, 1−X_uv), a lower bound on the
// disagreement of every possible clustering (the "Lower bound" rows of
// Tables 2 and 3). It works over the G distinct label rows instead of the
// objects, on GOMAXPROCS workers, and the result does not depend on the
// worker count. The pairs of rows without a missing label are counted by
// input subset in O(2^m·G) when a cost model puts that below the O(G²)
// sweep of those pairs (when 6·2^m < G); every other pair is swept,
// O(n·m + G²·m) in all. Both paths give the same bits.
func (p *Problem) LowerBound() float64 {
	return p.lowerBound(0)
}

// completeMissing returns labels with every Missing entry replaced by a
// fresh singleton cluster, making an attribute-derived clustering usable as
// a candidate solution.
func completeMissing(labels partition.Labels) partition.Labels {
	out := labels.Clone()
	next := 0
	for _, v := range out {
		if v >= next {
			next = v + 1
		}
	}
	for i, v := range out {
		if v == partition.Missing {
			out[i] = next
			next++
		}
	}
	return out.Normalize()
}

// BestClustering implements the BESTCLUSTERING algorithm: it returns the
// input clustering with the smallest total disagreement, its index among the
// inputs, and that disagreement. Missing labels in the winning input are
// completed as singleton clusters. The result is a 2(1−1/m)-approximation of
// the optimal aggregation.
//
// Each candidate is scored by Disagreement, so under the coin model — with
// or without missing values — the whole search costs O(m²·n)
// contingency-table passes. Ties go to the lower index.
func (p *Problem) BestClustering() (labels partition.Labels, index int, disagreement float64) {
	return p.bestClustering(nil)
}

// bestClustering is BestClustering with instrumentation: rec (may be nil)
// receives bestclustering.candidates.
func (p *Problem) bestClustering(rec *obs.Recorder) (labels partition.Labels, index int, disagreement float64) {
	m := p.M()
	rec.Add("bestclustering.candidates", int64(m))
	col := make(partition.Labels, p.n)
	bestIdx, bestD := -1, 0.0
	var best partition.Labels
	for i := 0; i < m; i++ {
		p.column(i, col)
		cand := completeMissing(col)
		if d := p.Disagreement(cand); bestIdx == -1 || d < bestD {
			bestIdx, bestD, best = i, d, cand
		}
	}
	return best, bestIdx, bestD
}
