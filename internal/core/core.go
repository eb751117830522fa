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
// "together" with probability p (MissingTogether, default 1/2), so it
// contributes 1−p to X_uv and all costs are expectations.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// DefaultMissingTogether is the default probability p with which a
// clustering carrying a missing value reports a pair as co-clustered.
const DefaultMissingTogether = 0.5

// MissingMode selects how input clusterings with missing labels contribute
// to the pairwise distances. Section 2 of the paper describes both
// strategies.
type MissingMode int

const (
	// MissingCoin is the paper's adopted approach: a clustering with a
	// missing value on a pair reports "together" with probability p
	// (MissingTogether) and costs become expectations.
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
// objects. It implements corrclust.Instance, so it can be fed directly to
// any correlation-clustering algorithm. Construct with NewProblem.
type Problem struct {
	n           int
	clusterings []partition.Labels
	missingP    float64
	missingMode MissingMode
	weights     []float64 // nil means uniform
	totalWeight float64

	// packed, when non-nil, holds the inputs as a width-packed label block
	// instead of clusterings (exactly one of the two is set — see
	// NewProblemPacked). The kernel path aliases it zero-copy; []int views
	// are unpacked lazily into unpacked for the few paths that need them.
	packed     *PackedClusterings
	unpackOnce sync.Once
	unpacked   []partition.Labels

	// kernelOnce caches the auto-width label kernel: every Problem builds it
	// at most once, so repeated Disagreement/LowerBound/Sample calls (and
	// the Dist delegation of packed problems) stop re-packing O(n·m) labels.
	kernelOnce   sync.Once
	kernelCached *labelKernel
}

// ProblemOptions configures NewProblem.
type ProblemOptions struct {
	// MissingTogether is the coin-model probability p that a clustering with
	// a missing value reports a pair as co-clustered. Zero means the default
	// of 1/2; values must lie in [0,1]. Only meaningful with MissingCoin.
	MissingTogether float64
	// MissingMode selects the missing-value strategy (MissingCoin, the
	// paper's adopted model, is the zero value).
	MissingMode MissingMode
	// Weights assigns a positive importance to each input clustering; the
	// objective becomes Σ w_i·d_V(C_i, C) and X_uv the weighted separating
	// fraction. Nil means uniform weights (the paper's formulation). When
	// set, the length must match the number of clusterings.
	Weights []float64
}

// ErrNoClusterings is returned when a Problem is constructed without inputs.
var ErrNoClusterings = errors.New("core: no input clusterings")

// NewProblem validates the inputs and builds an aggregation problem. All
// clusterings must have the same length and contain only valid labels.
func NewProblem(clusterings []partition.Labels, opts ProblemOptions) (*Problem, error) {
	if len(clusterings) == 0 {
		return nil, ErrNoClusterings
	}
	n := len(clusterings[0])
	for i, c := range clusterings {
		if len(c) != n {
			return nil, fmt.Errorf("core: clustering %d has %d objects, want %d: %w",
				i, len(c), n, partition.ErrLengthMismatch)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("core: clustering %d: %w", i, err)
		}
	}
	prob, err := problemOptionsOf(len(clusterings), opts)
	if err != nil {
		return nil, err
	}
	prob.n = n
	prob.clusterings = clusterings
	return prob, nil
}

// problemOptionsOf validates the options against m input clusterings and
// returns a Problem with the option-derived fields (missing model, weights,
// total weight) set; the caller fills in the inputs themselves. Shared by
// NewProblem and NewProblemPacked so both constructors enforce identical
// rules.
func problemOptionsOf(m int, opts ProblemOptions) (*Problem, error) {
	p := opts.MissingTogether
	if p == 0 {
		p = DefaultMissingTogether
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("core: MissingTogether %v outside [0,1]", p)
	}
	if opts.MissingMode != MissingCoin && opts.MissingMode != MissingAverage {
		return nil, fmt.Errorf("core: unknown MissingMode %d", opts.MissingMode)
	}
	prob := &Problem{
		missingP:    p,
		missingMode: opts.MissingMode,
		totalWeight: float64(m),
	}
	if opts.Weights != nil {
		if len(opts.Weights) != m {
			return nil, fmt.Errorf("core: %d weights for %d clusterings", len(opts.Weights), m)
		}
		prob.totalWeight = 0
		for i, w := range opts.Weights {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: weight %d is %v, want positive and finite", i, w)
			}
			prob.totalWeight += w
		}
		prob.weights = append([]float64(nil), opts.Weights...)
	}
	return prob, nil
}

// weight returns the weight of input clustering i.
func (p *Problem) weight(i int) float64 {
	if p.weights == nil {
		return 1
	}
	return p.weights[i]
}

// N returns the number of objects.
func (p *Problem) N() int { return p.n }

// M returns the number of input clusterings.
func (p *Problem) M() int {
	if p.packed != nil {
		return p.packed.m
	}
	return len(p.clusterings)
}

// labelViews returns per-clustering []int label views of the inputs: the
// clusterings themselves when the problem holds them unpacked, or a
// lazily-unpacked (once, cached) materialization of the packed block. The
// kernel path never calls this; only matrix materialization of small
// subproblems and Clusterings() do.
func (p *Problem) labelViews() []partition.Labels {
	if p.packed == nil {
		return p.clusterings
	}
	p.unpackOnce.Do(func() { p.unpacked = p.packed.unpackAll() })
	return p.unpacked
}

// Clusterings returns the input clusterings (not a copy; callers must not
// modify them). On a packed problem this materializes []int views of the
// label block, allocated once per Problem.
func (p *Problem) Clusterings() []partition.Labels { return p.labelViews() }

// Dist returns X_uv: the (expected) fraction of input clusterings that place
// u and v in different clusters. Dist satisfies corrclust.Instance and obeys
// the triangle inequality.
func (p *Problem) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	if p.packed != nil {
		// The kernel's pair evaluation is bit-identical to the loops below
		// and reads the packed labels in place.
		return p.kernel().Dist(u, v)
	}
	if p.missingMode == MissingAverage {
		return p.distAverage(u, v)
	}
	var x float64
	for i, c := range p.clusterings {
		lu, lv := c[u], c[v]
		switch {
		case lu == partition.Missing || lv == partition.Missing:
			x += (1 - p.missingP) * p.weight(i)
		case lu != lv:
			x += p.weight(i)
		}
	}
	return x / p.totalWeight
}

// distAverage is Dist under MissingAverage: only clusterings with values on
// both objects vote; a pair with no votes at all is maximally uncertain
// (distance 1/2).
//
// Note that unlike the coin model, the averaged distances need not obey the
// triangle inequality (different pairs average over different clusterings),
// so the BALLS approximation guarantee does not formally carry over; the
// algorithms still apply as heuristics.
func (p *Problem) distAverage(u, v int) float64 {
	var x, votes float64
	for i, c := range p.clusterings {
		lu, lv := c[u], c[v]
		if lu == partition.Missing || lv == partition.Missing {
			continue
		}
		w := p.weight(i)
		votes += w
		if lu != lv {
			x += w
		}
	}
	if votes == 0 {
		return 0.5
	}
	return x / votes
}

// Disagreement returns the (expected) total number of unordered-pair
// disagreements D(C) = Σ_i d_V(C_i, C) between labels and the inputs. This
// is the objective of Problem 1 on the unordered-pair scale; the paper's
// ordered-pair figure is exactly twice this value.
//
// Under the coin model it costs O(n·m): one contingency-table pass per
// input over the packed label block (see objective.go), with the
// missing-label pairs counted per candidate cluster. Under MissingAverage
// with missing labels present it is an O(n²·m) pair scan over the label
// kernel. labels must have one entry per object; partition.Missing counts
// as one more cluster.
func (p *Problem) Disagreement(labels partition.Labels) float64 {
	return p.kernel().disagreement(labels)
}

// LowerBound returns m · Σ_{u<v} min(X_uv, 1−X_uv), a lower bound on the
// disagreement of every possible clustering (the "Lower bound" rows of
// Tables 2 and 3). It sweeps the G(G+1)/2 pairs of the G distinct label
// rows instead of all object pairs, O(n·m + G²·m), on GOMAXPROCS workers;
// the result does not depend on the worker count.
func (p *Problem) LowerBound() float64 {
	return p.kernel().lowerBound(0)
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
// or without missing values, weighted or not — the whole search costs
// O(m²·n) contingency-table passes. Ties go to the lower index.
func (p *Problem) BestClustering() (labels partition.Labels, index int, disagreement float64) {
	return p.bestClustering(nil)
}

// bestClustering is BestClustering with instrumentation: rec (may be nil)
// receives bestclustering.candidates.
func (p *Problem) bestClustering(rec *obs.Recorder) (labels partition.Labels, index int, disagreement float64) {
	m := p.M()
	rec.Add("bestclustering.candidates", int64(m))
	lk := p.kernel()
	col := make(partition.Labels, p.n)
	bestIdx, bestD := -1, 0.0
	var best partition.Labels
	for i := 0; i < m; i++ {
		lk.column(i, col)
		cand := completeMissing(col)
		if d := lk.disagreement(cand); bestIdx == -1 || d < bestD {
			bestIdx, bestD, best = i, d, cand
		}
	}
	return best, bestIdx, bestD
}
