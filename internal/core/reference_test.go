package core

import (
	"math"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file holds the test-only references the production kernels are
// pinned against: the textbook per-clustering []int pair loop for X_uv,
// the lower bound's pair scan, SAMPLING's probing assignment pass and the
// clustering-by-clustering histogram affinity loop.

// refDist is the reference X_uv over the unpacked input clusterings: one
// branchy pass over the m []int label slices per pair, under the coin model
// or MissingAverage, adding each input's contribution in input order. It
// implements corrclust.Instance. The kernel counts (s, q) instead; every
// partial sum of the loop is a multiple of ½, exact in float64, so the two
// agree bit for bit in both modes and at every m.
type refDist struct {
	cs      []partition.Labels
	average bool
}

// newRefDist resolves opts the way NewProblem does over the caller's own
// label slices.
func newRefDist(cs []partition.Labels, opts ProblemOptions) *refDist {
	return &refDist{cs: cs, average: opts.MissingMode == MissingAverage}
}

func (r *refDist) N() int { return len(r.cs[0]) }

func (r *refDist) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	if r.average {
		// Only clusterings with values on both objects vote; a pair with no
		// votes at all is maximally uncertain.
		var x, votes float64
		for _, c := range r.cs {
			lu, lv := c[u], c[v]
			if lu == partition.Missing || lv == partition.Missing {
				continue
			}
			votes++
			if lu != lv {
				x++
			}
		}
		if votes == 0 {
			return 0.5
		}
		return x / votes
	}
	var x float64
	for _, c := range r.cs {
		lu, lv := c[u], c[v]
		switch {
		case lu == partition.Missing || lv == partition.Missing:
			x += 0.5
		case lu != lv:
			x++
		}
	}
	return x / float64(len(r.cs))
}

// refLowerBound is the lower bound's pair scan: Σ_{u<v} min(X_uv, 1−X_uv)
// over every object pair of inst.
func refLowerBound(inst corrclust.Instance) float64 {
	var lb float64
	for u := 0; u < inst.N(); u++ {
		for v := u + 1; v < inst.N(); v++ {
			x := inst.Dist(u, v)
			lb += math.Min(x, 1-x)
		}
	}
	return lb
}

// assignReference is the probing assignment pass, an assignFunc: every
// non-sampled object evaluates each sample member through one Problem.Dist
// interface call (O(m·s) per object), sequentially whatever workers says.
// rec counts each probe individually under sample.assign.dist_probes.
func assignReference(p *Problem, rec *obs.Recorder, _ *obs.Progress, labels partition.Labels, members [][]int, _ int) (assigned, fresh int64) {
	k := len(members)
	var oracle corrclust.Instance = p
	if rec != nil {
		oracle = obs.Count(p, rec.Counter("sample.assign.dist_probes"))
	}
	m := make([]float64, k)
	for v := range labels {
		if labels[v] != partition.Missing {
			continue
		}
		var totalAway float64
		for ci := range members {
			m[ci] = 0
			for _, u := range members[ci] {
				m[ci] += oracle.Dist(v, u)
			}
			totalAway += float64(len(members[ci])) - m[ci]
		}
		bestC, bestCost := -1, totalAway // -1 = fresh singleton
		for ci := range members {
			d := m[ci] + totalAway - (float64(len(members[ci])) - m[ci])
			if d < bestCost {
				bestC, bestCost = ci, d
			}
		}
		if bestC == -1 {
			labels[v] = k + v
			fresh++
		} else {
			labels[v] = bestC
			assigned++
		}
	}
	return assigned, fresh
}

// assignWith returns the SamplingOptions.assign hook: the probing reference
// when ref is set, nil (the kernel pass) otherwise.
func assignWith(ref bool) assignFunc {
	if ref {
		return assignReference
	}
	return nil
}

// affinitiesReference is the clustering-by-clustering histogram affinity
// loop: dst[c] = 0, one dst[c] += row pass per input clustering, then one
// dst[c] /= m pass. The blocked affinitiesW makes the same additions in the
// same order, so the two agree bit for bit at every width.
func affinitiesReference(h *colabelHist, p *Problem, v int, dst []float64) {
	switch p.width {
	case width8:
		affinitiesReferenceW(h, p, p.lab8, v, dst)
	default:
		affinitiesReferenceW(h, p, p.lab32, v, dst)
	}
}

func affinitiesReferenceW[W labelWord](h *colabelHist, p *Problem, lab []W, v int, dst []float64) {
	for c := range dst {
		dst[c] = 0
	}
	m := p.m
	bv := lab[v*m : v*m+m]
	sentinel := missingWord[W]()
	k := h.k
	for i, lv := range bv {
		if lv == sentinel {
			for c, ma := range h.missAll[i] {
				dst[c] += ma
			}
			continue
		}
		if int32(lv) >= h.labBound[i] {
			for c, b := range h.base[i] {
				dst[c] += b
			}
			continue
		}
		for c, t := range h.term[i][int(lv)*k : int(lv+1)*k] {
			dst[c] += t
		}
	}
	for c := range dst {
		dst[c] /= float64(p.m)
	}
}
