package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"clusteragg/internal/core"
	"clusteragg/internal/partition"
)

// objective returns D(C) = Σᵢ d_V(Cᵢ, C) for uniform weights under the
// coin model with p = core.DefaultMissingTogether, on the same
// unordered-pair scale as Problem.Disagreement, in O(n·m).
//
// For input i, the pairs with both labels present contribute the Mirkin
// distance on those objects,
//
//	Σ_a C(|a|,2) + Σ_b C(|b ∩ Oᵢ|,2) − 2·Σ_ab C(n_ab,2),
//
// over input clusters a, output clusters b and present objects Oᵢ. A pair
// with a missing endpoint reports "together" with probability p, so it
// costs 1−p when C co-clusters it and p when C separates it; both counts
// follow from the output cluster sizes.
func objective(inputs []partition.Labels, c partition.Labels) float64 {
	n := len(c)
	// Group objects by output cluster with a counting sort.
	k := maxLabel(c) + 1
	start := make([]int, k+1)
	for _, l := range c {
		start[l+1]++
	}
	var togetherC int64 // pairs C co-clusters
	for b := 0; b < k; b++ {
		togetherC += pairs(int64(start[b+1]))
		start[b+1] += start[b]
	}
	order := make([]int, n)
	next := append([]int(nil), start[:k]...)
	for v, l := range c {
		order[next[l]] = v
		next[l]++
	}

	p := core.DefaultMissingTogether
	var total float64
	for _, in := range inputs {
		labels := maxLabel(in) + 1
		sizeA := make([]int64, labels)
		cnt := make([]int64, labels)
		var present int64
		for _, a := range in {
			if a != partition.Missing {
				sizeA[a]++
				present++
			}
		}
		var sumA, sumB, sumAB int64
		for _, s := range sizeA {
			sumA += pairs(s)
		}
		for b := 0; b < k; b++ {
			members := order[start[b]:start[b+1]]
			var inB int64
			for _, v := range members {
				if a := in[v]; a != partition.Missing {
					cnt[a]++
					inB++
				}
			}
			sumB += pairs(inB)
			for _, v := range members {
				if a := in[v]; a != partition.Missing && cnt[a] > 0 {
					sumAB += pairs(cnt[a])
					cnt[a] = 0
				}
			}
		}
		missPairs := pairs(int64(n)) - pairs(present)
		missTogether := togetherC - sumB
		total += float64(sumA+sumB-2*sumAB) +
			(1-p)*float64(missTogether) + p*float64(missPairs-missTogether)
	}
	return total
}

func pairs(x int64) int64 { return x * (x - 1) / 2 }

// maxLabel returns the largest label, -1 for none.
func maxLabel(labels partition.Labels) int {
	m := -1
	for _, l := range labels {
		m = max(m, l)
	}
	return m
}

// fingerprint hashes a labeling, so runs can be compared without keeping
// their labels.
func fingerprint(labels partition.Labels) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		for i := range b {
			b[i] = byte(uint64(l) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// relTol is how far two evaluations of the same objective may differ,
// relative to their size: the pair scan sums floats, the oracle integers.
const relTol = 1e-9

func checkClose(what string, got, want float64) error {
	if math.Abs(got-want) > relTol*math.Max(math.Abs(want), 1) {
		return fmt.Errorf("%s = %.17g, want %.17g", what, got, want)
	}
	return nil
}

// checkLabels verifies a job's labels: one per object, every object
// clustered, and normalized to 0..k-1 in order of first appearance.
func checkLabels(labels partition.Labels, n int) error {
	if len(labels) != n {
		return fmt.Errorf("%d labels for %d objects", len(labels), n)
	}
	for i, l := range labels {
		if l == partition.Missing {
			return fmt.Errorf("object %d is unlabeled", i)
		}
	}
	if !labels.IsNormalized() {
		return fmt.Errorf("labels are not normalized")
	}
	return nil
}
