// Package ensemble implements the consensus-clustering methods from the
// related-work line the paper positions itself against (Section 6), so the
// paper's aggregation algorithms can be compared against their actual
// competitors:
//
//   - EvidenceAccumulation — Fred & Jain (ICPR 2002): single linkage over
//     the co-association matrix, cut at the requested k or at the
//     maximum-lifetime gap.
//   - CSPA — Strehl & Ghosh (JMLR 2002): cluster-based similarity
//     partitioning; the similarity matrix is partitioned into exactly k
//     groups (here with average-linkage agglomeration in place of the
//     original METIS call — a documented substitution).
//   - MCLA — Strehl & Ghosh (JMLR 2002): meta-clustering of the input
//     clusters by Jaccard similarity, followed by per-object majority
//     assignment to meta-clusters.
//   - EMConsensus — Topchy, Jain & Punch (SDM 2004): maximum-likelihood
//     consensus via EM over a mixture of multinomial label generators.
//
// All methods require the target number of clusters k, which is the key
// contrast with the paper's parameter-free aggregation algorithms.
package ensemble

import (
	"errors"
	"fmt"
	"sort"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

// ErrNoClusterings is returned when no input clusterings are supplied.
var ErrNoClusterings = errors.New("ensemble: no input clusterings")

// validate checks the shared preconditions and returns n.
func validate(clusterings []partition.Labels, k int) (int, error) {
	if len(clusterings) == 0 {
		return 0, ErrNoClusterings
	}
	n := len(clusterings[0])
	for i, c := range clusterings {
		if len(c) != n {
			return 0, fmt.Errorf("ensemble: clustering %d has %d objects, want %d: %w",
				i, len(c), n, partition.ErrLengthMismatch)
		}
		if err := c.Validate(); err != nil {
			return 0, fmt.Errorf("ensemble: clustering %d: %w", i, err)
		}
	}
	if k < 0 || k > n {
		return 0, fmt.Errorf("ensemble: k=%d outside [0,%d]", k, n)
	}
	return n, nil
}

// coassociation returns the co-association distance matrix: 1 − (fraction
// of clusterings placing the pair together, among those with an opinion).
// Pairs with no opinion at all get distance 1/2.
func coassociation(clusterings []partition.Labels, n int) *corrclust.Matrix {
	m := corrclust.NewMatrix(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			together, votes := 0, 0
			for _, c := range clusterings {
				lu, lv := c[u], c[v]
				if lu == partition.Missing || lv == partition.Missing {
					continue
				}
				votes++
				if lu == lv {
					together++
				}
			}
			d := 0.5
			if votes > 0 {
				d = 1 - float64(together)/float64(votes)
			}
			m.Set(u, v, d)
		}
	}
	return m
}

// EvidenceAccumulation runs Fred & Jain's evidence-accumulation consensus:
// single linkage over the co-association matrix, cut into k clusters, or —
// with k = 0 — cut at the largest "lifetime" gap of the dendrogram (their
// automatic cluster-count criterion).
func EvidenceAccumulation(clusterings []partition.Labels, k int) (partition.Labels, error) {
	n, err := validate(clusterings, k)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return partition.Labels{}, nil
	}
	dist := coassociation(clusterings, n)

	// Single linkage == cutting the largest edges of a minimum spanning
	// tree. Prim's algorithm, O(n²).
	parentEdge := make([]float64, n) // weight of the MST edge attaching i
	parentOf := make([]int, n)
	inTree := make([]bool, n)
	best := make([]float64, n)
	for i := range best {
		best[i] = 2 // > any distance
		parentOf[i] = -1
	}
	best[0] = 0
	for range parentEdge {
		u, ud := -1, 3.0
		for i := 0; i < n; i++ {
			if !inTree[i] && best[i] < ud {
				u, ud = i, best[i]
			}
		}
		inTree[u] = true
		parentEdge[u] = best[u]
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := dist.Dist(u, v); d < best[v] {
					best[v] = d
					parentOf[v] = u
				}
			}
		}
	}

	// Sort the n-1 MST edges (node 0 has no parent edge).
	type edge struct {
		node   int
		weight float64
	}
	edges := make([]edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, edge{node: i, weight: parentEdge[i]})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].weight < edges[j].weight })

	cut := k - 1 // number of largest edges to remove
	if k == 0 {
		// Lifetime criterion: cut where consecutive sorted merge weights
		// jump the most. Merging at weight w_i and next at w_{i+1}: the
		// clustering "alive" between them has n-1-i clusters; pick the
		// largest gap.
		bestGap, bestIdx := -1.0, len(edges) // default: no cut, one cluster
		for i := 0; i+1 < len(edges); i++ {
			if gap := edges[i+1].weight - edges[i].weight; gap > bestGap {
				bestGap, bestIdx = gap, i+1
			}
		}
		cut = len(edges) - bestIdx
	}
	if cut < 0 {
		cut = 0
	}
	if cut > len(edges) {
		cut = len(edges)
	}

	// Union-find over the kept edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges[:len(edges)-cut] {
		a, b := find(e.node), find(parentOf[e.node])
		if a != b {
			parent[a] = b
		}
	}
	labels := make(partition.Labels, n)
	for i := range labels {
		labels[i] = find(i)
	}
	return labels.Normalize(), nil
}

// CSPA runs the cluster-based similarity partitioning of Strehl & Ghosh:
// the pairwise co-association similarity is treated as a graph and
// partitioned into exactly k clusters. The original uses METIS; this
// implementation substitutes average-linkage agglomeration on the
// co-association distances, the standard library-free instantiation.
func CSPA(clusterings []partition.Labels, k int) (partition.Labels, error) {
	n, err := validate(clusterings, k)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, fmt.Errorf("ensemble: CSPA requires k > 0")
	}
	if n == 0 {
		return partition.Labels{}, nil
	}
	dist := coassociation(clusterings, n)
	return corrclust.AgglomerativeWithOptions(dist, corrclust.AgglomerativeOptions{K: k}), nil
}
