package ensemble

import (
	"fmt"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

// MCLA runs the meta-clustering algorithm of Strehl & Ghosh: every cluster
// of every input clustering becomes a meta-object; meta-objects are grouped
// into k meta-clusters by Jaccard similarity of their member sets; each
// object then joins the meta-cluster in which it participates most (its
// membership averaged over that meta-cluster's constituent clusters).
// Objects participating in no meta-cluster (possible only when all their
// labels are Missing) get their own singleton clusters.
func MCLA(clusterings []partition.Labels, k int) (partition.Labels, error) {
	n, err := validate(clusterings, k)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, fmt.Errorf("ensemble: MCLA requires k > 0")
	}
	if n == 0 {
		return partition.Labels{}, nil
	}

	// Collect every input cluster as a member set.
	var clusters [][]int
	for _, c := range clusterings {
		norm := c.Normalize()
		groups := norm.Clusters()
		clusters = append(clusters, groups...)
	}
	s := len(clusters)
	if k > s {
		k = s
	}

	// Jaccard distance between clusters as a corrclust instance, then
	// average-linkage agglomeration into k meta-clusters. (Strehl & Ghosh
	// partition this meta-graph with METIS; the substitution mirrors CSPA.)
	sets := make([]map[int]struct{}, s)
	for i, members := range clusters {
		sets[i] = make(map[int]struct{}, len(members))
		for _, obj := range members {
			sets[i][obj] = struct{}{}
		}
	}
	dist := corrclust.NewMatrix(s)
	for a := 0; a < s; a++ {
		for b := a + 1; b < s; b++ {
			dist.Set(a, b, 1-jaccardSets(sets[a], sets[b]))
		}
	}
	meta := corrclust.AgglomerativeWithOptions(dist, corrclust.AgglomerativeOptions{K: k})

	// Per-object association with each meta-cluster: the fraction of the
	// meta-cluster's constituent clusters containing the object.
	metaSize := make([]int, meta.K())
	for _, g := range meta {
		metaSize[g]++
	}
	assoc := make([][]float64, n)
	for i := range assoc {
		assoc[i] = make([]float64, meta.K())
	}
	for ci, members := range clusters {
		g := meta[ci]
		for _, obj := range members {
			assoc[obj][g] += 1 / float64(metaSize[g])
		}
	}

	labels := make(partition.Labels, n)
	next := meta.K()
	for i := range labels {
		best, bestA := -1, 0.0
		for g, a := range assoc[i] {
			if a > bestA {
				best, bestA = g, a
			}
		}
		if best == -1 {
			labels[i] = next // participated nowhere: singleton
			next++
			continue
		}
		labels[i] = best
	}
	return labels.Normalize(), nil
}

func jaccardSets(a, b map[int]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for x := range a {
		if _, ok := b[x]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
