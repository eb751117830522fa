package corrclust

import "clusteragg/internal/partition"

// localSearchReference is the pre-incremental LOCALSEARCH sweep: M(v, C_i)
// is rebuilt from a full distance row for every object visited, making each
// pass O(n²). It makes exactly the decisions LocalSearch makes (same
// ascending-slot iteration, strict-< tie-breaks, same epsilon guard), only
// with per-evaluation instead of delta-maintained float accumulation, and is
// the oracle the incremental kernel's equivalence tests and benchmarks run
// against. It reads opts.Init and opts.maxPasses, records only the sweeps,
// moves and early-convergence counters on opts.Recorder, and ignores
// opts.Progress and the refresh and move hooks.
func localSearchReference(inst Instance, opts LocalSearchOptions) partition.Labels {
	n := inst.N()
	if n == 0 {
		return partition.Labels{}
	}
	maxPasses := opts.maxPasses
	if maxPasses <= 0 {
		maxPasses = DefaultLocalSearchPasses
	}

	var labels partition.Labels
	if opts.Init != nil {
		labels = opts.Init.Normalize()
	} else {
		labels = partition.Singletons(n)
	}

	// size[c] = cluster size; free = recycled cluster ids for fresh
	// singletons. k tracks the number of allocated cluster slots.
	k := labels.K()
	size := make([]int, k, k+1)
	for _, c := range labels {
		size[c]++
	}
	var free []int

	// M(v,·) accumulates from one gathered distance row per object.
	rows := newRowReader(inst)
	rowBuf := make([]float64, n)

	var sweeps, moves int64
	converged := false
	m := make([]float64, len(size), cap(size)) // M(v, C_i), rebuilt per object
	for pass := 0; pass < maxPasses; pass++ {
		sweeps++
		improved := false
		for v := 0; v < n; v++ {
			if cap(m) < len(size) {
				m = make([]float64, len(size))
			} else {
				m = m[:len(size)]
			}
			for i := range m {
				m[i] = 0
			}
			for u, x := range rows.readRowInto(v, rowBuf) {
				if u != v {
					m[labels[u]] += x
				}
			}
			// totalAway = Σ_j (|C_j| − M(v,C_j)) over all clusters, with v
			// itself excluded from its own cluster's size.
			var totalAway float64
			for i := range m {
				sz := size[i]
				if i == labels[v] {
					sz--
				}
				totalAway += float64(sz) - m[i]
			}
			// d(v, C_i) = M(v,C_i) + (totalAway − (|C_i| − M(v,C_i))).
			// d(v, singleton) = totalAway.
			cur := labels[v]
			bestCluster, bestCost := -1, totalAway // -1 = fresh singleton
			curCost := totalAway
			for i := range m {
				sz := size[i]
				if i == cur {
					sz--
				}
				d := m[i] + totalAway - (float64(sz) - m[i])
				if i == cur {
					curCost = d
				}
				if d < bestCost {
					bestCluster, bestCost = i, d
				}
			}
			if bestCost >= curCost-lsEpsilon || bestCluster == cur {
				continue
			}
			// Apply the move.
			improved = true
			moves++
			size[cur]--
			if size[cur] == 0 {
				free = append(free, cur)
			}
			if bestCluster == -1 {
				if len(free) > 0 {
					bestCluster = free[len(free)-1]
					free = free[:len(free)-1]
				} else {
					bestCluster = len(size)
					size = append(size, 0)
				}
			}
			size[bestCluster]++
			labels[v] = bestCluster
		}
		if !improved {
			converged = true
			break
		}
	}
	if rec := opts.Recorder; rec != nil {
		rec.Add("localsearch.sweeps", sweeps)
		rec.Add("localsearch.moves", moves)
		if converged {
			rec.Add("localsearch.converged_early", 1)
		}
	}
	return labels.Normalize()
}
