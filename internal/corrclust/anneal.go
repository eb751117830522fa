package corrclust

import (
	"math"
	"math/rand"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// AnnealOptions configures Anneal.
type AnnealOptions struct {
	// Init is the starting clustering; nil starts from singletons.
	Init partition.Labels
	// StartTemp and EndTemp bound the geometric cooling schedule. Zeros
	// mean 1.0 and 1e-3.
	StartTemp, EndTemp float64
	// Cooling is the per-step temperature multiplier in (0,1). Zero means
	// 0.999.
	Cooling float64
	// MovesPerTemp is the number of proposed moves at each temperature.
	// Zero means n (the instance size).
	MovesPerTemp int
	// Rand supplies randomness; nil means a deterministic source seeded
	// with 1.
	Rand *rand.Rand
	// Recorder, when non-nil, receives the anneal.* counters (temperature
	// steps, proposals, accepts, best-solution updates). Nil records
	// nothing and costs nothing.
	Recorder *obs.Recorder
}

// Anneal minimizes the correlation-clustering objective by simulated
// annealing over single-node moves, the approach Filkov and Skiena applied
// to the same consensus-clustering objective ("Integrating microarray data
// by consensus clustering", ICTAI 2003) — included as an extension baseline
// beyond the paper's five algorithms.
//
// A move picks a random node and a random target cluster (or a fresh
// singleton); the cost delta is computed incrementally in O(n); worsening
// moves are accepted with probability exp(−Δ/T). The best clustering seen
// is returned, so Anneal never does worse than its initialization.
func Anneal(inst Instance, opts AnnealOptions) partition.Labels {
	n := inst.N()
	if n == 0 {
		return partition.Labels{}
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	startT := opts.StartTemp
	if startT <= 0 {
		startT = 1.0
	}
	endT := opts.EndTemp
	if endT <= 0 {
		endT = 1e-3
	}
	cooling := opts.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.999
	}
	moves := opts.MovesPerTemp
	if moves <= 0 {
		moves = n
	}

	var labels partition.Labels
	if opts.Init != nil {
		labels = opts.Init.Normalize()
	} else {
		labels = partition.Singletons(n)
	}
	// Cluster ids may exceed K transiently; track sizes in a map-free way
	// by allocating up to n+1 slots (a clustering never needs more).
	size := make([]int, n+1)
	maxLabel := 0
	for _, c := range labels {
		size[c]++
		if c > maxLabel {
			maxLabel = c
		}
	}

	cost := Cost(inst, labels)
	best := labels.Clone()
	bestCost := cost

	// delta computes the cost change of moving node v to cluster target
	// (target == freshCluster means a new singleton), over v's row read in
	// one bulk call where the instance offers one.
	rows := newRowReader(inst)
	row := make([]float64, n)
	delta := func(v, target int) float64 {
		cur := labels[v]
		if target == cur {
			return 0
		}
		var d float64
		for u, x := range rows.readRowInto(v, row) {
			if u == v {
				continue
			}
			switch labels[u] {
			case cur:
				d += (1 - x) - x // pair leaves v's old cluster
			case target:
				d += x - (1 - x) // pair joins v's new cluster
			}
		}
		return d
	}

	var tempSteps, proposals, accepts, bestUpdates int64
	for t := startT; t > endT; t *= cooling {
		tempSteps++
		for m := 0; m < moves; m++ {
			v := rng.Intn(n)
			// Candidate target: an existing cluster of a random node, or a
			// fresh singleton with small probability.
			var target int
			if rng.Float64() < 0.1 {
				target = freshLabel(size, maxLabel)
			} else {
				target = labels[rng.Intn(n)]
			}
			if target == labels[v] {
				continue
			}
			proposals++
			d := delta(v, target)
			if d <= 0 || rng.Float64() < math.Exp(-d/t) {
				accepts++
				size[labels[v]]--
				size[target]++
				if target > maxLabel {
					maxLabel = target
				}
				labels[v] = target
				cost += d
				if cost < bestCost {
					bestCost = cost
					bestUpdates++
					copy(best, labels)
				}
			}
		}
	}
	if rec := opts.Recorder; rec != nil {
		rec.Add("anneal.temp_steps", tempSteps)
		rec.Add("anneal.proposals", proposals)
		rec.Add("anneal.accepts", accepts)
		rec.Add("anneal.best_updates", bestUpdates)
	}
	return best.Normalize()
}

// freshLabel returns an unused cluster id.
func freshLabel(size []int, maxLabel int) int {
	for c := 0; c <= maxLabel+1 && c < len(size); c++ {
		if size[c] == 0 {
			return c
		}
	}
	return maxLabel + 1
}
