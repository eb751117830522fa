package corrclust

import (
	"math/rand"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// Pivot runs the randomized pivot algorithm for correlation clustering:
// pick a random unclustered object as pivot, form a cluster from it and
// every unclustered object at distance below 1/2, remove them, repeat.
//
// This is an extension beyond the paper's five algorithms — the algorithm
// was later analyzed as CC-PIVOT by Ailon, Charikar and Newman (STOC 2005 /
// JACM 2008), who proved a 3-approximation in expectation for 0/1 instances
// and 5 for weighted instances obeying the triangle inequality (exactly the
// instances clustering aggregation produces). It is included because it is
// by far the cheapest non-trivial algorithm: a single O(n·k) pass over the
// distance oracle with no matrix required.
//
// rng supplies the pivot order; nil means a deterministic source seeded
// with 1.
func Pivot(inst Instance, rng *rand.Rand) partition.Labels {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := inst.N()
	labels := make(partition.Labels, n)
	for i := range labels {
		labels[i] = partition.Missing
	}
	order := rng.Perm(n)
	next := 0
	for _, pivot := range order {
		if labels[pivot] != partition.Missing {
			continue
		}
		labels[pivot] = next
		for v := 0; v < n; v++ {
			if labels[v] != partition.Missing || v == pivot {
				continue
			}
			if inst.Dist(pivot, v) < 0.5 {
				labels[v] = next
			}
		}
		next++
	}
	return labels.Normalize()
}

// pivotRounds is the number of independent pivot orders PivotWithOptions
// tries, keeping the best.
const pivotRounds = 10

// PivotOptions configures PivotWithOptions.
type PivotOptions struct {
	// Rand supplies the pivot orders; nil means a deterministic source
	// seeded with 1.
	Rand *rand.Rand
	// Recorder, when non-nil, receives the pivot.* counters (rounds run,
	// 1-based index of the best round). Nil records nothing and costs
	// nothing.
	Recorder *obs.Recorder

	// rounds, when positive, replaces pivotRounds. Test hook.
	rounds int
}

// PivotWithOptions runs Pivot pivotRounds times with independent pivot
// orders and returns the lowest-cost clustering — the standard
// de-randomization-by-repetition that makes the expectation guarantee hold
// with high probability in practice.
func PivotWithOptions(inst Instance, opts PivotOptions) partition.Labels {
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rounds := opts.rounds
	if rounds <= 0 {
		rounds = pivotRounds
	}
	var best partition.Labels
	bestCost := 0.0
	bestRound := 0
	for r := 0; r < rounds; r++ {
		labels := Pivot(inst, rng)
		cost := Cost(inst, labels)
		if best == nil || cost < bestCost {
			best, bestCost = labels, cost
			bestRound = r + 1
		}
	}
	if rec := opts.Recorder; rec != nil {
		rec.Add("pivot.rounds", int64(rounds))
		rec.Add("pivot.best_round", int64(bestRound))
	}
	return best
}
