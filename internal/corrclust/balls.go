package corrclust

import (
	"fmt"
	"sort"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// DefaultBallsAlpha is the α of Theorem 1, which guarantees the
// 3-approximation bound.
const DefaultBallsAlpha = 0.25

// RecommendedBallsAlpha is the α = 2/5 that Section 4 reports to work better
// on real datasets (α = 1/4 tends to create many singletons).
const RecommendedBallsAlpha = 0.4

// Balls runs the BALLS algorithm of Section 4: vertices are visited in
// increasing order of total incident edge weight; for each unclustered
// vertex u the ball S of unclustered vertices within distance 1/2 is
// examined, and S ∪ {u} becomes a cluster when the average distance from u
// to S is at most alpha, otherwise u becomes a singleton.
//
// With alpha = DefaultBallsAlpha the result is a 3-approximation of the
// optimal correlation clustering (Theorem 1). Alpha must lie in [0, 1/2];
// α = 0 is legal and merges only balls at average distance exactly zero.
func Balls(inst Instance, alpha float64) (partition.Labels, error) {
	return BallsWithOptions(inst, BallsOptions{Alpha: alpha})
}

// BallsOptions configures BallsWithOptions.
type BallsOptions struct {
	// Alpha is the ball-acceptance threshold, used exactly as given (0 is a
	// legal value); it must lie in [0, 1/2]. Callers wanting the Theorem 1
	// default pass DefaultBallsAlpha explicitly.
	Alpha float64
	// Order is the vertex visiting order (a permutation of 0..n-1). Nil
	// selects the paper's weight-sorted heuristic order ("a heuristic that
	// we observed to work well in practice"); an explicit order lets the
	// heuristic be ablated.
	Order []int
	// Recorder, when non-nil, receives the balls.* counters (clusters,
	// singletons, absorbed ball members, largest ball). Nil records nothing
	// and costs nothing.
	Recorder *obs.Recorder
}

// BallsWithOptions is the fully-configurable BALLS entry point; Balls is a
// thin wrapper over it.
func BallsWithOptions(inst Instance, opts BallsOptions) (partition.Labels, error) {
	alpha := opts.Alpha
	if alpha < 0 || alpha > 0.5 {
		return nil, fmt.Errorf("corrclust: balls alpha %v outside [0, 0.5]", alpha)
	}
	n := inst.N()
	// The weight ordering reads row tails through the row reader, and ball
	// construction reads the unclustered vertices as one target list; the
	// reader yields the same values and charges on every path, so the
	// result is bit-identical.
	r := newRowReader(inst)
	order := opts.Order
	if order == nil {
		// Sort vertices by increasing total incident weight (the paper's
		// heuristic ordering). Ties break by index for determinism.
		weight := make([]float64, n)
		buf := r.tailBuf()
		for u := 0; u < n; u++ {
			rest := weight[u+1:]
			for j, x := range r.readTail(u, buf) {
				weight[u] += x
				rest[j] += x
			}
		}
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			if weight[order[i]] != weight[order[j]] {
				return weight[order[i]] < weight[order[j]]
			}
			return order[i] < order[j]
		})
	}
	if len(order) != n {
		return nil, fmt.Errorf("corrclust: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, u := range order {
		if u < 0 || u >= n || seen[u] {
			return nil, fmt.Errorf("corrclust: order is not a permutation of 0..%d", n-1)
		}
		seen[u] = true
	}
	labels := make(partition.Labels, n)
	for i := range labels {
		labels[i] = partition.Missing
	}

	next := 0
	var singletons, members, maxBall int64
	ball := make([]int, 0, n)
	targets := make([]int, 0, n)
	dists := make([]float64, n)
	for _, u := range order {
		if labels[u] != partition.Missing {
			continue
		}
		targets = targets[:0]
		for v := 0; v < n; v++ {
			if v != u && labels[v] == partition.Missing {
				targets = append(targets, v)
			}
		}
		ball = ball[:0]
		var total float64
		for j, x := range r.readTargetsInto(u, targets, dists) {
			if x <= 0.5 {
				ball = append(ball, targets[j])
				total += x
			}
		}
		labels[u] = next
		if len(ball) > 0 && total/float64(len(ball)) <= alpha {
			for _, v := range ball {
				labels[v] = next
			}
			members += int64(len(ball))
			if int64(len(ball)) > maxBall {
				maxBall = int64(len(ball))
			}
		} else {
			singletons++
		}
		next++
	}
	if rec := opts.Recorder; rec != nil {
		rec.Add("balls.clusters", int64(next))
		rec.Add("balls.singletons", singletons)
		rec.Add("balls.ball_members", members)
		rec.Add("balls.max_ball", maxBall)
	}
	return labels.Normalize(), nil
}
