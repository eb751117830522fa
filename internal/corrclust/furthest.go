package corrclust

import (
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// Furthest runs the FURTHEST algorithm of Section 4, a top-down procedure
// inspired by the furthest-first traversal of Hochbaum and Shmoys. It starts
// with all objects in a single cluster, then repeatedly promotes to a new
// center the object furthest from the existing centers, reassigns every
// object to the center that incurs the least cost, and keeps going while the
// objective improves; the solution preceding the first cost increase is
// returned.
func Furthest(inst Instance) partition.Labels {
	labels, _ := FurthestK(inst, 0)
	return labels
}

// FurthestK is Furthest with an optional cluster-count constraint: when
// k > 0 the algorithm runs for exactly k centers (or n if k > n) regardless
// of cost, mirroring how the paper's algorithms can be forced to a
// predefined number of clusters. It returns the labels and the cost of the
// returned solution. With k = 0 the parameter-free stopping rule applies.
func FurthestK(inst Instance, k int) (partition.Labels, float64) {
	return FurthestWithOptions(inst, FurthestOptions{K: k})
}

// FurthestOptions configures FurthestWithOptions.
type FurthestOptions struct {
	// K, when positive, forces exactly K centers; zero applies the paper's
	// parameter-free stopping rule.
	K int
	// Recorder, when non-nil, receives the furthest.* counters (center
	// picks, reassignment rounds). Nil records nothing and costs nothing.
	Recorder *obs.Recorder
}

// FurthestWithOptions is FurthestK with instrumentation.
//
// Both the assignments and the objective are maintained incrementally. Each
// object tracks its nearest center, and a new center only competes against
// that running minimum: reassigning every object to the cheapest center is
// exactly "nearest center wins, earliest center on ties", so one row read of
// the new center replaces the O(n·k) rescan of the naive formulation. The
// objects S that the new center captures are the only ones whose label
// changes, so the cost of the round differs from the running cost by
//
//	Δ = Σ_{v∈S} Σ_{u∉S, C(u)=C'(v)} (1 − 2X_uv) + Σ_{u<v∈S, C'(u)≠C'(v)} (2X_uv − 1)
//
// where C' is the labeling before the round: pairs split off an old cluster
// turn from co-clustered to separated, and pairs from different old
// clusters are joined. Per-cluster member lists hand each captured object
// exactly those partners, so a round costs an O(n) center scan plus at most
// O(|S|·n) reads instead of the O(n²) of re-evaluating Cost. The stopping
// rule compares the running cost, which equals Cost of the current labels
// exactly whenever the distance arithmetic is exact (dyadic distances) and
// to a few ulps otherwise.
func FurthestWithOptions(inst Instance, opts FurthestOptions) (partition.Labels, float64) {
	n, k := inst.N(), opts.K
	var centerPicks, rounds int64
	defer func() {
		if rec := opts.Recorder; rec != nil {
			rec.Add("furthest.center_picks", centerPicks)
			rec.Add("furthest.reassign_rounds", rounds)
		}
	}()
	if n == 0 {
		return partition.Labels{}, 0
	}
	if k > n {
		k = n
	}

	// The first two centers are the furthest-apart pair, found by the scan
	// that sums the single cluster's cost. minDist[v] is the distance from v
	// to its nearest center, labels[v] indexes that center.
	labels := partition.Single(n)
	rows := newRowReader(inst)
	u0, v0, cost := furthestPair(rows)
	if k == 1 {
		return labels, cost
	}
	minDist := rows.readRowInto(u0, make([]float64, n))
	centers := 1
	centerPicks++

	// Per-round scratch, reused: the new center's row, the captured objects
	// and the clusters they came from, and one captured object's partners
	// with their distances.
	centerRow := make([]float64, n)
	moved := make([]int, 0, n)
	from := make([]int, n)
	partners := make([]int, 0, n)
	dist := make([]float64, n)
	members := newMemberLists(n)

	// addCenter promotes c to center of a new cluster, moves every object
	// strictly nearer to c than to its current center (ties keep the
	// earliest center, matching a full cheapest-center rescan), and returns
	// the exact cost change Δ of the move. Only the pairs with a term in Δ
	// are read: for each captured v, the old clustermates it left behind
	// and the captured u < v it was separated from.
	addCenter := func(c int) float64 {
		idx := centers
		centers++
		centerPicks++
		rows.readRowInto(c, centerRow)
		members.add()
		moved = moved[:0]
		for v, d := range centerRow {
			if d < minDist[v] {
				minDist[v] = d
				from[v] = labels[v]
				labels[v] = idx
				members.move(v, from[v], idx)
				moved = append(moved, v)
			}
		}
		var delta float64
		for i, v := range moved {
			fv := from[v]
			partners = partners[:0]
			for u := members.head[fv]; u >= 0; u = members.next[u] {
				partners = append(partners, u)
			}
			split := len(partners)
			for _, u := range moved[:i] {
				if from[u] != fv {
					partners = append(partners, u)
				}
			}
			for j, x := range rows.readTargetsInto(v, partners, dist) {
				if j < split {
					delta += 1 - 2*x // split off
				} else {
					delta += 2*x - 1 // joined
				}
			}
		}
		return delta
	}

	for {
		next := v0
		if centers > 1 {
			// Next center: the object furthest from all existing centers.
			nextDist := -1.0
			for v, d := range minDist {
				if d > nextDist {
					next, nextDist = v, d
				}
			}
			if nextDist == 0 {
				break // every object coincides with a center
			}
		}
		delta := addCenter(next)
		rounds++

		newCost := cost + delta
		if k == 0 && newCost >= cost {
			// Cost stopped improving: undo the round and return the
			// solution preceding it.
			for _, v := range moved {
				labels[v] = from[v]
			}
			break
		}
		cost = newCost
		if (k > 0 && centers >= k) || centers == n {
			break
		}
	}
	return labels.Normalize(), cost
}

// memberLists keeps each cluster's members as an intrusive doubly-linked
// list, so FURTHEST enumerates the clustermates a captured object left
// behind without scanning all n labels.
type memberLists struct {
	head       []int // head[c] = first member of cluster c, -1 when empty
	next, prev []int // neighbors in the object's cluster, -1 at the ends
}

// newMemberLists places all n objects in cluster 0.
func newMemberLists(n int) *memberLists {
	l := &memberLists{head: []int{0}, next: make([]int, n), prev: make([]int, n)}
	for v := range l.next {
		l.next[v], l.prev[v] = v+1, v-1
	}
	l.next[n-1] = -1
	return l
}

// add opens a new, empty cluster.
func (l *memberLists) add() { l.head = append(l.head, -1) }

// move unlinks v from cluster a and pushes it onto cluster b.
func (l *memberLists) move(v, a, b int) {
	if p := l.prev[v]; p >= 0 {
		l.next[p] = l.next[v]
	} else {
		l.head[a] = l.next[v]
	}
	if nx := l.next[v]; nx >= 0 {
		l.prev[nx] = l.prev[v]
	}
	l.prev[v], l.next[v] = -1, l.head[b]
	if l.head[b] >= 0 {
		l.prev[l.head[b]] = v
	}
	l.head[b] = v
}

// furthestPair returns the pair of objects with the largest distance,
// breaking ties toward smaller indices, and Σ_{u<v} X_uv: the cost of the
// single cluster, summed in Cost's order, so it equals Cost bit for bit.
func furthestPair(r rowReader) (u0, v0 int, sum float64) {
	n, buf := r.inst.N(), r.tailBuf()
	bd := -1.0
	for u := 0; u < n; u++ {
		for j, d := range r.readTail(u, buf) {
			sum += d
			if d > bd {
				u0, v0, bd = u, u+1+j, d
			}
		}
	}
	return u0, v0, sum
}
