package corrclust

import (
	"runtime"
	"sync"

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
	labels, _ := FurthestWithOptions(inst, FurthestOptions{})
	return labels
}

// FurthestOptions configures FurthestWithOptions.
type FurthestOptions struct {
	// K, when positive, forces exactly K centers (or n if K > n)
	// regardless of cost, mirroring how the paper's algorithms can be
	// forced to a predefined number of clusters; zero applies the paper's
	// parameter-free stopping rule.
	K int
	// Workers caps the goroutines FURTHEST's two read phases run on: the
	// furthest-pair scan and each round's reads of the objects the new
	// center captures (0 = GOMAXPROCS, 1 = sequential). Partial sums are
	// combined in an order fixed by the instance alone, so labels and the
	// returned cost are bit-identical for every value. A phase of fewer
	// than 16K reads stays on one goroutine whatever the value.
	Workers int
	// Recorder, when non-nil, receives the furthest.* counters (center
	// picks, reassignment rounds, resolved worker count). Nil records
	// nothing and costs nothing.
	Recorder *obs.Recorder
}

// furthestMinParallel is the number of distance reads below which a read
// phase of FURTHEST stays on the calling goroutine: under it, starting and
// joining the workers costs more than the reads they would share. Set by
// measurement on the label kernel, 150 to 1,200 objects on a 2-vCPU host:
// with every phase parallel, two workers lost to one up to 600 objects;
// from 16K reads up, they tied at 150–600 objects and won at 1,200.
const furthestMinParallel = 1 << 14

// furthestBlock is the number of partners a worker reads per bulk call, so
// each worker's scratch is a few kilobytes whatever n is.
const furthestBlock = 256

// FurthestWithOptions is Furthest with a cluster-count constraint,
// instrumentation and parallel reads. It returns the labels and the cost of
// the returned solution.
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
// clusters are joined. After the capture pass, the members each old
// cluster keeps are listed once per round, and every captured object reads
// its split-off partners from that list; so a round costs an O(n) center
// scan plus at most O(|S|·n) reads instead of the O(n²) of re-evaluating
// Cost.
//
// The furthest-pair scan and each round's reads run on opts.Workers
// goroutines. Every sum has a fixed shape: the single cluster's cost is the
// sum of its row-tail sums in row order, and Δ the sum of the captured
// objects' own terms in capture order, so the returned cost does not depend
// on the worker count. The stopping rule compares the running cost, which
// equals Cost of the current labels exactly whenever the distance
// arithmetic is exact (dyadic distances) and to a few ulps otherwise.
func FurthestWithOptions(inst Instance, opts FurthestOptions) (partition.Labels, float64) {
	return furthest(inst, opts, furthestMinParallel)
}

// furthest is FurthestWithOptions with the parallel threshold as a
// parameter, so tests can send instances of any size down the parallel
// path.
func furthest(inst Instance, opts FurthestOptions, minParallel int) (partition.Labels, float64) {
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
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	opts.Recorder.Add("furthest.workers", int64(workers))

	// minDist[v] is the distance from v to its nearest center, labels[v]
	// indexes that center. centerRow holds the pair scan's row sums before
	// the first center exists, and the captured objects' cost terms after
	// each capture pass.
	labels := partition.Single(n)
	rows := newRowReader(inst)
	minDist := make([]float64, n)
	centerRow := make([]float64, n)
	// Each worker reads through a scratch block of its own. spreadOver
	// returns the workers a phase of the given reads runs on, all of them
	// from minParallel reads up, and allocates their blocks on first use.
	block := min(n, furthestBlock)
	scratch := []furthestScratch{newFurthestScratch(block)}
	spreadOver := func(reads int) []furthestScratch {
		if reads < minParallel {
			return scratch[:1]
		}
		for len(scratch) < workers {
			scratch = append(scratch, newFurthestScratch(block))
		}
		return scratch
	}

	// The first two centers are the furthest-apart pair, found by the scan
	// that sums the single cluster's cost.
	u0, v0, cost := furthestPair(rows, spreadOver(n*(n-1)/2), centerRow)
	if k == 1 {
		return labels, cost
	}
	rows.readRowInto(u0, minDist)
	centers := 1
	centerPicks++

	// Per-round scratch, reused: the captured objects, the clusters they
	// came from, and the per-cluster member lists. Object and cluster ids
	// are int32 here, as in the lists, to halve the n-sized buffers.
	moved := make([]int32, 0, n)
	from := make([]int32, n)
	members := newMemberLists(n)

	// capture writes the cost terms of captured object moved[i] (see
	// capturedTerms) to terms[i], reading through worker w's scratch of sc.
	// addCenter sets terms and sc each round; capture itself is made once,
	// so a round on one worker allocates nothing.
	var terms []float64
	var sc []furthestScratch
	capture := func(w, i int) {
		terms[i] = sc[w].capturedTerms(rows, members, moved, from, i)
	}

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
				from[v] = int32(labels[v])
				labels[v] = idx
				members.move(v, int(from[v]), idx)
				moved = append(moved, int32(v))
			}
		}
		reads := members.snapshot(moved, from) + len(moved)*(len(moved)-1)/2
		sc, terms = spreadOver(reads), centerRow[:len(moved)]
		spread(len(sc), len(moved), capture)
		var delta float64
		for _, s := range terms {
			delta += s
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
				labels[v] = int(from[v])
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

// furthestScratch is one worker's read buffers: a block of partner ids and
// their distances.
type furthestScratch struct {
	ids  []int
	dist []float64
}

func newFurthestScratch(block int) furthestScratch {
	return furthestScratch{ids: make([]int, 0, block), dist: make([]float64, block)}
}

// capturedTerms returns the terms of Δ that captured object v = moved[i]
// owns: 1 − 2X_uv for each clustermate u its old cluster kept, in list
// order, then 2X_uv − 1 for each u captured before it from another
// cluster, in capture order. It reads the partners in blocks of sc's size
// and writes nothing but sc.
func (sc *furthestScratch) capturedTerms(rows rowReader, members *memberLists, moved, from []int32, i int) float64 {
	v := int(moved[i])
	fv := from[v]
	var s float64
	split, block := members.rest(int(fv)), len(sc.dist)
	for lo := 0; lo < len(split); lo += block {
		for _, x := range rows.readTargetsInto(v, split[lo:min(lo+block, len(split))], sc.dist) {
			s += 1 - 2*x
		}
	}
	joined := sc.ids[:0]
	for _, u := range moved[:i] {
		if from[u] == fv {
			continue
		}
		if joined = append(joined, int(u)); len(joined) == block {
			s = sc.addJoined(rows, v, joined, s)
			joined = joined[:0]
		}
	}
	return sc.addJoined(rows, v, joined, s)
}

// addJoined adds 2X_uv − 1 for each u in joined to s, in order.
func (sc *furthestScratch) addJoined(rows rowReader, v int, joined []int, s float64) float64 {
	for _, x := range rows.readTargetsInto(v, joined, sc.dist) {
		s += 2*x - 1
	}
	return s
}

// spread runs body(w, i) for every i in [0, count), worker w taking the
// interleaved stripe i ≡ w (mod workers) on a goroutine of its own; the
// calling goroutine is worker 0, so one worker runs the whole loop inline.
func spread(workers, count int, body func(w, i int)) {
	if workers > 1 { // declared here, wg is allocated only when workers start
		var wg sync.WaitGroup
		defer wg.Wait()
		for w := 1; w < workers && w < count; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < count; i += workers {
					body(w, i)
				}
			}(w)
		}
	}
	for i := 0; i < count; i += workers {
		body(0, i)
	}
}

// memberLists keeps each cluster's members as an intrusive doubly-linked
// list, so FURTHEST enumerates the clustermates a captured object left
// behind without scanning all n labels. snapshot flattens the lists a
// round needs once, so each captured object reads them as a slice.
type memberLists struct {
	next, prev []int32      // neighbors in the object's cluster, -1 at the ends
	clusters   []memberList // one per cluster
	spans      []memberSpan // the last snapshot's lists, one per cluster listed
	flat       []int        // the members those lists hold, back to back
}

// memberList is one cluster's list head and the index of its span in the
// last snapshot, which is current only when that span names the cluster.
type memberList struct{ head, span int32 }

// memberSpan is cluster c's list in a snapshot: flat[lo:hi].
type memberSpan struct{ c, lo, hi int32 }

// newMemberLists places all n objects in cluster 0.
func newMemberLists(n int) *memberLists {
	l := &memberLists{
		next: make([]int32, n), prev: make([]int32, n),
		clusters: []memberList{{}}, flat: make([]int, 0, n),
	}
	for v := range l.next {
		l.next[v], l.prev[v] = int32(v+1), int32(v-1)
	}
	l.next[n-1] = -1
	return l
}

// add opens a new, empty cluster.
func (l *memberLists) add() { l.clusters = append(l.clusters, memberList{head: -1}) }

// move unlinks v from cluster a and pushes it onto cluster b.
func (l *memberLists) move(v, a, b int) {
	if p := l.prev[v]; p >= 0 {
		l.next[p] = l.next[v]
	} else {
		l.clusters[a].head = l.next[v]
	}
	if nx := l.next[v]; nx >= 0 {
		l.prev[nx] = l.prev[v]
	}
	hb := &l.clusters[b].head
	l.prev[v], l.next[v] = -1, *hb
	if *hb >= 0 {
		l.prev[*hb] = int32(v)
	}
	*hb = int32(v)
}

// snapshot lists, in link order, the members left in each cluster from[v]
// of a moved object v, each cluster once, and returns the number of reads
// those lists hand the moved objects (the sum of their old clusters'
// remaining sizes). The lists of distinct clusters are disjoint, so they
// fit in flat's n slots together.
func (l *memberLists) snapshot(moved, from []int32) (reads int) {
	l.flat, l.spans = l.flat[:0], l.spans[:0]
	for _, v := range moved {
		c := &l.clusters[from[v]]
		if int(c.span) >= len(l.spans) || l.spans[c.span].c != from[v] {
			lo := len(l.flat)
			for u := c.head; u >= 0; u = l.next[u] {
				l.flat = append(l.flat, int(u))
			}
			c.span = int32(len(l.spans))
			l.spans = append(l.spans, memberSpan{c: from[v], lo: int32(lo), hi: int32(len(l.flat))})
		}
		s := l.spans[c.span]
		reads += int(s.hi - s.lo)
	}
	return reads
}

// rest returns the members cluster c kept at the last snapshot.
func (l *memberLists) rest(c int) []int {
	s := l.spans[l.clusters[c].span]
	return l.flat[s.lo:s.hi]
}

// furthestPair returns the pair of objects with the largest distance,
// breaking ties toward smaller indices, and Σ_{u<v} X_uv, the cost of the
// single cluster: the sum of the row-tail sums Σ_{v>u} X_uv, added in row
// order. The rows are dealt to one worker per scratch in interleaved
// stripes; each keeps its stripe's furthest pair under the same tie rule
// and writes its row sums to rowSums, which are then added in row order,
// so the pair and the sum do not depend on the worker count, bit for bit.
func furthestPair(r rowReader, scratch []furthestScratch, rowSums []float64) (u0, v0 int, sum float64) {
	n := r.inst.N()
	stripes := make([]furthestRow, len(scratch))
	for w := range stripes {
		stripes[w].d = -1
	}
	spread(len(scratch), n, func(w, u int) {
		rowSums[u] = stripes[w].scan(r, u, scratch[w].dist)
	})
	for _, s := range rowSums {
		sum += s
	}
	best := stripes[0]
	for _, st := range stripes[1:] {
		if st.d > best.d || (st.d == best.d && st.u < best.u) {
			best = st
		}
	}
	return best.u, best.v, sum
}

// furthestRow is a running furthest pair (u, v) at distance d, d = −1
// before any pair.
type furthestRow struct {
	u, v int
	d    float64
}

// scan reads row u's tail through buf, returns its sum, and keeps the
// tail's furthest pair when it is strictly further than the running one,
// so ties go to the earlier row, then the earlier column.
func (b *furthestRow) scan(r rowReader, u int, buf []float64) (sum float64) {
	n := r.inst.N()
	for lo := u + 1; lo < n; lo += len(buf) {
		for j, d := range r.readSpan(u, lo, min(lo+len(buf), n), buf) {
			sum += d
			if d > b.d {
				b.u, b.v, b.d = u, lo+j, d
			}
		}
	}
	return sum
}
