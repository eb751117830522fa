package corrclust

import (
	"math"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// AgglomerativeOptions configures AgglomerativeWithOptions.
type AgglomerativeOptions struct {
	// K, when positive, keeps merging the closest pair (even past the 1/2
	// threshold) until exactly K clusters remain. Zero or negative applies
	// the paper's parameter-free stopping rule.
	K int
	// Recorder, when non-nil, receives the agglomerative.* counters —
	// heap_pops (examinations of the cluster queue's minimum), stale_pops
	// (examinations that found a lower-bound key and rescanned its row)
	// and merges — and the agglomerative.merge_loss series (the merged
	// pair's average distance, one point per merge). Nil records nothing
	// and costs nothing.
	Recorder *obs.Recorder
	// Progress, when non-nil, receives throttled events as merges apply:
	// Done is the merge count so far, Total the n−1 merges a run to a single
	// cluster would take (the parameter-free rule usually stops earlier).
	// After at least one merge a final completion event with Total = Done =
	// total merges is delivered; a run without merges sends none, since
	// Progress drops events with Total = 0. Results are identical with and
	// without it.
	Progress *obs.Progress
}

// Agglomerative runs the AGGLOMERATIVE algorithm of Section 4: start with
// every object in a singleton cluster and repeatedly merge the pair of
// clusters with the smallest average inter-cluster distance, as long as that
// average is below 1/2. The result therefore has the property that the
// average distance between any two merged groups was below 1/2 at merge
// time, and the paper shows the final clusters have average intra-cluster
// pair distance at most 1/2.
//
// The implementation keeps the total inter-cluster edge weight for each
// cluster pair (the average-linkage Lance–Williams update) and Müllner's
// "generic" linkage loop: each cluster caches its nearest larger-index
// partner, and an indexed min-heap of the n clusters orders them by that
// distance. A merge rescans the survivor's row and patches the caches of
// the clusters it touches; a cache invalidated by a merge keeps a lower
// bound and is rescanned only if it reaches the top of the heap. Pairs merge
// in (average, smaller index, larger index) order. The cost is O(n²) space
// and, after the O(n²) distance scan, O(n) work per merge plus one O(n) row
// scan per repaired cache.
func Agglomerative(inst Instance) partition.Labels {
	return AgglomerativeWithOptions(inst, AgglomerativeOptions{})
}

// AgglomerativeWithOptions is Agglomerative with an optional cluster-count
// constraint (opts.K: keep merging the closest pair, even past the 1/2
// threshold, until exactly K clusters remain, or stop early at K clusters
// before the threshold is reached) and instrumentation: when opts.Recorder
// is set, the algorithm's queue and merge activity is counted.
func AgglomerativeWithOptions(inst Instance, opts AgglomerativeOptions) partition.Labels {
	n, k := inst.N(), max(opts.K, 0)
	if n == 0 {
		return partition.Labels{}
	}
	k = min(k, n)

	g := newAgglomerator(n)
	// The initial O(n²) distance scan reads each row tail straight into
	// the totals.
	r := newRowReader(inst)
	for u := 0; u < n; u++ {
		row := g.rows[u]
		copy(row, r.readTail(u, row))
	}
	g.init()

	// labels[c] is c's merge parent while the loop runs: a merge folds b
	// into a < b, so each object points at a smaller index and the final
	// pass resolves every object to its cluster in one ascending sweep.
	labels := partition.Singletons(n)
	var pops, stale, merges int64
	// Merge-loss trajectory: the merged pair's average distance is exactly
	// the per-pair cost the merge trades for, so the series is the greedy
	// "loss per merge" curve rising toward the 0.5 stopping threshold. A nil
	// recorder yields a nil series and the append no-ops.
	lossSeries := opts.Recorder.Series("agglomerative.merge_loss")
	for clusters := n; clusters > 1 && (k == 0 || clusters > k); {
		a := g.queue[0]
		pops++
		if !g.exact[a] {
			stale++
			g.rescan(a)
			g.down(0)
			continue
		}
		avg := g.mind[a]
		if k == 0 && avg >= 0.5 || math.IsInf(avg, 1) {
			// Parameter-free stop: no pair below the threshold remains.
			// +Inf means no comparable pair is left at all (NaN distances).
			break
		}
		b := g.nbr[a]
		g.merge(a, b)
		labels[b] = a
		merges++
		clusters--
		lossSeries.Append(merges, avg)
		opts.Progress.Emit(obs.ProgressEvent{Stage: "agglomerative", Done: merges, Total: int64(n - 1)})
	}
	if rec := opts.Recorder; rec != nil {
		rec.Add("agglomerative.heap_pops", pops)
		rec.Add("agglomerative.stale_pops", stale)
		rec.Add("agglomerative.merges", merges)
	}
	if merges > 0 {
		opts.Progress.Emit(obs.ProgressEvent{Stage: "agglomerative", Done: merges, Total: merges})
	}

	// Resolve parents to normalized ids: a cluster's surviving index is its
	// smallest member, so clusters first appear in survivor order and
	// numbering survivors as they are met is exactly Normalize.
	next := 0
	for i, p := range labels {
		if p == i {
			labels[i] = next
			next++
		} else {
			labels[i] = labels[p]
		}
	}
	return labels
}

// agglomerator is the state of Müllner's generic average-linkage loop. A
// cluster is live while its size is nonzero. For every live cluster a with a
// live partner c > a it caches nbr[a], the
// smallest-index c attaining the row minimum of avg(a, c), and mind[a]:
// that minimum when exact[a], otherwise a lower bound on it. queue is a
// binary min-heap of the live clusters ordered by (mind, index), so once
// its top is exact the top's cached pair is the global (avg, a, b) minimum.
type agglomerator struct {
	n int
	// rows[a] is a's tail of the pairwise total inter-cluster weight:
	// rows[a][j] is the (a, a+1+j) total.
	rows  [][]float64
	size  []int // 0 once the cluster has been merged away
	nbr   []int
	mind  []float64
	exact []bool
	queue []int // heap of live cluster ids
	pos   []int // pos[a]: a's slot in queue
}

// totalsBlock caps one allocation of the totals, in float64s (1 MiB). The
// O(n²) totals live in blocks of whole rows, not in one n(n-1)/2 slice. One
// slice that size needs as many contiguous free heap pages; whether the pages
// a collection freed are still contiguous when it is allocated depends on what
// concurrent goroutines (BestOf's other racers) allocated meanwhile, so the
// heap, and the process's peak resident memory, grew by the whole slice in
// some runs and not in others.
const totalsBlock = 1 << 17

func newAgglomerator(n int) *agglomerator {
	rows := make([][]float64, n)
	for a := 0; a < n; {
		end, size := a+1, n-1-a
		for end < n && size+n-1-end <= totalsBlock {
			size += n - 1 - end
			end++
		}
		block := make([]float64, size)
		for ; a < end; a++ {
			w := n - 1 - a
			rows[a], block = block[:w:w], block[w:]
		}
	}
	// The four O(n) int arrays share one allocation.
	ints := make([]int, 4*n)
	return &agglomerator{
		n:     n,
		rows:  rows,
		size:  ints[0*n : 1*n : 1*n],
		nbr:   ints[1*n : 2*n : 2*n],
		mind:  make([]float64, n),
		exact: make([]bool, n),
		queue: ints[2*n : 3*n : 3*n],
		pos:   ints[3*n : 4*n : 4*n],
	}
}

// at returns the total of the pair {u, v}, u != v.
func (g *agglomerator) at(u, v int) *float64 {
	if u > v {
		u, v = v, u
	}
	return &g.rows[u][v-u-1]
}

// init makes every object a singleton cluster with an exact cache and
// heapifies the queue.
func (g *agglomerator) init() {
	for i := range g.size {
		g.size[i] = 1
	}
	for i := 0; i < g.n; i++ {
		g.rescan(i)
		g.queue[i], g.pos[i] = i, i
	}
	for i := g.n/2 - 1; i >= 0; i-- {
		g.down(i)
	}
}

// rescan recomputes a's cache exactly from its row of live partners c > a;
// ties keep the smaller index. A cluster with no such partner gets +Inf. For
// two singletons the average is the input distance itself (x/1 is exact).
func (g *agglomerator) rescan(a int) {
	best, bestAvg := -1, math.Inf(1)
	for j, t := range g.rows[a] {
		c := a + 1 + j
		if g.size[c] == 0 {
			continue
		}
		if x := t / float64(g.size[a]*g.size[c]); x < bestAvg {
			best, bestAvg = c, x
		}
	}
	g.nbr[a], g.mind[a], g.exact[a] = best, bestAvg, true
}

// merge folds cluster b into cluster a (a < b) and repairs the caches the
// merge can invalidate: a's own row is rescanned, a cluster c < a sees its
// pair (c, a) change and (c, b) vanish, and a cluster a < c < b loses its
// pair (c, b). Clusters above b keep their rows untouched.
func (g *agglomerator) merge(a, b int) {
	g.remove(b)
	g.size[a] += g.size[b]
	g.size[b] = 0
	for c := 0; c < g.n; c++ {
		if g.size[c] == 0 || c == a {
			continue
		}
		ac := g.at(a, c)
		*ac += *g.at(b, c)
		switch {
		case c < a:
			g.updateBelow(c, a, b, *ac/float64(g.size[a]*g.size[c]))
		case c < b && g.exact[c] && g.nbr[c] == b:
			// The row minimum vanished; what remains is no smaller.
			g.exact[c] = false
		}
	}
	g.rescan(a)
	g.fix(g.pos[a])
}

// updateBelow patches the cache of c < a after b merged into a, given the
// new average x of (c, a). Every other pair of c's row is unchanged, and
// was no smaller than mind[c] (lex-after (mind[c], nbr[c]) when exact).
func (g *agglomerator) updateBelow(c, a, b int, x float64) {
	if g.exact[c] && g.nbr[c] != a && g.nbr[c] != b {
		// The minimum survives; (c, a) replaces it only if lex-smaller.
		if x < g.mind[c] || x == g.mind[c] && a < g.nbr[c] {
			g.nbr[c], g.mind[c] = a, x
			g.up(g.pos[c])
		}
		return
	}
	// The cached minimum changed or vanished, or was only a bound: keep a
	// lower bound, lowered to x when rounding puts the merged average under it.
	g.exact[c] = false
	if x < g.mind[c] {
		g.mind[c] = x
		g.up(g.pos[c])
	}
}

func (g *agglomerator) less(i, j int) bool {
	a, b := g.queue[i], g.queue[j]
	return g.mind[a] < g.mind[b] || g.mind[a] == g.mind[b] && a < b
}

func (g *agglomerator) swap(i, j int) {
	q := g.queue
	q[i], q[j] = q[j], q[i]
	g.pos[q[i]], g.pos[q[j]] = i, j
}

// up sifts slot i toward the root and reports whether it moved.
func (g *agglomerator) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !g.less(i, p) {
			break
		}
		g.swap(i, p)
		i, moved = p, true
	}
	return moved
}

func (g *agglomerator) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(g.queue) {
			return
		}
		if r := l + 1; r < len(g.queue) && g.less(r, l) {
			l = r
		}
		if !g.less(l, i) {
			return
		}
		g.swap(i, l)
		i = l
	}
}

func (g *agglomerator) fix(i int) {
	if !g.up(i) {
		g.down(i)
	}
}

// remove drops cluster b from the queue.
func (g *agglomerator) remove(b int) {
	i, last := g.pos[b], len(g.queue)-1
	g.swap(i, last)
	g.queue = g.queue[:last]
	if i < last {
		g.fix(i)
	}
}
