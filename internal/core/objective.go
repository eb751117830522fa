package core

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file evaluates the objective and its lower bound on the label
// kernel without a pair scan.
//
// Disagreement. The objective D(C) = Σ_i d_V(C_i, C) decomposes per input
// over a contingency table. Pairs with both labels present in C_i
// contribute the Mirkin distance restricted to C_i's present objects O_i,
//
//	Σ_a C(|a|,2) + Σ_b C(|b ∩ O_i|,2) − 2·Σ_ab C(n_ab,2),
//
// over input clusters a and candidate clusters b. Under the coin model a
// pair with a missing endpoint costs ½ whether C co-clusters it or not, so
// input i adds ½·(C(n,2) − C(|O_i|,2)) for those pairs:
//
//	D(C) = Σ_i Mirkin_i + ½·Σ_i (C(n,2) − C(|O_i|,2)).
//
// Every count is an integer, so the whole objective costs one O(n) pass per
// input after a counting sort of the objects by candidate cluster: O(n·m).
// MissingAverage divides each pair by its own vote count, which does not
// decompose; with missing labels present it keeps the O(n²·m) pair scan.
//
// LowerBound. X_uv depends only on the label rows of u and v, so objects
// with identical rows are interchangeable: the bound works over the G
// distinct rows, each carried by c_g objects, instead of the n objects. A
// pair's term depends only on (s, q), the number of inputs that separate
// it and the number missing a label on it, so for m ≤ histMaxM the bound
// fills an integer histogram over (s, q), in the distance table's
// q-major layout, and applies the term once per cell at the end. Pairs
// with a row missing a label are swept: each of those G·(G+1)/2 row pairs
// weighs c_g·c_h (or C(c_g,2) within a row). Pairs of clean rows (q = 0)
// take one of two paths, chosen by a cost model (countCheaper):
//   - the sweep, G_clean²/2 row comparisons a word of lanes at a time;
//   - subset counting, at most 2^m·G_clean row merges: for every subset A
//     of the inputs, the pairs that agree on all of A are Σ C(c,2) over the
//     classes of the rows projected on A, and a superset Möbius transform
//     turns "agree on at least A" into "agree on exactly A", s = m − |A|.
//
// Both fill the histogram with the same integers. Integer histograms merge
// in any order, so the work is split over GOMAXPROCS workers and stays
// bit-identical at every worker count. Above histMaxM every row pair is
// swept, each group's partial sum computed by one worker and the partials
// reduced in group order, which is again worker-independent.
//
// Exactness. Under the coin model every term is a multiple of ½, so both
// values are exact in float64 (below 2⁵²) and LowerBound ≤ Disagreement
// holds bit for bit. FuzzObjectiveExact pins both against the pair scans
// in corrclust at every storage width, and FuzzLowerBoundCounting pins the
// counted histogram to the swept one, cell for cell.

// Disagreement returns the (expected) total number of unordered-pair
// disagreements D(C) = Σ_i d_V(C_i, C) between labels and the inputs. This
// is the objective of Problem 1 on the unordered-pair scale; the paper's
// ordered-pair figure is exactly twice this value.
//
// Under the coin model it costs O(n·m): one contingency-table pass per
// input over the packed label block (see the file comment), with the
// missing-label pairs counted per input. Under MissingAverage
// with missing labels present it is an O(n²·m) pair scan over the label
// block. labels must have one entry per object; partition.Missing counts
// as one more cluster.
func (p *Problem) Disagreement(labels partition.Labels) float64 {
	if len(labels) != p.n {
		panic("core: Disagreement: " + strconv.Itoa(len(labels)) + " labels for " + strconv.Itoa(p.n) + " objects")
	}
	if p.average && p.anyMiss {
		return float64(p.m) * corrclust.Cost(p, labels)
	}
	order, start := clusterOrder(labels)
	all := pairs64(int64(p.n))

	var sc contingencyScratch
	var col partition.Labels
	var ids []int32

	var intSum, missPairs int64
	for i := 0; i < p.m; i++ {
		var t contingencyCounts
		if bound := int(p.maxLab[i]); bound <= 2*p.n {
			sc.grow(bound)
			switch p.width {
			case width8:
				t = contingencyColumn(p.lab8, p.m, i, order, start, &sc)
			default:
				t = contingencyColumn(p.lab32, p.m, i, order, start, &sc)
			}
		} else {
			// Labels spread far wider than n are renumbered densely first.
			if ids == nil {
				col, ids = make(partition.Labels, p.n), make([]int32, p.n)
			}
			p.column(i, col)
			k := 0
			for v, l := range col.Normalize() {
				ids[v] = int32(l) // partition.Missing stays −1, the int32 sentinel
				k = max(k, l+1)
			}
			t = contingencyColumn(ids, 1, 0, order, start, sc.grow(k))
		}
		intSum += t.sumA + t.sumB - 2*t.sumAB
		missPairs += all - pairs64(t.present)
	}
	return float64(intSum) + float64(missPairs)/2
}

// clusterOrder counting-sorts the objects by label: the members of the b-th
// distinct label are order[start[b]:start[b+1]]. Labels whose range is far
// wider than n are renumbered densely first.
func clusterOrder(labels partition.Labels) (order, start []int32) {
	n := len(labels)
	if n == 0 {
		return nil, []int32{0}
	}
	lo, hi := slices.Min(labels), slices.Max(labels)
	if uint(hi-lo) >= uint(2*n) {
		labels = labels.Normalize()
		lo, hi = slices.Min(labels), slices.Max(labels)
	}
	k := hi - lo + 1
	start = make([]int32, k+1)
	for _, l := range labels {
		start[l-lo+1]++
	}
	for b := 0; b < k; b++ {
		start[b+1] += start[b]
	}
	order = make([]int32, n)
	next := make([]int32, k)
	copy(next, start[:k])
	for v, l := range labels {
		order[next[l-lo]] = int32(v)
		next[l-lo]++
	}
	return order, start
}

// contingencyCounts are the integer sums of one input's contingency table
// against the candidate, over the input's present objects.
type contingencyCounts struct {
	present int64 // objects with a label
	sumA    int64 // Σ_a C(|a|,2)
	sumB    int64 // Σ_b C(|b ∩ O_i|,2)
	sumAB   int64 // Σ_ab C(n_ab,2)
}

// contingencyScratch holds per-label counters indexed by input label:
// cnt[a] is n_ab within the current candidate cluster (valid while
// stamp[a] names that cluster), size[a] is |a| so far.
type contingencyScratch struct {
	stamp, cnt, size []int32
}

// grow returns the scratch, reallocated when it holds fewer than k labels.
func (sc *contingencyScratch) grow(k int) *contingencyScratch {
	if len(sc.stamp) < k {
		sc.stamp, sc.cnt, sc.size = make([]int32, k), make([]int32, k), make([]int32, k)
	}
	return sc
}

// contingencyColumn makes one pass over the input column col[v*stride+off]
// in candidate-cluster order and returns its contingency sums. Each count
// grows by one per visit, so C(c+1,2) − C(c,2) = c is added before the
// increment; stamps replace a per-cluster reset of cnt. The scratch is
// cleared for the next column on return.
func contingencyColumn[W labelWord](col []W, stride, off int, order, start []int32, sc *contingencyScratch) contingencyCounts {
	sentinel := missingWord[W]()
	var t contingencyCounts
	for b := 0; b+1 < len(start); b++ {
		stamp := int32(b + 1)
		var inB int64
		for _, v := range order[start[b]:start[b+1]] {
			a := col[int(v)*stride+off]
			if a == sentinel {
				continue
			}
			if sc.stamp[a] != stamp {
				sc.stamp[a], sc.cnt[a] = stamp, 0
			}
			t.sumAB += int64(sc.cnt[a])
			sc.cnt[a]++
			t.sumA += int64(sc.size[a])
			sc.size[a]++
			t.sumB += inB
			inB++
		}
		t.present += inB
	}
	clear(sc.stamp)
	clear(sc.size)
	return t
}

// column writes input clustering i's labels into dst (len n), missing
// entries as partition.Missing.
func (p *Problem) column(i int, dst partition.Labels) {
	switch p.width {
	case width8:
		unpackColumn(p.lab8, i, p.m, dst)
	default:
		unpackColumn(p.lab32, i, p.m, dst)
	}
}

// pairs64 is C(x, 2).
func pairs64(x int64) int64 { return x * (x - 1) / 2 }

// histMaxM caps the distance table and the (s, q) histogram at
// (histMaxM+1)² cells (the histogram once per worker). A problem with more
// inputs builds neither: Dist and DistRowTo evaluate x per pair and the
// lower bound sweeps every row pair.
const histMaxM = 127

// lowerBound returns m·Σ_{u<v} min(X_uv, 1−X_uv) over distinct label rows,
// striped over workers goroutines (0 = GOMAXPROCS). The result is the same
// for every worker count.
func (p *Problem) lowerBound(workers int) float64 {
	switch p.width {
	case width8:
		return lowerBoundW(p, p.lab8, workers)
	default:
		return lowerBoundW(p, p.lab32, workers)
	}
}

// rowGroups is the problem's objects grouped by identical label row, in
// order of first appearance: group g is the row of object rep[g], carried
// by count[g] objects.
type rowGroups struct {
	rep, count []int32
}

// groupRows groups the label rows with an open-addressing hash table over
// the packed block, read in place.
func groupRows[W labelWord](p *Problem, lab []W) rowGroups {
	n, m := p.n, p.m
	size := 1
	for size < 2*n {
		size <<= 1
	}
	slots := make([]int32, size) // group index + 1; 0 is empty
	mask := uint64(size - 1)
	g := rowGroups{rep: make([]int32, 0, n/2), count: make([]int32, 0, n/2)}
	for v := 0; v < n; v++ {
		row := lab[v*m : v*m+m]
		for j := rowHash(row) & mask; ; j = (j + 1) & mask {
			s := slots[j]
			if s == 0 {
				slots[j] = int32(len(g.count)) + 1
				g.rep = append(g.rep, int32(v))
				g.count = append(g.count, 1)
				break
			}
			if r := int(g.rep[s-1]); equalRows(lab[r*m:r*m+m], row) {
				g.count[s-1]++
				break
			}
		}
	}
	return g
}

// rowHash is the FNV-1a hash of a packed label row, high half folded into
// the low bits that index a power-of-two table.
func rowHash[W labelWord](row []W) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range row {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h ^ h>>32
}

func equalRows[W labelWord](a, b []W) bool {
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// lowerBoundW is the width-specialized lower bound.
func lowerBoundW[W labelWord](p *Problem, lab []W, workers int) float64 {
	if p.n < 2 {
		return 0
	}
	g := groupRows(p, lab)
	groups := len(g.count)
	workers = min(EffectiveWorkers(workers), groups)
	l := laneRows(p, lab, g)
	var lb float64
	if p.xs != nil {
		m := p.m
		for c, cnt := range l.histogram(workers, l.countCheaper()) {
			if cnt != 0 {
				lb += float64(cnt) * p.term(c%(m+1), c/(m+1))
			}
		}
		return lb
	}

	// partial[a] sums the terms of group a's pairs with itself and with
	// every later group; one worker owns each group.
	partial := make([]float64, groups)
	stripes("lowerbound", workers, func(stripe int) {
		for a := stripe; a < groups; a += workers {
			ra, ca := l.row(a), l.count[a]
			var sum float64
			if a >= l.clean {
				sum = float64(pairs64(ca)) * p.term(l.sepMiss(ra, ra))
			}
			for b := a + 1; b < groups; b++ {
				sum += float64(ca*l.count[b]) * p.term(l.sepMiss(ra, l.row(b)))
			}
			partial[a] = sum
		}
	})
	for _, s := range partial {
		lb += s
	}
	return lb
}

// term returns m·min(X, 1−X) for a pair that s inputs separate and q miss
// a label on: LowerBound's term on Disagreement's scale. Under the coin
// model, and for every clean pair, it is min(y, m−y) with y = coinSum(s, q):
// m·x(s, q) would round where y is exact (fl(fl(1/49)·49) ≠ 1).
func (p *Problem) term(s, q int) float64 {
	if p.average && q > 0 {
		x := p.x(s, q)
		return float64(p.m) * math.Min(x, 1-x)
	}
	y := coinSum(s, q)
	return math.Min(y, float64(p.m)-y)
}

// stripes runs work(0..workers−1), on goroutines labeled with phase when
// workers > 1.
func stripes(phase string, workers int, work func(stripe int)) {
	if workers == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: phase, Worker: strconv.Itoa(stripe)}, func() { work(stripe) })
		}(w)
	}
	wg.Wait()
}

// lanes holds label rows packed into 64-bit words, one label per lane of
// the storage width (8 lanes of 8 bits or 2 of 32), so one pair of
// rows compares a word at a time. Unused lanes of a row's last word are
// zero in every row: equal and never all-ones, they count neither as a
// separation nor as a missing label. The missing sentinel is the all-ones
// lane at every width. laneRows packs distinct rows, clean ones first.
type lanes struct {
	words []uint64 // row g is words[g*per : g*per+per]
	count []int64  // objects carrying row g
	clean int      // rows [0, clean) have no missing label
	per   int      // words per row
	m     int
	bits  int    // bits per lane
	low   uint64 // the low bits of every lane (0x7F7F…)
	high  uint64 // the high bit of every lane (0x8080…)
}

// row returns row g's words.
func (l *lanes) row(g int) []uint64 {
	return l.words[g*l.per : (g+1)*l.per]
}

// newLanes returns zeroed lanes for rows rows of m labels of width bytes.
func newLanes(m, width, rows int) *lanes {
	l := &lanes{m: m, bits: 8 * width}
	perWord := 64 / l.bits
	l.per = (m + perWord - 1) / perWord
	for i := 0; i < perWord; i++ {
		l.high |= 1 << (l.bits*i + l.bits - 1)
	}
	l.low = l.high ^ ^uint64(0)
	l.words = make([]uint64, rows*l.per)
	return l
}

// packRow packs a label row into row slot g of l.
func packRow[W labelWord](l *lanes, g int, row []W) {
	perWord, lane := 64/l.bits, uint64(1)<<l.bits-1
	out := l.words[g*l.per : (g+1)*l.per]
	for j, x := range row {
		out[j/perWord] |= (uint64(x) & lane) << (l.bits * (j % perWord))
	}
}

// laneRows packs the distinct rows of g, read from the problem's label block
// lab, clean rows first.
func laneRows[W labelWord](p *Problem, lab []W, g rowGroups) *lanes {
	l := newLanes(p.m, p.width, len(g.count))
	l.count = make([]int64, 0, len(g.count))
	for _, missing := range []bool{false, true} {
		for src, r := range g.rep {
			if p.hasMiss[r] != missing {
				continue
			}
			packRow(l, len(l.count), lab[int(r)*p.m:][:p.m])
			l.count = append(l.count, int64(g.count[src]))
		}
		if !missing {
			l.clean = len(l.count)
		}
	}
	return l
}

// nonzero returns the high bit of every nonzero lane of x.
func (l *lanes) nonzero(x uint64) uint64 {
	return ((x&l.low + l.low) | x) & l.high
}

// sep counts the lanes where rows a and b differ.
func (l *lanes) sep(a, b []uint64) int {
	c := 0
	for k, x := range a {
		c += bits.OnesCount64(l.nonzero(x ^ b[k]))
	}
	return c
}

// sepRowTo sets dst[j] = xs[s], s the lanes where rows v, targets[j]
// differ: the distance table's clean cells. It keeps a one-word loop of its
// own: the XOR of two words directly, not lanes.sep on one-word slices.
func (l *lanes) sepRowTo(v int, targets []int, xs, dst []float64) {
	words, per := l.words, l.per
	if per == 1 {
		x := words[v]
		for j, u := range targets {
			dst[j] = xs[bits.OnesCount64(l.nonzero(words[u]^x))]
		}
		return
	}
	rv := words[v*per : v*per+per]
	for j, u := range targets {
		dst[j] = xs[l.sep(words[u*per:u*per+per], rv)]
	}
}

// missing returns the high bit of every all-ones (missing) lane of x.
func (l *lanes) missing(x uint64) uint64 {
	return l.high &^ l.nonzero(^x)
}

// sepMiss counts the lanes of rows a and b that separate the pair, both
// labels present and different (s), and the lanes missing a label on
// either row (q).
func (l *lanes) sepMiss(a, b []uint64) (s, q int) {
	low, high := l.low, l.high
	for k, x := range a {
		// Complemented, a missing lane is zero (see missing): present has
		// the high bit of every lane with both labels present.
		x, y := ^x, ^b[k]
		present := (x&low + low | x) & (y&low + low | y) & high
		x ^= y
		s += bits.OnesCount64((x&low + low | x) & present)
		q += bits.OnesCount64(high &^ present)
	}
	return s, q
}

// histogram counts the object pairs by (s, q), s inputs separating them and
// q missing a label on either object, at hist[q*(m+1)+s], the distance
// table's layout. Workers fill
// histograms of their own over interleaved rows and the integer sums merge
// in any order, so the result does not depend on the worker count.
//
// Pairs of clean rows have q = 0. With bySubset set they are counted by
// input subset (countClean); otherwise they take a loop without missing
// masks that tallies one row's partners by s before weighting them by its
// count. Both fill the same cells with the same integers.
func (l *lanes) histogram(workers int, bySubset bool) []int64 {
	m, per, groups, clean := l.m, l.per, len(l.count), l.clean
	words, count, low, high := l.words, l.count, l.low, l.high
	hists := make([][]int64, workers)
	stripes("lowerbound", workers, func(stripe int) {
		hist := make([]int64, (m+1)*(m+1))
		bySep := make([]int64, m+1) // clean partners of row a, by s
		for a := stripe; a < groups; a += workers {
			ra, ca := words[a*per:(a+1)*per], count[a]
			switch {
			case a >= clean:
				q := 0
				for _, x := range ra {
					q += bits.OnesCount64(l.missing(x))
				}
				hist[q*(m+1)] += pairs64(ca)
			case bySubset: // countClean adds these pairs below
			default:
				clear(bySep)
				partners := count[a+1 : clean]
				if per == 1 {
					x := ra[0]
					for j, y := range words[a+1 : clean] {
						d := x ^ y
						bySep[bits.OnesCount64((d&low+low|d)&high)] += partners[j]
					}
				} else {
					for j := range partners {
						bySep[l.sep(ra, words[(a+1+j)*per:(a+2+j)*per])] += partners[j]
					}
				}
				for s, c := range bySep {
					hist[s] += ca * c
				}
			}
			for b := max(a+1, clean); b < groups; b++ {
				s, q := l.sepMiss(ra, words[b*per:(b+1)*per])
				hist[q*(m+1)+s] += ca * count[b]
			}
		}
		hists[stripe] = hist
	})
	for _, h := range hists[1:] {
		for c, cnt := range h {
			hists[0][c] += cnt
		}
	}
	if bySubset {
		l.countClean(workers, hists[0])
	}
	return hists[0]
}

// countCost is the cost model's c. countClean merges at most 2^m·G rows
// for the G clean distinct rows, hashing and comparing each a word at a
// time; the sweep compares G²/2 row pairs, a word at a time too. Counting
// is cheaper when c·2^m·G·per < G²/2·per, that is when 2c·2^m < G, c being
// the cost of one row merge against one row comparison, per word. Timing
// histogram with and without counting on one worker of a 2-vCPU Intel
// Xeon gave c = 3.6 on the Census stand-in (m = 8, G = 6 713, one word a
// row), 3.2 on the huge recipe at 200 000 rows (m = 6, G = 27 631), and
// 1.9–2.5 at 2, 4 or 5 words a row (m = 10, or the Census rows at 32-bit
// lanes).
const countCost = 3

// countCheaper reports whether countClean undercuts the sweep of the clean
// row pairs by the cost model above. No row count reaches 6·2^40, and the
// bound keeps the shift in range.
func (l *lanes) countCheaper() bool {
	return l.m < 40 && uint64(2*countCost)<<l.m < uint64(l.clean)
}

// countClean adds the pairs of distinct clean rows to hist[s] by
// column subset. For every subset A of the m columns, agree[A] first counts
// the pairs of clean objects that agree on every column of A: Σ C(c, 2)
// over the classes of the rows projected on A, a projection being the lane
// words ANDed with A's mask. A superset Möbius transform then leaves in
// agree[A] the pairs whose agreement set is exactly A, which the inputs
// outside A separate. Pairs of identical rows agree on all m columns; the
// sweep never counts them, and their cell, the full set, is skipped. Every
// intermediate value is a pair count in [0, C(n,2)], so nothing overflows.
func (l *lanes) countClean(workers int, hist []int64) {
	m, full := l.m, 1<<l.m-1
	agree := make([]int64, 1<<m)
	for _, c := range l.count[:l.clean] {
		agree[full] += pairs64(c)
	}
	all := make([]uint64, l.per)
	for j := 0; j < m; j++ {
		k, lane := l.laneMask(j)
		all[k] |= lane
	}
	// The subsets without column j but with every column before it form
	// the subtree below dropping j, 2^(m−1−j) subsets; up to m workers,
	// each with its own O(G) walk, take the next subtree, largest first,
	// as they free up. Every agree[A] is written by one subtree.
	var next atomic.Int64
	stripes("lowerbound", min(workers, m), func(int) {
		w := newSubsetWalk(l, agree)
		for j := int(next.Add(1) - 1); j < m; j = int(next.Add(1) - 1) {
			w.drop(0, full, j, l.clean, all)
		}
	})
	for i := 0; i < m; i++ {
		bit := 1 << i
		for a := range agree {
			if a&bit == 0 {
				agree[a] -= agree[a|bit]
			}
		}
	}
	for a, c := range agree[:full] {
		hist[m-bits.OnesCount(uint(a))] += c
	}
}

// class is one class of a projection: the rows it merges share row rep's
// projection, and count objects carry them.
type class struct{ rep, count int32 }

// subsetWalk visits column subsets depth first, dropping one column per
// level in increasing column order, so every subset but the full set is
// reached once, from the subset with one more column. Its classes merge
// the parent's in place: the subset at depth d owns cls[:n_d], its
// survivors first, and the classes it merged away stay behind them, at
// positions no deeper subset touches, until the parent's counts are given
// back. One walk per worker; its scratch is O(G), whatever the depth.
type subsetWalk struct {
	l     *lanes
	agree []int64
	cls   []class  // the classes of the current subset first
	into  []int32  // for a class merged away at position i, the rep it merged into
	pos   []int32  // pos[rep] is the position of class rep in cls
	slots []int32  // open-addressing table: position + 1; 0 is empty
	mask  []uint64 // the lane mask at each depth, per words each
}

func newSubsetWalk(l *lanes, agree []int64) *subsetWalk {
	w := &subsetWalk{
		l:     l,
		agree: agree,
		cls:   make([]class, l.clean),
		into:  make([]int32, l.clean),
		pos:   make([]int32, l.clean),
		slots: make([]int32, 2<<bits.Len(uint(l.clean))),
		mask:  make([]uint64, l.m*l.per),
	}
	for g := range w.cls {
		w.cls[g] = class{rep: int32(g), count: int32(l.count[g])}
		w.pos[g] = int32(g)
	}
	return w
}

// drop visits subset a without column j, at depth d+1, from a's n classes
// and lane mask, then the subsets below it that drop later columns, and
// leaves a's classes as it found them, up to their order.
func (w *subsetWalk) drop(d, a, j, n int, parentMask []uint64) {
	l := w.l
	mask := w.mask[d*l.per : (d+1)*l.per]
	copy(mask, parentMask)
	k, lane := l.laneMask(j)
	mask[k] &^= lane
	keep, pairs := w.merge(n, mask)
	a &^= 1 << j
	w.agree[a] = pairs
	for i := j + 1; i < l.m; i++ {
		w.drop(d+1, a, i, keep, mask)
	}
	for i := keep; i < n; i++ {
		w.cls[w.pos[w.into[i]]].count -= w.cls[i].count
	}
}

// laneMask returns the word and the bits of column j's lane.
func (l *lanes) laneMask(j int) (int, uint64) {
	perWord := 64 / l.bits
	return j / perWord, (uint64(1)<<l.bits - 1) << (l.bits * (j % perWord))
}

// hashMul is the 64-bit golden-ratio multiplier of Fibonacci hashing. The
// table indexes by the product's top bits: the lanes of a short row sit in
// the low bytes of its word, and low bits of a product depend only on low
// bits of the key.
const hashMul = 0x9E3779B97F4A7C15

// merge groups cls[:n] by their rows' projection under mask: it moves one
// survivor per group to the front, adds the others' counts to it, and
// returns the number of survivors with Σ C(c, 2) over the groups,
// accumulated as C(a+b, 2) = C(a, 2) + C(b, 2) + a·b on every merge. The
// table has at least 2n slots; only that prefix is used and cleared.
func (w *subsetWalk) merge(n int, mask []uint64) (keep int, pairs int64) {
	words, per, cls := w.l.words, w.l.per, w.cls
	used := bits.Len(uint(n)) + 1
	shift, wrap := 64-used, uint64(1)<<used-1
	slots := w.slots[:wrap+1]
	m0 := mask[0]
	for i, c := range cls[:n] {
		// p is c's group's slot, or the empty slot that starts it. One
		// word a row compares the masked words themselves.
		var p uint64
		if per == 1 {
			key := words[c.rep] & m0
			for p = key * hashMul >> shift; slots[p] != 0 && words[cls[slots[p]-1].rep]&m0 != key; p = (p + 1) & wrap {
			}
		} else {
			row := words[int(c.rep)*per:][:per]
			var h uint64
			for k, x := range row {
				h = (h ^ x&mask[k]) * hashMul
			}
			for p = h >> shift; slots[p] != 0 && !sameUnder(words[int(cls[slots[p]-1].rep)*per:][:per], row, mask); p = (p + 1) & wrap {
			}
		}
		if s := slots[p]; s != 0 {
			o := &cls[s-1]
			pairs += int64(o.count) * int64(c.count)
			o.count += c.count
			w.into[i] = o.rep
		} else {
			// cls[keep] was merged away (or is c): swap it behind.
			// pos follows every class moved, merged away or not: each is a
			// class of the parent subset, which finds it through pos when
			// it gives its own counts back.
			slots[p] = int32(keep) + 1
			cls[i], cls[keep], w.into[i] = cls[keep], c, w.into[keep]
			w.pos[cls[i].rep], w.pos[c.rep] = int32(i), int32(keep)
			keep++
		}
		pairs += pairs64(int64(c.count))
	}
	clear(slots)
	return keep, pairs
}

// sameUnder reports whether rows a and b agree on every lane of mask.
func sameUnder(a, b, mask []uint64) bool {
	for k, x := range a {
		if (x^b[k])&mask[k] != 0 {
			return false
		}
	}
	return true
}
