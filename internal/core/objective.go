package core

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// This file evaluates the objective and its lower bound on the label
// kernel without a pair scan.
//
// Disagreement. The objective D(C) = Σ_i w_i·d_V(C_i, C) decomposes per
// input over a contingency table. Pairs with both labels present in C_i
// contribute the Mirkin distance restricted to C_i's present objects O_i,
//
//	Σ_a C(|a|,2) + Σ_b C(|b ∩ O_i|,2) − 2·Σ_ab C(n_ab,2),
//
// over input clusters a and candidate clusters b. Under the coin model a
// pair with a missing endpoint costs (1−p)·w_i when C co-clusters it and
// p·w_i when C separates it; how many of those pairs C co-clusters is
// Σ_b C(|b|,2) − Σ_b C(|b ∩ O_i|,2). Every count is an integer, so the
// whole objective costs one O(n) pass per input after a counting sort of
// the objects by candidate cluster: O(n·m). MissingAverage divides each
// pair by its own vote weight, which does not decompose; with missing
// labels present it keeps the O(n²·m) pair scan.
//
// LowerBound. X_uv depends only on the label rows of u and v, so objects
// with identical rows are interchangeable: the bound sweeps the G·(G+1)/2
// pairs of distinct rows, each weighted by c_g·c_h (or C(c_g,2) within a
// group), instead of the n(n−1)/2 object pairs. Under the coin model with
// uniform weights a pair's term depends only on (s, q), the number of inputs that separate
// it and the number missing a label on it, so the sweep fills an integer
// histogram over (s, q) and applies min(x, m−x) once per cell at the end.
// Integer histograms merge in any order, so the sweep is striped over
// GOMAXPROCS workers and stays bit-identical at every worker count. With
// weights or under MissingAverage, each group's partial sum is computed by
// one worker and the partials are reduced in group order, which is again
// worker-independent.
//
// Exactness. Under the coin model with uniform weights and p ∈ {0, ½, 1}
// every term is a multiple of ½, so both values are exact in float64
// (below 2⁵³) and LowerBound ≤ Disagreement holds bit for bit.
// FuzzObjectiveExact pins both against the pair scans in corrclust at
// every storage width.

// disagreement returns D(labels) on the unordered-pair scale. Any int is a
// candidate label; partition.Missing scores as one more cluster, as in the
// pair scan.
func (lk *labelKernel) disagreement(labels partition.Labels) float64 {
	if len(labels) != lk.n {
		panic("core: Disagreement: " + strconv.Itoa(len(labels)) + " labels for " + strconv.Itoa(lk.n) + " objects")
	}
	if lk.average && lk.anyMiss {
		return lk.totalWeight * corrclust.Cost(lk, labels)
	}
	order, start := clusterOrder(labels)
	var together int64 // pairs the candidate co-clusters
	for b := 0; b+1 < len(start); b++ {
		together += pairs64(int64(start[b+1] - start[b]))
	}
	all := pairs64(int64(lk.n))

	var sc contingencyScratch
	var col partition.Labels
	var ids []int32

	var intSum, togetherMiss, apartMiss int64 // uniform weights
	var weighted float64
	for i := 0; i < lk.m; i++ {
		var t contingencyCounts
		if bound := int(lk.maxLab[i]); bound <= 2*lk.n {
			sc.grow(bound)
			switch lk.width {
			case width8:
				t = contingencyColumn(lk.lab8, lk.m, i, order, start, &sc)
			case width16:
				t = contingencyColumn(lk.lab16, lk.m, i, order, start, &sc)
			default:
				t = contingencyColumn(lk.lab32, lk.m, i, order, start, &sc)
			}
		} else {
			// Labels spread far wider than n are renumbered densely first.
			if ids == nil {
				col, ids = make(partition.Labels, lk.n), make([]int32, lk.n)
			}
			lk.column(i, col)
			k := 0
			for v, l := range col.Normalize() {
				ids[v] = int32(l) // partition.Missing stays −1, the int32 sentinel
				k = max(k, l+1)
			}
			t = contingencyColumn(ids, 1, 0, order, start, sc.grow(k))
		}
		mirkin := t.sumA + t.sumB - 2*t.sumAB
		missPairs := all - pairs64(t.present)
		mt := together - t.sumB // missing pairs the candidate co-clusters
		if lk.uniform {
			intSum += mirkin
			togetherMiss += mt
			apartMiss += missPairs - mt
			continue
		}
		w, missW := lk.w[i], lk.missW[i]
		weighted += w*float64(mirkin) + missW*float64(mt) + (w-missW)*float64(missPairs-mt)
	}
	if !lk.uniform {
		return weighted
	}
	missW := lk.missW[0]
	return float64(intSum) + missW*float64(togetherMiss) + (1-missW)*float64(apartMiss)
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
func (lk *labelKernel) column(i int, dst partition.Labels) {
	switch lk.width {
	case width8:
		unpackColumn(lk.lab8, i, lk.m, dst)
	case width16:
		unpackColumn(lk.lab16, i, lk.m, dst)
	default:
		unpackColumn(lk.lab32, i, lk.m, dst)
	}
}

// pairs64 is C(x, 2).
func pairs64(x int64) int64 { return x * (x - 1) / 2 }

// histMaxM caps the (s, q) histogram at (histMaxM+1)² cells per worker;
// uniform coin-model problems with more inputs take the partial-sum path.
const histMaxM = 127

// lowerBound returns W·Σ_{u<v} min(X_uv, 1−X_uv) over distinct label rows,
// striped over workers goroutines (0 = GOMAXPROCS). The result is the same
// for every worker count.
func (lk *labelKernel) lowerBound(workers int) float64 {
	switch lk.width {
	case width8:
		return lowerBoundW(lk, lk.lab8, workers)
	case width16:
		return lowerBoundW(lk, lk.lab16, workers)
	default:
		return lowerBoundW(lk, lk.lab32, workers)
	}
}

// rowGroups is the kernel's objects grouped by identical label row, in
// order of first appearance: group g is the row of object rep[g], carried
// by count[g] objects.
type rowGroups struct {
	rep, count []int32
}

// groupRows groups the label rows with an open-addressing hash table over
// the packed block, read in place.
func groupRows[W labelWord](lk *labelKernel, lab []W) rowGroups {
	n, m := lk.n, lk.m
	size := 1
	for size < 2*n {
		size <<= 1
	}
	slots := make([]int32, size) // group index + 1; 0 is empty
	mask := uint64(size - 1)
	g := rowGroups{rep: make([]int32, 0, n/2), count: make([]int32, 0, n/2)}
	for v := 0; v < n; v++ {
		row := lab[v*m : v*m+m]
		h := uint64(14695981039346656037)
		for _, x := range row {
			h = (h ^ uint64(x)) * 1099511628211
		}
		for j := (h ^ h>>32) & mask; ; j = (j + 1) & mask {
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

func equalRows[W labelWord](a, b []W) bool {
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// lowerBoundW is the width-specialized lower bound.
func lowerBoundW[W labelWord](lk *labelKernel, lab []W, workers int) float64 {
	if lk.n < 2 {
		return 0
	}
	g := groupRows(lk, lab)
	groups := len(g.count)
	workers = min(effectiveWorkers(workers), groups)
	m := lk.m
	average := lk.average && lk.anyMiss

	if lk.uniform && !average && m <= histMaxM {
		hist := laneRows(lk, lab, g).histogram(workers)
		// A pair's term on the W = m scale is min(x, m−x), x = s + (1−p)·q.
		tw, missW := float64(m), lk.missW[0]
		var lb float64
		for c, cnt := range hist {
			if cnt != 0 {
				x := float64(c/(m+1)) + missW*float64(c%(m+1))
				lb += float64(cnt) * math.Min(x, tw-x)
			}
		}
		return lb
	}

	// partial[a] sums the terms of group a's pairs with itself and with
	// every later group; one worker owns each group.
	partial := make([]float64, groups)
	stripes(workers, func(stripe int) {
		for a := stripe; a < groups; a += workers {
			ua := int(g.rep[a])
			ra, ca := lab[ua*m:ua*m+m], int64(g.count[a])
			var sum float64
			if lk.hasMiss[ua] {
				sum = float64(pairs64(ca)) * pairTerm(lk, ra, ra, average)
			}
			for b := a + 1; b < groups; b++ {
				ub := int(g.rep[b])
				miss := lk.hasMiss[ua] || lk.hasMiss[ub]
				sum += float64(ca*int64(g.count[b])) * pairTerm(lk, ra, lab[ub*m:ub*m+m], average && miss)
			}
			partial[a] = sum
		}
	})
	var lb float64
	for _, s := range partial {
		lb += s
	}
	return lb
}

// stripes runs work(0..workers−1), on goroutines when workers > 1.
func stripes(workers int, work func(stripe int)) {
	if workers == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "lowerbound", Worker: strconv.Itoa(stripe)}, func() { work(stripe) })
		}(w)
	}
	wg.Wait()
}

// lanes holds distinct label rows packed into 64-bit words, one label per
// lane of the storage width (8 lanes of 8 bits, 4 of 16 or 2 of 32), so
// one pair of rows compares a word at a time. Unused lanes of a row's last
// word are zero in every row: equal and never all-ones, they count neither
// as a separation nor as a missing label. The missing sentinel is the
// all-ones lane at every width. Rows without a missing label come first.
type lanes struct {
	words []uint64 // row g is words[g*per : g*per+per]
	count []int64  // objects carrying row g
	clean int      // rows [0, clean) have no missing label
	per   int      // words per row
	m     int
	low   uint64 // the low bits of every lane (0x7F7F…)
	high  uint64 // the high bit of every lane (0x8080…)
}

// laneRows packs the distinct rows of g, read from the kernel's label block
// lab, into lanes of the kernel's width, clean rows first.
func laneRows[W labelWord](lk *labelKernel, lab []W, g rowGroups) *lanes {
	m, laneBits := lk.m, 8*lk.width
	perWord := 64 / laneBits
	groups := len(g.count)
	l := &lanes{per: (m + perWord - 1) / perWord, m: m, count: make([]int64, 0, groups)}
	lane := uint64(1)<<laneBits - 1
	for i := 0; i < perWord; i++ {
		l.high |= 1 << (laneBits*i + laneBits - 1)
	}
	l.low = l.high ^ ^uint64(0)
	l.words = make([]uint64, groups*l.per)
	for _, missing := range []bool{false, true} {
		for src, r := range g.rep {
			if lk.hasMiss[r] != missing {
				continue
			}
			out := l.words[len(l.count)*l.per : (len(l.count)+1)*l.per]
			for j, x := range lab[int(r)*m : int(r)*m+m] {
				out[j/perWord] |= (uint64(x) & lane) << (laneBits * (j % perWord))
			}
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

// missing returns the high bit of every all-ones (missing) lane of x.
func (l *lanes) missing(x uint64) uint64 {
	return l.high &^ l.nonzero(^x)
}

// histogram counts the object pairs by (s, q), s inputs separating them and
// q missing a label on either object, at hist[s*(m+1)+q]. Workers fill
// histograms of their own over interleaved rows and the integer sums merge
// in any order, so the result does not depend on the worker count.
//
// Pairs of clean rows have q = 0; they take a loop without missing masks
// that tallies one row's partners by s before weighting them by its count.
func (l *lanes) histogram(workers int) []int64 {
	m, per, groups, clean := l.m, l.per, len(l.count), l.clean
	words, count, low, high := l.words, l.count, l.low, l.high
	hists := make([][]int64, workers)
	stripes(workers, func(stripe int) {
		hist := make([]int64, (m+1)*(m+1))
		bySep := make([]int64, m+1) // clean partners of row a, by s
		for a := stripe; a < groups; a += workers {
			ra, ca := words[a*per:(a+1)*per], count[a]
			if a < clean {
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
						rb := words[(a+1+j)*per : (a+2+j)*per]
						s := 0
						for k, x := range ra {
							d := x ^ rb[k]
							s += bits.OnesCount64((d&low + low | d) & high)
						}
						bySep[s] += partners[j]
					}
				}
				for s, c := range bySep {
					hist[s*(m+1)] += ca * c
				}
			} else {
				q := 0
				for _, x := range ra {
					q += bits.OnesCount64(l.missing(x))
				}
				hist[q] += pairs64(ca)
			}
			for b := max(a+1, clean); b < groups; b++ {
				rb := words[b*per : (b+1)*per]
				s, q := 0, 0
				for k, x := range ra {
					mm := l.missing(x) | l.missing(rb[k])
					q += bits.OnesCount64(mm)
					s += bits.OnesCount64(l.nonzero(x^rb[k]) &^ mm)
				}
				hist[s*(m+1)+q] += ca * count[b]
			}
		}
		hists[stripe] = hist
	})
	for _, h := range hists[1:] {
		for c, cnt := range h {
			hists[0][c] += cnt
		}
	}
	return hists[0]
}

// pairTerm returns W·min(X, 1−X) for two label rows: under the coin model
// from the unnormalized separating weight x, as min(x, W−x); under
// MissingAverage (average set) through the kernel's own pair distance.
func pairTerm[W labelWord](lk *labelKernel, a, b []W, average bool) float64 {
	tw := lk.totalWeight
	if average {
		x := pairDist(lk, a, b, true)
		return tw * math.Min(x, 1-x)
	}
	sentinel := missingWord[W]()
	var x float64
	for i, la := range a {
		lb := b[i]
		switch {
		case la == sentinel || lb == sentinel:
			x += lk.missW[i]
		case la != lb:
			x += lk.w[i]
		}
	}
	return math.Min(x, tw-x)
}
