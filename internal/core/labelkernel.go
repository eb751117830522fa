package core

// This file is the Problem's distance kernel: the m input clusterings packed
// into one row-major per-object block of labels, so that distance
// evaluation becomes a tight contiguous label-compare loop instead of a
// per-pair interface probe through a slice of slices.
//
// A Problem is itself the correlation-clustering instance of Section 3's
// reduction. It holds object v's labels at lab[v*m : v*m+m] (the packed
// block it was built over, aliased zero-copy) and a per-object has-missing
// flag. A pair's distance depends only on two integers: s, the inputs that
// separate it (both labels present and different), and q, the inputs
// missing a label on it. x(s, q) is the only place the formula lives, and
// a table memoizes it. Dist counts (s, q) in one integer label loop;
// DistRowTo (which makes the Problem a corrclust.RowDistancer) counts them
// with popcounts over lane-packed rows, a clean pair with one mask; both
// read the table. Readers differ only in how they count, never in
// arithmetic, so Dist, DistRowTo and the matrix agree bit for bit. They
// are bit-identical to the textbook per-clustering []int pair loop too (a
// test-only reference), in both missing modes and at every m: each of its
// partial sums is a multiple of ½, exact in float64. The equivalence tests
// and FuzzLabelKernelEquiv pin both.
//
// Width packing: labels are stored at one of two widths — uint8 when every
// label fits below the byte's sentinel, int32 otherwise — selected by
// PackedBuilder as labels arrive. The working assumption (and the common
// case by far) is k ≤ 255 clusters per input clustering: then every label
// block packs to one byte per clustering, quartering the memory traffic of
// the O(n·m) assignment scan relative to the int32 layout and keeping the
// per-clustering co-label histograms cache-resident. Missing labels take
// the width's all-ones sentinel (0xFF / −1), so uint8 holds labels
// 0..254 and int32 everything else. Every inner loop (Dist, the lane
// packing, histogram build and evaluation) is a generic function
// instantiated per width; the float arithmetic is width-independent, so
// both widths produce bit-identical distances
// (TestLabelKernelWidthsBitIdentical, FuzzLabelKernelWidths).
//
// On top of the kernel, SAMPLING's assignment phase (sampling.go) replaces
// its O(m·s) per-object probing with O(m·k) co-label histograms: for each
// clustering, the count of sample members per (input label, sample cluster)
// is precomputed once, and M(v, C_c) for all k sample clusters falls out of
// one pass over v's label block. That pass reads nothing of v but its
// label row, so each assignment stripe memoizes the decision per distinct
// row (twinMemo in sampling.go) and evaluates a repeated row only once.
// See colabelHist below and docs/PERFORMANCE.md for the arithmetic and the
// equivalence contract.

// labelWord is a storage width for packed labels. The missing sentinel is
// the type's all-ones value (see missingWord), so the usable label range is
// 0..254 for uint8 and all non-negative ints for int32 (whose sentinel −1
// matches the historical encoding).
type labelWord interface {
	uint8 | int32
}

// missingWord returns the width's missing-label sentinel: all bits set
// (255, or −1 for int32).
func missingWord[W labelWord]() W {
	var zero W
	return zero - 1
}

// Storage widths in bytes per label.
const (
	width8  = 1
	width32 = 4
)

// widthFor selects the narrowest width whose sentinel does not collide with
// a stored label: bound is the exclusive upper bound on present labels.
// Any label ≥ 255 goes straight to int32.
func widthFor(bound int32) int {
	if bound <= 0xFF { // labels ≤ 254, sentinel 255 free
		return width8
	}
	return width32
}

// x returns X_uv for a pair of objects that s inputs separate (both labels
// present and different) and q miss a label on (either label missing):
// (s + q/2)/m under the coin model, s/(m−q) under MissingAverage, and
// ½ under MissingAverage when no input votes (q = m). It is the only place
// the distance formula lives: every reader counts (s, q) on integers and
// reads x through the table (xs) or, above histMaxM, calls it.
func (p *Problem) x(s, q int) float64 {
	if !p.average {
		return coinSum(s, q) / float64(p.m)
	}
	if q == p.m {
		return 0.5
	}
	return float64(s) / float64(p.m-q)
}

// coinSum is the coin model's s + q/2, that is m·X_uv before the division
// rounds it; it is exact.
func coinSum(s, q int) float64 {
	return float64(s) + float64(q)/2
}

// distTable returns x memoized q-major, cell q*(m+1)+s for s + q ≤ m, or
// nil when m > histMaxM. The cells with s + q > m are never read.
func (p *Problem) distTable() []float64 {
	m := p.m
	if m > histMaxM {
		return nil
	}
	xs := make([]float64, (m+1)*(m+1))
	for q := 0; q <= m; q++ {
		for s := 0; s+q <= m; s++ {
			xs[q*(m+1)+s] = p.x(s, q)
		}
	}
	return xs
}

// dist reads x(s, q) from the table, or evaluates it above histMaxM.
func (p *Problem) dist(s, q int) float64 {
	if p.xs == nil {
		return p.x(s, q)
	}
	return p.xs[q*(p.m+1)+s]
}

// Dist returns X_uv: the (expected) fraction of input clusterings that place
// u and v in different clusters. Dist satisfies corrclust.Instance and obeys
// the triangle inequality under the coin model. Under MissingAverage only
// clusterings with values on both objects vote, and a pair with no votes at
// all is maximally uncertain (distance 1/2); those averaged distances need
// not obey the triangle inequality (different pairs average over different
// clusterings), so the BALLS guarantee does not formally carry over and the
// algorithms apply as heuristics.
func (p *Problem) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	m := p.m
	switch p.width {
	case width8:
		return p.dist(countSepMiss(p.lab8[u*m:u*m+m], p.lab8[v*m:v*m+m]))
	default:
		return p.dist(countSepMiss(p.lab32[u*m:u*m+m], p.lab32[v*m:v*m+m]))
	}
}

// countSepMiss counts the inputs that separate a pair (s) and those
// missing a label on it (q) from the pair's label blocks.
func countSepMiss[W labelWord](bu, bv []W) (s, q int) {
	sentinel := missingWord[W]()
	for i, lu := range bu {
		switch lv := bv[i]; {
		case lu == sentinel || lv == sentinel:
			q++
		case lu != lv:
			s++
		}
	}
	return s, q
}

// DistRowTo evaluates v against many targets in one call:
// dst[j] = Dist(v, targets[j]), including zeros for diagonal hits. It
// makes the Problem a corrclust.RowDistancer, so the algorithms read whole
// rows in one call; dst must have len(targets) capacity. Safe for
// concurrent use with distinct dst buffers.
//
// Every pair is read from lane-packed rows. A clean v reads every partner
// as clean first, one popcount of separating lanes and a read of the
// table's first m+1 cells, then rereads the partners with a missing label
// (missRowTo).
func (p *Problem) DistRowTo(v int, targets []int, dst []float64) {
	l := p.laneBlock()
	if p.xs != nil && !p.hasMiss[v] {
		l.sepRowTo(v, targets, p.xs, dst)
		if !p.anyMiss {
			return
		}
	}
	p.missRowTo(l, v, targets, dst)
}

// laneBlock returns every object's label row packed into lanes, packing
// them on the first call.
func (p *Problem) laneBlock() *lanes {
	p.rowsOnce.Do(func() {
		p.rows = newLanes(p.m, p.width, p.n)
		for u := 0; u < p.n; u++ {
			switch p.width {
			case width8:
				packRow(p.rows, u, p.lab8[u*p.m:][:p.m])
			default:
				packRow(p.rows, u, p.lab32[u*p.m:][:p.m])
			}
		}
	})
	return p.rows
}

// missRowTo sets dst[j] = dist(s, q) for each pair v, targets[j] with a
// missing label on either side, s and q as lanes.sepMiss counts them, and
// 0 on the diagonal. Other pairs keep dst[j], except above histMaxM, where
// sepRowTo has no table to read and missRowTo sets every pair.
func (p *Problem) missRowTo(l *lanes, v int, targets []int, dst []float64) {
	words, per := l.words, l.per
	rv := words[v*per : v*per+per]
	cleanRead := p.xs != nil && !p.hasMiss[v]
	for j, u := range targets {
		switch {
		case cleanRead && !p.hasMiss[u]:
		case u == v:
			dst[j] = 0
		default:
			dst[j] = p.dist(l.sepMiss(words[u*per:u*per+per], rv))
		}
	}
}

// histBoundCap bounds the per-clustering label range the co-label
// histograms size themselves by without rescanning the sample: when a
// clustering's global label bound (maxLab, from the packing) is
// at most this, the histogram reuses it directly — under the k ≤ 255
// assumption that is every clustering, and the cnt rows stay
// cache-resident. A wider clustering (e.g. an all-singletons input) falls
// back to one row-major scan over the sample members for the tight
// sample-observed bound, so histogram memory never scales with the global
// label count.
const histBoundCap = 1024

// colabelHist holds the co-label histograms of one sample clustering over
// the input clusterings: everything needed to evaluate M(v, C_c) for all k
// sample clusters in one O(m·k) pass over v's label block.
//
// For input clustering i, a sample cluster C_c splits into pres_i[c]
// members with a label in clustering i and miss_i[c] = |C_c| − pres_i[c]
// members without one. An object v with present label ℓ contributes to
// m·M(v, C_c)
//
//	(pres_i[c] − cnt_i[ℓ][c]) + miss_i[c]/2 = base[i][c] − cnt_i[ℓ][c],
//
// where cnt_i[ℓ][c] counts C_c's members carrying label ℓ in clustering i;
// an object missing in clustering i contributes |C_c|/2 = missAll[i][c].
// Summing the per-clustering contributions and dividing once by m yields
// M(v, C_c) — the pairs' (s, q) counts summed per clustering instead of per
// member. Every sum before the division is a multiple of ½ and exact, so
// the histogram path is bit-identical to the probing path wherever the
// probing sum of the divided distances is exact too (a power-of-two m; see
// docs/PERFORMANCE.md) and within float drift otherwise.
//
// The histograms do not apply under MissingAverage with missing labels
// present: there each pair divides by its own vote count, which does not
// decompose per clustering. That regime keeps the kernel's row path
// (assignDecide's DistRowTo route), which is bit-identical to probing
// unconditionally.
type colabelHist struct {
	k int
	// Per input clustering i: labBound[i] bounds the labels with term rows
	// (labels ≥ labBound[i] have no sample member carrying them and take
	// the base row as is — the packed block's global bound by default, the
	// sample-observed bound for clusterings wider than histBoundCap),
	// term[i][ℓ*k+c] = base[i][c] − cnt_i[ℓ][c], the whole contribution
	// of a present label ℓ, and base[i][c] and missAll[i][c] as derived
	// above.
	labBound []int32
	term     [][]float64
	base     [][]float64
	missAll  [][]float64
}

// buildColabelHist builds the histograms for the given sample clusters
// (members holds original object indices per sample cluster) in
// O(s·m + m·L·k) time and O(m·L·k) space, L the per-clustering label
// bound. The bound comes for free from the packed block (maxLab) for
// clusterings within histBoundCap; wider ones are tightened
// to the sample-observed bound by one extra row-major pass over the
// members. A label no member carries has the term row base − 0, which
// is base, so the larger default bound changes no arithmetic and the paths
// stay bit-identical.
func (p *Problem) buildColabelHist(members [][]int) *colabelHist {
	switch p.width {
	case width8:
		return buildColabelHistW(p, p.lab8, members)
	default:
		return buildColabelHistW(p, p.lab32, members)
	}
}

// buildColabelHistW is the width-specialized histogram build.
func buildColabelHistW[W labelWord](p *Problem, lab []W, members [][]int) *colabelHist {
	k, m := len(members), p.m
	h := &colabelHist{
		k:        k,
		labBound: make([]int32, m),
		term:     make([][]float64, m),
		base:     make([][]float64, m),
		missAll:  make([][]float64, m),
	}
	// Label bounds: reuse the packed block's global per-clustering bound where it
	// keeps the histogram cache-resident; rescan the sample (one row-major
	// pass over the members for all remaining clusterings at once) only for
	// wider clusterings.
	sentinel := missingWord[W]()
	needScan := false
	for i, b := range p.maxLab {
		if b <= histBoundCap {
			h.labBound[i] = b
		} else {
			h.labBound[i] = -1
			needScan = true
		}
	}
	if needScan {
		for _, mem := range members {
			for _, u := range mem {
				bu := lab[u*m : u*m+m]
				for i := range h.labBound {
					if p.maxLab[i] <= histBoundCap {
						continue
					}
					if l := bu[i]; l != sentinel && int32(l) >= h.labBound[i] {
						h.labBound[i] = int32(l) + 1
					}
				}
			}
		}
		for i, b := range h.labBound {
			if b < 0 { // wide clustering absent from the sample
				h.labBound[i] = 0
			}
		}
	}
	// Counts: one row-major pass over the members fills every clustering's
	// histogram (raw integer counts and per-cluster missing tallies; turned
	// into term rows below).
	miss := make([]int, m*k)
	for i := 0; i < m; i++ {
		h.term[i] = make([]float64, int(h.labBound[i])*k)
	}
	for c, mem := range members {
		for _, u := range mem {
			bu := lab[u*m : u*m+m]
			for i, l := range bu {
				if l == sentinel {
					miss[i*k+c]++
				} else {
					h.term[i][int(l)*k+c]++
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		base := make([]float64, k)
		missAll := make([]float64, k)
		for c, mem := range members {
			pres := len(mem) - miss[i*k+c]
			base[c] = float64(pres) + float64(miss[i*k+c])/2
			missAll[c] = float64(len(mem)) / 2
		}
		// term = base − count, the counts already in place.
		term := h.term[i]
		for off := 0; off < len(term); off += k {
			row := term[off : off+k]
			for c, cnt := range row {
				row[c] = base[c] - cnt
			}
		}
		h.base[i] = base
		h.missAll[i] = missAll
	}
	return h
}

// affBlock is the most rows one pass of affinitiesW adds per cluster.
const affBlock = 8

// affinitiesW fills dst[c] = M(v, C_c) = Σ_{u∈C_c} X_vu for every sample
// cluster in one O(m·k) pass over v's label block, and returns
// totalAway = Σ_c (sizes[c] − dst[c]) summed in c order; dst and sizes
// have length k.
//
// It first picks clustering i's row for v — term[i][ℓ·k:], base[i] or
// missAll[i] — then adds up to affBlock rows per pass over the k
// clusters, dst[c] = r0[c] + r1[c] + …; past the first pass dst itself is
// the leading row, and the last pass divides by m and tallies totalAway.
// Go adds left to right, so each dst[c] takes the additions of the
// clustering-by-clustering loop (affinitiesReference in the tests:
// dst[c] = 0, then dst[c] += row_i[c] per clustering, then dst[c] /= m)
// in the same order. The leading 0 + is dropped: no row holds −0 (base
// and missAll entries are sums and products of non-negative values, term
// entries differences x − y with x ≥ y, all +0 when zero), so 0 + r0[c]
// is r0[c] and the result is bit-identical.
func affinitiesW[W labelWord](h *colabelHist, lab []W, v int, sizes, dst []float64) (totalAway float64) {
	m, k := len(h.term), h.k
	bv := lab[v*m : v*m+m]
	sentinel := missingWord[W]()
	var rows [affBlock][]float64
	w := 0
	for i, lv := range bv {
		if w == affBlock { // a full pass with rows still to come
			sumRows8(dst, &rows)
			rows[0], w = dst, 1
		}
		switch {
		case lv == sentinel:
			rows[w] = h.missAll[i]
		case int32(lv) >= h.labBound[i]:
			rows[w] = h.base[i]
		default:
			rows[w] = h.term[i][int(lv)*k : int(lv+1)*k]
		}
		w++
	}
	return foldRows(dst, rows[:w], sizes, float64(m))
}

// sumRows8 sets dst[c] = r[0][c] + … + r[7][c]; r[0] may be dst.
func sumRows8(dst []float64, r *[affBlock][]float64) {
	n := len(dst)
	r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
	r4, r5, r6, r7 := r[4][:n], r[5][:n], r[6][:n], r[7][:n]
	for c := range dst {
		dst[c] = r0[c] + r1[c] + r2[c] + r3[c] + r4[c] + r5[c] + r6[c] + r7[c]
	}
}

// foldRows is the last pass: dst[c] = (r[0][c] + … + r[len(r)−1][c]) / fm
// for 1 ≤ len(r) ≤ affBlock, r[0] possibly dst, and it returns
// Σ_c (sizes[c] − dst[c]) in c order.
func foldRows(dst []float64, r [][]float64, sizes []float64, fm float64) (totalAway float64) {
	n := len(dst)
	sizes = sizes[:n]
	switch len(r) {
	case 1:
		r0 := r[0][:n]
		for c := range dst {
			x := r0[c] / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 2:
		r0, r1 := r[0][:n], r[1][:n]
		for c := range dst {
			x := (r0[c] + r1[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 3:
		r0, r1, r2 := r[0][:n], r[1][:n], r[2][:n]
		for c := range dst {
			x := (r0[c] + r1[c] + r2[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 4:
		r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
		for c := range dst {
			x := (r0[c] + r1[c] + r2[c] + r3[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 5:
		r0, r1, r2, r3, r4 := r[0][:n], r[1][:n], r[2][:n], r[3][:n], r[4][:n]
		for c := range dst {
			x := (r0[c] + r1[c] + r2[c] + r3[c] + r4[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 6:
		r0, r1, r2, r3, r4, r5 := r[0][:n], r[1][:n], r[2][:n], r[3][:n], r[4][:n], r[5][:n]
		for c := range dst {
			x := (r0[c] + r1[c] + r2[c] + r3[c] + r4[c] + r5[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 7:
		r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
		r4, r5, r6 := r[4][:n], r[5][:n], r[6][:n]
		for c := range dst {
			x := (r0[c] + r1[c] + r2[c] + r3[c] + r4[c] + r5[c] + r6[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	case 8:
		r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
		r4, r5, r6, r7 := r[4][:n], r[5][:n], r[6][:n], r[7][:n]
		for c := range dst {
			x := (r0[c] + r1[c] + r2[c] + r3[c] + r4[c] + r5[c] + r6[c] + r7[c]) / fm
			dst[c] = x
			totalAway += sizes[c] - x
		}
	}
	return totalAway
}
