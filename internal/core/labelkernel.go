package core

// This file is the Problem's distance kernel: the m input clusterings packed
// into one row-major per-object block of labels, so that distance
// evaluation becomes a tight contiguous label-compare loop instead of a
// per-pair interface probe through a slice of slices.
//
// A Problem is itself the correlation-clustering instance of Section 3's
// reduction. It holds object v's labels at lab[v*m : v*m+m] (the packed
// block it was built over, aliased zero-copy), per-clustering weights and
// the coin-model missing contribution premultiplied, and a per-object
// has-missing flag. Dist evaluates one pair; one-against-many evaluation
// (DistRowTo, which makes the Problem a corrclust.RowDistancer) streams two
// contiguous label blocks per pair.
// Under uniform weights a clean pair collapses to an integer label-mismatch
// count; in DistRowTo, under uniform weights with no missing label or the
// coin model at p ∈ {0, ½, 1}, every pair is two popcounts over lane-packed
// rows (separating and missing lanes), read from a table of exact sums.
// Every loop performs the same float operations in the same order as the
// textbook per-clustering []int pair loop (premultiplied products round
// identically to the inline ones), so kernel distances are bit-identical
// to it — not merely close. The equivalence
// tests and FuzzLabelKernelEquiv pin that against a test-only copy of the
// loop.
//
// Width packing: labels are stored at one of two widths — uint8 when every
// label fits below the byte's sentinel, int32 otherwise — selected by
// PackedBuilder as labels arrive. The working assumption (and the common
// case by far) is k ≤ 255 clusters per input clustering: then every label
// block packs to one byte per clustering, quartering the memory traffic of
// the O(n·m) assignment scan relative to the int32 layout and keeping the
// per-clustering co-label histograms cache-resident. Missing labels take
// the width's all-ones sentinel (0xFF / −1), so uint8 holds labels
// 0..254 and int32 everything else. Every inner loop (pairDist, DistRowTo,
// histogram build and evaluation) is a generic function instantiated per
// width; the float arithmetic is width-independent, so both widths produce
// bit-identical distances (TestLabelKernelWidthsBitIdentical,
// FuzzLabelKernelWidths).
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
	miss := p.hasMiss[u] || p.hasMiss[v]
	m := p.m
	switch p.width {
	case width8:
		return pairDist(p, p.lab8[u*m:u*m+m], p.lab8[v*m:v*m+m], miss)
	default:
		return pairDist(p, p.lab32[u*m:u*m+m], p.lab32[v*m:v*m+m], miss)
	}
}

// pairDist evaluates one pair from its label blocks, generic over the
// storage width. miss gates the missing-label arithmetic: clean pairs take
// label-compare-only loops (an integer count under uniform weights), and
// either loop performs exactly the additions the per-clustering []int pair
// loop would, in the same order — the width never touches a float, so all
// widths agree bit for bit.
func pairDist[W labelWord](p *Problem, bu, bv []W, miss bool) float64 {
	if !miss {
		// No missing labels on either side: both modes reduce to the
		// weighted separating fraction over the total weight (the average
		// loop's vote accumulation sums all weights in index order, which is
		// exactly how problemOptionsOf computes totalWeight).
		if p.uniform {
			cnt := 0
			for i, lu := range bu {
				if lu != bv[i] {
					cnt++
				}
			}
			return float64(cnt) / p.totalWeight
		}
		var x float64
		for i, lu := range bu {
			if lu != bv[i] {
				x += p.w[i]
			}
		}
		return x / p.totalWeight
	}
	sentinel := missingWord[W]()
	if p.average {
		var x, votes float64
		for i, lu := range bu {
			lv := bv[i]
			if lu == sentinel || lv == sentinel {
				continue
			}
			w := p.w[i]
			votes += w
			if lu != lv {
				x += w
			}
		}
		if votes == 0 {
			return 0.5
		}
		return x / votes
	}
	var x float64
	for i, lu := range bu {
		lv := bv[i]
		switch {
		case lu == sentinel || lv == sentinel:
			x += p.missW[i]
		case lu != lv:
			x += p.w[i]
		}
	}
	return x / p.totalWeight
}

// DistRowTo evaluates v against many targets in one call:
// dst[j] = Dist(v, targets[j]), including zeros for diagonal hits. It
// makes the Problem a corrclust.RowDistancer, so the algorithms read whole
// rows in one call; dst must have len(targets) capacity. Safe for
// concurrent use with distinct dst buffers.
func (p *Problem) DistRowTo(v int, targets []int, dst []float64) {
	switch p.width {
	case width8:
		distRowTo(p, p.lab8, v, targets, dst)
	default:
		distRowTo(p, p.lab32, v, targets, dst)
	}
}

// distRowTo is the width-specialized DistRowTo loop. On lanes (onLanes)
// pairDist adds 1 per separating lane and 1−missingP per missing one, so
// its sum is (2s + missHalves·q)/2 exactly, a multiple of ½ below 2⁵³, and
// halfDist divides it by the same total weight: bit-identical. Every other
// problem evaluates pairDist per pair.
func distRowTo[W labelWord](p *Problem, lab []W, v int, targets []int, dst []float64) {
	m := p.m
	if p.onLanes {
		p.rowsOnce.Do(func() {
			p.rows = newLanes(m, p.width, p.n)
			for u := 0; u < p.n; u++ {
				packRow(p.rows, u, lab[u*m:u*m+m])
			}
			p.halfDist = make([]float64, 2*m+1)
			for c := range p.halfDist {
				p.halfDist[c] = float64(c) / 2 / p.totalWeight
			}
		})
		// A clean v reads every partner as clean first, without the
		// missing masks, then rereads those with a missing label.
		if !p.hasMiss[v] {
			p.rows.sepRowTo(v, targets, p.halfDist, dst)
			if !p.anyMiss {
				return
			}
		}
		p.missRowTo(v, targets, dst)
		return
	}
	bv := lab[v*m : v*m+m]
	missV := p.hasMiss[v]
	for j, u := range targets {
		if u == v {
			dst[j] = 0
			continue
		}
		dst[j] = pairDist(p, lab[u*m:u*m+m], bv, missV || p.hasMiss[u])
	}
}

// missRowTo sets dst[j] = halfDist[2s + missHalves·q] for each pair v,
// targets[j] with a missing label on either side, s and q as lanes.sepMiss
// counts them, and 0 on the diagonal. Other pairs keep dst[j].
func (p *Problem) missRowTo(v int, targets []int, dst []float64) {
	l, half := p.rows, p.halfDist
	words, per := l.words, l.per
	rv := words[v*per : v*per+per]
	missV := p.hasMiss[v]
	for j, u := range targets {
		switch {
		case !missV && !p.hasMiss[u]:
		case u == v:
			dst[j] = 0
		default:
			s, q := l.sepMiss(words[u*per:u*per+per], rv)
			dst[j] = half[2*s+p.missHalves*q]
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
// For input clustering i with weight w_i and missing contribution
// missW_i = (1−p)·w_i, a sample cluster C_c splits into pres_i[c] members
// with a label in clustering i and miss_i[c] = |C_c| − pres_i[c] members
// without one. An object v with present label ℓ contributes to M(v, C_c)
//
//	w_i·(pres_i[c] − cnt_i[ℓ][c]) + missW_i·miss_i[c]
//	  = base[i][c] − w_i·cnt_i[ℓ][c],
//
// where cnt_i[ℓ][c] counts C_c's members carrying label ℓ in clustering i;
// an object missing in clustering i contributes missW_i·|C_c| = missAll[i][c].
// Summing the per-clustering contributions and dividing once by the total
// weight yields M(v, C_c) — the same per-clustering terms Problem.Dist
// sums per pair, associated per clustering instead of per member, so the
// histogram path is bit-identical to the probing path exactly where float
// addition on those terms is exact (dyadic instances; see
// docs/PERFORMANCE.md) and within float drift otherwise.
//
// The histograms do not apply under MissingAverage with missing labels
// present: there each pair divides by its own vote weight, which does not
// decompose per clustering. That regime keeps the kernel's row path
// (assignViaRows), which is bit-identical to probing unconditionally.
type colabelHist struct {
	k     int
	sizes []int // |C_c| for each sample cluster
	// Per input clustering i: labBound[i] bounds the labels with term rows
	// (labels ≥ labBound[i] have no sample member carrying them and take
	// the base row as is — the packed block's global bound by default, the
	// sample-observed bound for clusterings wider than histBoundCap),
	// term[i][ℓ*k+c] = base[i][c] − w_i·cnt_i[ℓ][c], the whole contribution
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
// members. A label no member carries has the term row base − w·0, which
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
		sizes:    make([]int, k),
		labBound: make([]int32, m),
		term:     make([][]float64, m),
		base:     make([][]float64, m),
		missAll:  make([][]float64, m),
	}
	for c, mem := range members {
		h.sizes[c] = len(mem)
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
		w, missW := p.w[i], p.missW[i]
		base := make([]float64, k)
		missAll := make([]float64, k)
		for c := range base {
			pres := h.sizes[c] - miss[i*k+c]
			base[c] = w*float64(pres) + missW*float64(miss[i*k+c])
			missAll[c] = missW * float64(h.sizes[c])
		}
		// term = base − w·count. The explicit conversion rounds the
		// product on its own, so no fused multiply-subtract can change a
		// term: each is the per-clustering term derived above, to the bit.
		term := h.term[i]
		for off := 0; off < len(term); off += k {
			row := term[off : off+k]
			for c, cnt := range row {
				row[c] = base[c] - float64(w*cnt)
			}
		}
		h.base[i] = base
		h.missAll[i] = missAll
	}
	return h
}

// affinities fills dst[c] = M(v, C_c) = Σ_{u∈C_c} X_vu for every sample
// cluster in one O(m·k) pass over v's label block. dst must have length k.
func (h *colabelHist) affinities(p *Problem, v int, dst []float64) {
	switch p.width {
	case width8:
		affinitiesW(h, p, p.lab8, v, dst)
	default:
		affinitiesW(h, p, p.lab32, v, dst)
	}
}

// affinitiesW is the width-specialized affinity evaluation.
func affinitiesW[W labelWord](h *colabelHist, p *Problem, lab []W, v int, dst []float64) {
	for c := range dst {
		dst[c] = 0
	}
	m := p.m
	bv := lab[v*m : v*m+m]
	sentinel := missingWord[W]()
	k := h.k
	for i, lv := range bv {
		if lv == sentinel {
			for c, ma := range h.missAll[i] {
				dst[c] += ma
			}
			continue
		}
		if int32(lv) >= h.labBound[i] {
			for c, b := range h.base[i] {
				dst[c] += b
			}
			continue
		}
		for c, t := range h.term[i][int(lv)*k : int(lv+1)*k] {
			dst[c] += t
		}
	}
	for c := range dst {
		dst[c] /= p.totalWeight
	}
}
