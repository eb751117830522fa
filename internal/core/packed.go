package core

import (
	"fmt"
	"math"

	"clusteragg/internal/partition"
)

// This file is the Problem's input storage: clusterings stream into the
// width-packed row-major label block the distance loops read
// (labelkernel.go — uint8 or int32, the width's all-ones missing sentinel).
// Every Problem holds its inputs this way — NewProblem packs its []int
// clusterings through the column-mode builder — so no path materializes
// []int labels except Clusterings(). At m=6 clusterings of ≤255 labels,
// that is 6 bytes per object instead of 48, and the Problem aliases the
// block without copying it.
//
// SAMPLING's subproblems (gather) copy the selected rows into one fresh
// arena at the parent's width. They share the parent's per-clustering
// label bounds — a looser bound only adds co-label term rows for labels no
// sample member carries, each equal to the base row, which change no float
// arithmetic (see buildColabelHistW), so gathered problems stay
// bit-identical to problems built from a tight rescan.

// PackedClusterings is m input clusterings over n objects in the Problem's
// storage format: object v's labels live at lab[v*m : v*m+m], one byte per
// label when every label is below 255 and four bytes otherwise, missing
// entries mapped to the width's sentinel. Build one with NewPackedBuilder (row streaming) or
// NewPackedColumns (column-at-a-time), then wrap it with NewProblemPacked.
// Immutable after Build and safe for concurrent use.
type PackedClusterings struct {
	n, m int
	// width is the storage width in bytes per label (width8 or width32);
	// exactly one of lab8/lab32 holds the labels.
	width int
	lab8  []uint8
	lab32 []int32
	// maxLab[i] is the exclusive upper bound on clustering i's present
	// labels (0 when every label is missing), used both for width
	// selection and as the co-label histograms' default label bound (see
	// buildColabelHist); hasMiss[v] reports a missing label anywhere on
	// object v; anyMiss aggregates hasMiss.
	maxLab  []int32
	hasMiss []bool
	anyMiss bool
}

// N returns the number of objects.
func (pc *PackedClusterings) N() int { return pc.n }

// M returns the number of clusterings.
func (pc *PackedClusterings) M() int { return pc.m }

// PackedBuilder accumulates labels into a PackedClusterings, starting at
// the one-byte width and widening in place the first time a label needs
// more. It runs in one of two modes: row streaming (NewPackedBuilder;
// AppendRow once per object, n open-ended — the CSV/gendata ingest shape)
// or column mode (NewPackedColumns; AppendColumn once per clustering over a
// fixed n — the dataset.Table shape, and the shape that preserves an
// existing column-major generator's RNG draw order). The zero value is not
// usable; modes cannot be mixed.
type PackedBuilder struct {
	m       int
	n       int // fixed object count (column mode); rows appended (row mode)
	cols    int // columns appended (column mode)
	colMode bool
	built   bool

	width   int
	lab8    []uint8
	lab32   []int32
	maxLab  []int32
	hasMiss []bool
	anyMiss bool
}

// NewPackedBuilder returns a row-streaming builder for m clusterings: call
// AppendRow once per object (or AppendRows once per batch), then Build.
func NewPackedBuilder(m int) *PackedBuilder {
	if m < 1 {
		panic("core: PackedBuilder needs at least one clustering")
	}
	return &PackedBuilder{m: m, width: width8, maxLab: make([]int32, m)}
}

// NewPackedColumns returns a column-mode builder over exactly n objects:
// call AppendColumn once per clustering (m in total), then Build.
func NewPackedColumns(n, m int) *PackedBuilder {
	if m < 1 {
		panic("core: PackedBuilder needs at least one clustering")
	}
	if n < 0 {
		panic("core: negative object count")
	}
	return &PackedBuilder{
		m: m, n: n, colMode: true,
		width:   width8,
		lab8:    make([]uint8, n*m),
		maxLab:  make([]int32, m),
		hasMiss: make([]bool, n),
	}
}

// AppendRow appends one object's labels across the m clusterings (row
// mode). Labels must be partition.Missing or in [0, math.MaxInt32); row
// length must be m.
func (b *PackedBuilder) AppendRow(row []int) error {
	if b.colMode || b.built {
		return fmt.Errorf("core: AppendRow on a %s builder", b.state())
	}
	if len(row) != b.m {
		return fmt.Errorf("core: row has %d labels, want %d", len(row), b.m)
	}
	var bound int32
	for i, l := range row {
		if l == partition.Missing {
			continue
		}
		if l < 0 || l >= math.MaxInt32 {
			return labelError(i, l)
		}
		if l32 := int32(l) + 1; l32 > bound {
			bound = l32
		}
	}
	b.widen(widthFor(bound))
	miss := false
	for i, l := range row {
		if l == partition.Missing {
			miss = true
		} else if l32 := int32(l); l32 >= b.maxLab[i] {
			b.maxLab[i] = l32 + 1
		}
		switch b.width {
		case width8:
			b.lab8 = append(b.lab8, packWord[uint8](l))
		default:
			b.lab32 = append(b.lab32, packWord[int32](l))
		}
	}
	b.hasMiss = append(b.hasMiss, miss)
	b.anyMiss = b.anyMiss || miss
	b.n++
	return nil
}

// AppendRows appends a batch of objects delivered column-major — cols[i][r]
// is object r's label in clustering i, the batch shape a streaming CSV sink
// receives — one AppendRow per object, so any batching of the same rows
// builds the same block.
func (b *PackedBuilder) AppendRows(cols [][]int) error {
	if len(cols) != b.m {
		return fmt.Errorf("core: batch has %d clusterings, want %d", len(cols), b.m)
	}
	for i, col := range cols {
		if len(col) != len(cols[0]) {
			return fmt.Errorf("core: ragged batch: clustering %d has %d rows, want %d", i, len(col), len(cols[0]))
		}
	}
	row := make([]int, b.m)
	for r := range cols[0] {
		for i, col := range cols {
			row[i] = col[r]
		}
		if err := b.AppendRow(row); err != nil {
			return err
		}
	}
	return nil
}

// AppendColumn appends one whole clustering (column mode). Labels must be
// partition.Missing or in [0, math.MaxInt32); the column length must be n.
func (b *PackedBuilder) AppendColumn(col []int) error {
	if !b.colMode || b.built {
		return fmt.Errorf("core: AppendColumn on a %s builder", b.state())
	}
	if b.cols == b.m {
		return fmt.Errorf("core: all %d columns already appended", b.m)
	}
	if len(col) != b.n {
		return fmt.Errorf("core: clustering %d has %d objects, want %d: %w",
			b.cols, len(col), b.n, partition.ErrLengthMismatch)
	}
	ci := b.cols
	// One pass validates and stores at the current width. A label that does
	// not fit stops it: the rest of the column is validated first, so a
	// rejected column leaves the width as it was, then the storage widens
	// and the column is stored again from the start.
	bound, colMiss, stop := b.storeColumn(col, ci)
	if stop < len(col) {
		for _, l := range col[stop:] {
			if l == partition.Missing {
				continue
			}
			if l < 0 || l >= math.MaxInt32 {
				return labelError(ci, l)
			}
			bound = max(bound, int32(l)+1)
		}
		b.widen(widthFor(bound))
		bound, colMiss, _ = b.storeColumn(col, ci)
	}
	b.maxLab[ci] = bound
	if colMiss {
		b.anyMiss = true
		for v, l := range col {
			if l == partition.Missing {
				b.hasMiss[v] = true
			}
		}
	}
	b.cols++
	return nil
}

// storeColumn stores col as clustering ci at the current width and returns
// the column's exclusive label bound, whether it has a missing label, and
// the index of the first label the width cannot hold (len(col) when it
// holds them all). Labels from that index on are neither stored nor
// counted.
func (b *PackedBuilder) storeColumn(col []int, ci int) (bound int32, miss bool, stop int) {
	switch b.width {
	case width8:
		return storeColumnAt(b.lab8, col, ci, b.m)
	default:
		return storeColumnAt(b.lab32, col, ci, b.m)
	}
}

// storeColumnAt is storeColumn at width W, whose largest label is one below
// its all-ones missing sentinel.
func storeColumnAt[W labelWord](lab []W, col []int, ci, m int) (bound int32, miss bool, stop int) {
	sentinel := missingWord[W]()
	limit := uint64(sentinel) // labels 0..limit−1 fit
	if limit > math.MaxInt32 {
		limit = math.MaxInt32 // int32: the bound label+1 must fit too
	}
	for v, l := range col {
		switch {
		case uint64(l) < limit:
			lab[v*m+ci] = W(l)
			bound = max(bound, int32(l)+1)
		case l == partition.Missing:
			lab[v*m+ci] = sentinel
			miss = true
		default:
			return bound, miss, v
		}
	}
	return bound, miss, len(col)
}

// Build finalizes the block. A column-mode builder must have received all m
// columns; the builder is unusable afterwards.
func (b *PackedBuilder) Build() (*PackedClusterings, error) {
	if b.built {
		return nil, fmt.Errorf("core: Build called twice")
	}
	if b.colMode && b.cols != b.m {
		return nil, fmt.Errorf("core: %d of %d columns appended", b.cols, b.m)
	}
	b.built = true
	return &PackedClusterings{
		n: b.n, m: b.m, width: b.width,
		lab8: b.lab8, lab32: b.lab32,
		maxLab: b.maxLab, hasMiss: b.hasMiss, anyMiss: b.anyMiss,
	}, nil
}

// labelError reports a present label clustering i cannot store: a negative
// label, or one ≥ math.MaxInt32, whose exclusive bound (label+1) would
// overflow the int32 width.
func labelError(i, l int) error {
	if l < 0 {
		return fmt.Errorf("core: clustering %d: partition: invalid label %d", i, l)
	}
	return fmt.Errorf("core: clustering %d: label %d exceeds the largest storable label %d", i, l, math.MaxInt32-1)
}

// state names the builder's mode for error messages.
func (b *PackedBuilder) state() string {
	switch {
	case b.built:
		return "finalized"
	case b.colMode:
		return "column-mode"
	default:
		return "row-mode"
	}
}

// widen grows the storage to the given width when the current one is
// narrower, re-encoding already-appended labels (sentinel to sentinel).
func (b *PackedBuilder) widen(to int) {
	if to <= b.width {
		return
	}
	b.lab32, b.lab8 = widenWords[uint8, int32](b.lab8), nil
	b.width = to
}

// packWord encodes one label at width W (partition.Missing to the
// sentinel). The caller has range-checked the label.
func packWord[W labelWord](l int) W {
	if l == partition.Missing {
		return missingWord[W]()
	}
	return W(l)
}

// widenWords re-encodes a label block at a wider width, mapping the source
// sentinel to the destination's. Capacity is preserved in row mode by
// keeping the same length (append continues on the new slice).
func widenWords[S, D labelWord](src []S) []D {
	dst := make([]D, len(src))
	sm, dm := missingWord[S](), missingWord[D]()
	for i, v := range src {
		if v == sm {
			dst[i] = dm
		} else {
			dst[i] = D(v)
		}
	}
	return dst
}

// gather copies the given object rows into one fresh arena at the parent's
// width, m·width bytes per object.
func (pc *PackedClusterings) gather(idx []int) *PackedClusterings {
	m := pc.m
	g := &PackedClusterings{
		n: len(idx), m: m, width: pc.width,
		maxLab:  pc.maxLab,
		hasMiss: make([]bool, len(idx)),
	}
	switch pc.width {
	case width8:
		g.lab8 = gatherRows(pc.lab8, idx, m)
	default:
		g.lab32 = gatherRows(pc.lab32, idx, m)
	}
	for i, obj := range idx {
		if pc.hasMiss[obj] {
			g.hasMiss[i] = true
			g.anyMiss = true
		}
	}
	return g
}

// gatherRows copies the label rows of the given objects, in order.
func gatherRows[W labelWord](src []W, idx []int, m int) []W {
	dst := make([]W, len(idx)*m)
	for i, obj := range idx {
		copy(dst[i*m:(i+1)*m], src[obj*m:(obj+1)*m])
	}
	return dst
}

// unpackColumn is the width-specialized strided column read of clustering
// i into dst (len n), mapping the sentinel to partition.Missing.
func unpackColumn[W labelWord](lab []W, i, m int, dst partition.Labels) {
	sentinel := missingWord[W]()
	for v := range dst {
		if l := lab[v*m+i]; l == sentinel {
			dst[v] = partition.Missing
		} else {
			dst[v] = int(l)
		}
	}
}

// NewProblemPacked builds an aggregation problem directly over a packed
// label block (NewProblem ends here too, after packing its []int
// clusterings). The Problem aliases pc's labels and metadata without
// copying them, as its only input storage, and builds the O(m²) distance
// table its subproblems share.
func NewProblemPacked(pc *PackedClusterings, opts ProblemOptions) (*Problem, error) {
	if pc == nil || pc.m == 0 {
		return nil, ErrNoClusterings
	}
	o, err := problemOptionsOf(pc.m, opts)
	if err != nil {
		return nil, err
	}
	return o.over(pc), nil
}
