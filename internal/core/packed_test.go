package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusteragg/internal/partition"
)

// packedTwin rebuilds p over the same labels through NewProblemPacked, via
// the requested builder mode, sharing p's options. Row mode streams the
// objects in uneven column-major batches (AppendRows), the shape a CSV sink
// sees.
func packedTwin(t testing.TB, p *Problem, colMode bool) *Problem {
	t.Helper()
	return packedFrom(t, p.Clusterings(), optionsOf(p), colMode)
}

// packedFrom builds a Problem over cs through NewProblemPacked, via the
// requested builder mode.
func packedFrom(t testing.TB, cs []partition.Labels, opts ProblemOptions, colMode bool) *Problem {
	t.Helper()
	n, m := len(cs[0]), len(cs)
	var b *PackedBuilder
	if colMode {
		b = NewPackedColumns(n, m)
		for _, c := range cs {
			if err := b.AppendColumn(c); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		b = NewPackedBuilder(m)
		batch := make([][]int, m)
		for lo := 0; lo < n; lo += 37 {
			for i, c := range cs {
				batch[i] = c[lo:min(lo+37, n)]
			}
			if err := b.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewProblemPacked(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestPackedProblemEquivalence: a problem built through either builder mode
// must be observationally identical to NewProblem over the same labels —
// distances bit-identical to the reference []int pair loop, the caller's
// labels back from Clusterings, and identical objective values,
// aggregation results and sampled labels — across missing modes and
// m from 2 to 6.
func TestPackedProblemEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.Intn(5)
		var opts ProblemOptions
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		pMiss := 0.0
		if trial%2 == 0 {
			pMiss = 0.2
		}
		n := 150 + rng.Intn(150)
		cs := randMixedInputs(rng, n, m, pMiss)
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDist(cs, opts)
		for _, colMode := range []bool{false, true} {
			pp := packedFrom(t, cs, opts, colMode)
			if pp.N() != n || pp.M() != m {
				t.Fatalf("trial %d: packed shape (%d,%d), want (%d,%d)", trial, pp.N(), pp.M(), n, m)
			}
			for v := 0; v < n; v += 7 {
				for u := 0; u < n; u += 5 {
					if got, want := pp.Dist(u, v), ref.Dist(u, v); got != want {
						t.Fatalf("trial %d: packed Dist(%d,%d) = %v, reference = %v", trial, u, v, got, want)
					}
				}
			}
			for i, c := range pp.Clusterings() {
				if !slices.Equal(c, cs[i]) {
					t.Fatalf("trial %d: unpacked view %d = %v, want %v", trial, i, c, cs[i])
				}
			}
			someLabels := cs[0]
			if got, want := pp.Disagreement(completeMissing(someLabels)), p.Disagreement(completeMissing(someLabels)); got != want {
				t.Fatalf("trial %d: packed Disagreement %v, NewProblem %v", trial, got, want)
			}
			if got, want := pp.LowerBound(), p.LowerBound(); got != want {
				t.Fatalf("trial %d: packed LowerBound %v, NewProblem %v", trial, got, want)
			}
			bl, bi, bd := pp.BestClustering()
			wl, wi, wd := p.BestClustering()
			if bi != wi || bd != wd {
				t.Fatalf("trial %d: packed BestClustering (%d,%v), NewProblem (%d,%v)", trial, bi, bd, wi, wd)
			}
			for i := range bl {
				if bl[i] != wl[i] {
					t.Fatalf("trial %d: BestClustering labels diverge at %d", trial, i)
				}
			}
			got, err := pp.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
				SampleSize: 40, Rand: rand.New(rand.NewSource(int64(trial))),
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
				SampleSize: 40, Rand: rand.New(rand.NewSource(int64(trial))),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: packed Sample diverges at object %d (colMode=%v)", trial, i, colMode)
				}
			}
		}
	}
}

// TestPackedBuilderWidening pins the in-place width promotion: a label
// crossing the uint8 sentinel widens the storage to int32 without
// corrupting earlier rows, including the boundary cases 254 (still uint8)
// and 255 (collides with the uint8 sentinel, forces int32). A promoting
// label reached mid-stream in AppendRows batches yields a problem equal to
// the one-byte build of the relabeled inputs.
func TestPackedBuilderWidening(t *testing.T) {
	cases := []struct {
		labels []int
		want   int
	}{
		{[]int{0, 254, partition.Missing}, width8},
		{[]int{0, 255, partition.Missing}, width32},
		{[]int{0, 65534, partition.Missing}, width32},
		{[]int{0, 65535, partition.Missing}, width32},
		{[]int{0, 1 << 20, partition.Missing}, width32},
	}
	for _, c := range cases {
		b := NewPackedBuilder(1)
		for _, l := range c.labels {
			if err := b.AppendRow([]int{l}); err != nil {
				t.Fatal(err)
			}
		}
		pc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if pc.width != c.want {
			t.Errorf("labels %v: width %d, want %d", c.labels, pc.width, c.want)
		}
		got := columnOf(t, pc, 0)
		for i, l := range c.labels {
			if got[i] != l {
				t.Errorf("labels %v: round-trip[%d] = %d, want %d", c.labels, i, got[i], l)
			}
		}
		if pc.maxLab[0] != int32(maxPresent(c.labels))+1 {
			t.Errorf("labels %v: maxLab %d, want %d", c.labels, pc.maxLab[0], maxPresent(c.labels)+1)
		}
	}
	// Column mode widens already-packed columns in place too.
	b := NewPackedColumns(3, 2)
	if err := b.AppendColumn([]int{0, 254, partition.Missing}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendColumn([]int{70000, 1, 2}); err != nil {
		t.Fatal(err)
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pc.width != width32 {
		t.Fatalf("column widen: width %d, want %d", pc.width, width32)
	}
	col0 := columnOf(t, pc, 0)
	for i, want := range []int{0, 254, partition.Missing} {
		if col0[i] != want {
			t.Errorf("column widen: col0[%d] = %d, want %d", i, col0[i], want)
		}
	}
	for _, big := range []int{255, 65534} {
		checkPromotion(t, big, false)
	}
}

// TestAppendColumnWidensMidColumn: a column whose labels outgrow the
// width partway through restarts at the wider width, so the labels stored
// before the widening label, the labels after it, and every column
// appended earlier all read back, with the column's bound and missing
// flags; a later column with labels past the byte range stores at int32
// from the start.
func TestAppendColumnWidensMidColumn(t *testing.T) {
	M := partition.Missing
	cols := [][]int{
		{3, M, 254, 0, 1, 2, M},
		{0, 1, M, 300, 4, 5, 6},       // uint8 -> int32 at index 3
		{7, 8, 9, 65534, M, 70000, 1}, // int32 throughout
	}
	b := NewPackedColumns(len(cols[0]), len(cols))
	for ci, col := range cols {
		if err := b.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
		if want := []int{width8, width32, width32}[ci]; b.width != want {
			t.Fatalf("after column %d: width %d, want %d", ci, b.width, want)
		}
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for ci, col := range cols {
		if got := columnOf(t, pc, ci); !slices.Equal(got, col) {
			t.Errorf("column %d reads back %v, want %v", ci, got, col)
		}
		if pc.maxLab[ci] != int32(maxPresent(col))+1 {
			t.Errorf("column %d: maxLab %d, want %d", ci, pc.maxLab[ci], maxPresent(col)+1)
		}
	}
	for v := range cols[0] {
		want := cols[0][v] == M || cols[1][v] == M || cols[2][v] == M
		if pc.hasMiss[v] != want {
			t.Errorf("hasMiss[%d] = %v, want %v", v, pc.hasMiss[v], want)
		}
	}
}

// TestAppendColumnInvalidAfterWidening: an invalid label that comes after
// a label needing a wider width rejects the column with the invalid
// label's error, and leaves the width, the missing flags and the earlier
// columns as they were; the builder then takes a valid column.
func TestAppendColumnInvalidAfterWidening(t *testing.T) {
	M := partition.Missing
	b := NewPackedColumns(4, 2)
	first := []int{1, M, 2, 3}
	if err := b.AppendColumn(first); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{0, 300, M, -3}, {M, 70000, 1, math.MaxInt32}} {
		err := b.AppendColumn(bad)
		if want := labelError(1, bad[3]); err == nil || err.Error() != want.Error() {
			t.Fatalf("column %v: error %v, want %v", bad, err, want)
		}
		if b.width != width8 {
			t.Fatalf("column %v: rejected column widened the builder to %d", bad, b.width)
		}
		if !slices.Equal(b.hasMiss, []bool{false, true, false, false}) {
			t.Fatalf("column %v: rejected column changed hasMiss to %v", bad, b.hasMiss)
		}
	}
	second := []int{0, 1, 2, M}
	if err := b.AppendColumn(second); err != nil {
		t.Fatal(err)
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for ci, col := range [][]int{first, second} {
		if got := columnOf(t, pc, ci); !slices.Equal(got, col) {
			t.Errorf("column %d reads back %v, want %v", ci, got, col)
		}
	}
}

// TestAppendColumnMissingFlags: column mode sets the per-object hasMiss
// flags and anyMiss only for columns that have a Missing label, so after
// every append both must equal a per-object recomputation over the columns
// appended so far — across complete, partly missing and all-missing
// columns and a width promotion mid-stream — and a column the label check
// rejects must leave both untouched.
func TestAppendColumnMissingFlags(t *testing.T) {
	const n = 40
	M := partition.Missing
	cols := make([][]int, 5)
	for ci := range cols {
		cols[ci] = make([]int, n)
	}
	for v := 0; v < n; v++ {
		cols[0][v] = v % 7 // complete
		cols[1][v] = v % 3 // complete
		cols[2][v] = M     // all missing
		cols[3][v] = v % 5 // partly missing, and promotes to int32
		if v%6 == 0 {
			cols[3][v] = M
		}
		if v == n-1 {
			cols[3][v] = 300
		}
		cols[4][v] = v % 4 // partly missing
		if v%9 == 4 {
			cols[4][v] = M
		}
	}
	// Complete columns first, so anyMiss starts false and is set mid-way.
	order := []int{0, 1, 3, 2, 4}
	b := NewPackedColumns(n, len(order))
	check := func(what string, appended []int) {
		t.Helper()
		anyMiss := false
		for v := 0; v < n; v++ {
			want := false
			for _, ci := range appended {
				if cols[ci][v] == M {
					want = true
				}
			}
			if b.hasMiss[v] != want {
				t.Fatalf("%s: hasMiss[%d] = %v, want %v", what, v, b.hasMiss[v], want)
			}
			anyMiss = anyMiss || want
		}
		if b.anyMiss != anyMiss {
			t.Fatalf("%s: anyMiss = %v, want %v", what, b.anyMiss, anyMiss)
		}
	}
	check("empty", nil)
	for i, ci := range order {
		// A rejected column with a Missing ahead of its invalid label
		// must change neither flag.
		bad := slices.Clone(cols[2])
		bad[n/2] = -3
		if err := b.AppendColumn(bad); err == nil {
			t.Fatal("column with label -3 accepted")
		}
		check(fmt.Sprintf("rejected before column %d", ci), order[:i])
		if err := b.AppendColumn(cols[ci]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after column %d", ci), order[:i+1])
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pc.width != width32 {
		t.Errorf("width %d, want %d after the promotion", pc.width, width32)
	}
}

// columnOf unpacks clustering i of pc through a Problem's Clusterings.
func columnOf(t testing.TB, pc *PackedClusterings, i int) partition.Labels {
	t.Helper()
	p, err := NewProblemPacked(pc, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Clusterings()[i]
}

func maxPresent(labels []int) int {
	m := -1
	for _, l := range labels {
		if l != partition.Missing && l > m {
			m = l
		}
	}
	return m
}

// TestPackedBuilderValidation pins the builder's error surface: mode
// misuse, shape mismatches, and invalid labels are rejected with the
// constructor's vocabulary.
func TestPackedBuilderValidation(t *testing.T) {
	if err := NewPackedBuilder(2).AppendRow([]int{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := NewPackedBuilder(1).AppendRow([]int{-2}); err == nil {
		t.Error("invalid label accepted in row mode")
	}
	// Labels whose exclusive bound does not fit int32: 2³¹−1 would land on
	// the int32 missing sentinel, 2³² would truncate to label 0. Both are
	// rejected in either mode, naming the clustering and the label.
	for _, l := range []int{math.MaxInt32, 1 << 32} {
		want := fmt.Sprintf("clustering 1: label %d", l)
		if err := NewPackedBuilder(2).AppendRow([]int{0, l}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("row mode, label %d: %v, want an error containing %q", l, err, want)
		}
		b := NewPackedColumns(2, 2)
		if err := b.AppendColumn([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendColumn([]int{l, 0}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("column mode, label %d: %v, want an error containing %q", l, err, want)
		}
	}
	if err := NewPackedBuilder(1).AppendRow([]int{math.MaxInt32 - 1}); err != nil {
		t.Errorf("largest storable label rejected: %v", err)
	}
	if err := NewPackedBuilder(2).AppendRows([][]int{{0}}); err == nil {
		t.Error("batch with too few clusterings accepted")
	}
	if err := NewPackedBuilder(2).AppendRows([][]int{{0, 1}, {0}}); err == nil ||
		!strings.Contains(err.Error(), "ragged") {
		t.Errorf("ragged batch: %v", err)
	}
	if err := NewPackedBuilder(1).AppendColumn([]int{0}); err == nil ||
		!strings.Contains(err.Error(), "row-mode") {
		t.Errorf("AppendColumn on a row builder: %v", err)
	}
	cb := NewPackedColumns(2, 1)
	if err := cb.AppendRow([]int{0}); err == nil || !strings.Contains(err.Error(), "column-mode") {
		t.Errorf("AppendRow on a column builder: %v", err)
	}
	if err := cb.AppendColumn([]int{0, 1, 2}); err == nil {
		t.Error("wrong-length column accepted")
	}
	if err := cb.AppendColumn([]int{0, -3}); err == nil {
		t.Error("invalid label accepted in column mode")
	}
	if _, err := cb.Build(); err == nil {
		t.Error("Build with missing columns accepted")
	}
	if err := cb.AppendColumn([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := cb.AppendColumn([]int{0, 1}); err == nil {
		t.Error("extra column accepted")
	}
	if _, err := cb.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Build(); err == nil {
		t.Error("second Build accepted")
	}
	if err := cb.AppendColumn([]int{0, 1}); err == nil || !strings.Contains(err.Error(), "finalized") {
		t.Errorf("append after Build: %v", err)
	}
	if _, err := NewProblemPacked(nil, ProblemOptions{}); err == nil {
		t.Error("nil packed block accepted")
	}
	pc, err := NewPackedColumns(0, 1).buildWith(t, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblemPacked(pc, ProblemOptions{MissingMode: MissingMode(9)}); err == nil {
		t.Error("invalid MissingMode accepted on the packed constructor")
	}
}

// buildWith appends one column and builds, for terse validation tests.
func (b *PackedBuilder) buildWith(t testing.TB, col []int) (*PackedClusterings, error) {
	t.Helper()
	if err := b.AppendColumn(col); err != nil {
		return nil, err
	}
	return b.Build()
}

// TestPackedGatherEquivalence: the subProblem gather must agree with the
// reference pair loop over the selected labels, copied out of the caller's
// slices, on an arbitrary index subset.
func TestPackedGatherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(457))
	var opts ProblemOptions
	cs := randMixedInputs(rng, 300, 3, 0.15)
	pp := packedFrom(t, cs, opts, false)
	idx := rng.Perm(300)[:80]
	slices.Sort(idx) // subProblem wants sorted indices
	sub := make([]partition.Labels, len(cs))
	anyMiss := false
	for i, c := range cs {
		sub[i] = make(partition.Labels, len(idx))
		for j, obj := range idx {
			sub[i][j] = c[obj]
			anyMiss = anyMiss || c[obj] == partition.Missing
		}
	}
	want := newRefDist(sub, opts)
	got := pp.subProblem(idx)
	for v := 0; v < len(idx); v++ {
		for u := 0; u < len(idx); u++ {
			if g, w := got.Dist(u, v), want.Dist(u, v); g != w {
				t.Fatalf("gathered Dist(%d,%d) = %v, reference = %v", u, v, g, w)
			}
		}
	}
	if got.anyMiss != anyMiss {
		t.Errorf("gathered anyMiss = %v, want %v", got.anyMiss, anyMiss)
	}

	// anyMiss is recomputed over the gathered rows, never inherited: a
	// clean subset of a parent with missing labels keeps the
	// MissingAverage histogram route open.
	b := NewPackedColumns(6, 1)
	if err := b.AppendColumn([]int{0, partition.Missing, 0, 1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !pc.anyMiss {
		t.Fatal("parent anyMiss false with a missing label present")
	}
	if g := pc.gather([]int{2, 3, 5}); g.anyMiss {
		t.Error("clean gather inherited anyMiss")
	}
	if g := pc.gather([]int{0, 1}); !g.anyMiss {
		t.Error("missing gather lost anyMiss")
	}
}

// TestKernelCacheIdentity pins the zero-copy build: a Problem aliases the
// label block and its bound/missing metadata instead of copying them.
func TestKernelCacheIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	cs := randMixedInputs(rng, 100, 3, 0.1)
	b := NewPackedColumns(100, 3)
	for _, c := range cs {
		if err := b.AppendColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblemPacked(pc, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.width != width8 {
		t.Fatalf("width %d, want %d", p.width, width8)
	}
	if &p.lab8[0] != &pc.lab8[0] {
		t.Error("problem copied the label block instead of aliasing")
	}
	if &p.maxLab[0] != &pc.maxLab[0] || &p.hasMiss[0] != &pc.hasMiss[0] {
		t.Error("problem copied bound/missing metadata instead of aliasing")
	}
}
