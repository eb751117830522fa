package core

import (
	"math/rand"
	"strings"
	"testing"

	"clusteragg/internal/partition"
)

// packedTwin builds a packed Problem over the same labels as p, via the
// requested builder mode, sharing p's options. Row mode streams the objects
// in uneven column-major batches (AppendRows), the shape a CSV sink sees.
func packedTwin(t testing.TB, p *Problem, colMode bool) *Problem {
	t.Helper()
	opts := ProblemOptions{
		Weights:         p.weights,
		MissingMode:     p.missingMode,
		MissingTogether: p.missingP,
	}
	n, m := p.N(), p.M()
	var b *PackedBuilder
	if colMode {
		b = NewPackedColumns(n, m)
		for _, c := range p.clusterings {
			if err := b.AppendColumn(c); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		b = NewPackedBuilder(m)
		batch := make([][]int, m)
		for lo := 0; lo < n; lo += 37 {
			for i, c := range p.clusterings {
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

// TestPackedProblemEquivalence: a packed problem must be observationally
// identical to the unpacked one over the same labels — bit-identical
// distances, objective values, aggregation results, and sampled labels,
// via both builder modes, across missing modes and weights.
func TestPackedProblemEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.Intn(5)
		var opts ProblemOptions
		opts.MissingTogether = []float64{0.25, 0.5}[trial%2]
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		if trial%3 == 2 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*3
			}
			opts.Weights = w
		}
		pMiss := 0.0
		if trial%2 == 0 {
			pMiss = 0.2
		}
		p := randMixedProblem(t, rng, 150+rng.Intn(150), m, pMiss, opts)
		n := p.N()
		for _, colMode := range []bool{false, true} {
			pp := packedTwin(t, p, colMode)
			if pp.N() != n || pp.M() != m {
				t.Fatalf("trial %d: packed shape (%d,%d), want (%d,%d)", trial, pp.N(), pp.M(), n, m)
			}
			for v := 0; v < n; v += 7 {
				for u := 0; u < n; u += 5 {
					if got, want := pp.Dist(u, v), p.Dist(u, v); got != want {
						t.Fatalf("trial %d: packed Dist(%d,%d) = %v, unpacked = %v", trial, u, v, got, want)
					}
				}
			}
			cs := pp.Clusterings()
			for i := range cs {
				for v := range cs[i] {
					if cs[i][v] != p.clusterings[i][v] {
						t.Fatalf("trial %d: unpacked view [%d][%d] = %d, want %d",
							trial, i, v, cs[i][v], p.clusterings[i][v])
					}
				}
			}
			someLabels := p.clusterings[0]
			if got, want := pp.Disagreement(completeMissing(someLabels)), p.Disagreement(completeMissing(someLabels)); got != want {
				t.Fatalf("trial %d: packed Disagreement %v, unpacked %v", trial, got, want)
			}
			if got, want := pp.LowerBound(), p.LowerBound(); got != want {
				t.Fatalf("trial %d: packed LowerBound %v, unpacked %v", trial, got, want)
			}
			bl, bi, bd := pp.BestClustering()
			wl, wi, wd := p.BestClustering()
			if bi != wi || bd != wd {
				t.Fatalf("trial %d: packed BestClustering (%d,%v), unpacked (%d,%v)", trial, bi, bd, wi, wd)
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

// TestPackedBuilderWidening pins the in-place width promotion: labels
// crossing the uint8/uint16 sentinel boundaries widen the storage without
// corrupting earlier rows, including the boundary cases 254 (still uint8)
// and 255 (collides with the uint8 sentinel, forces uint16).
func TestPackedBuilderWidening(t *testing.T) {
	cases := []struct {
		labels []int
		want   int
	}{
		{[]int{0, 254, partition.Missing}, width8},
		{[]int{0, 255, partition.Missing}, width16},
		{[]int{0, 65534, partition.Missing}, width16},
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
		got := make(partition.Labels, len(c.labels))
		pc.unpackInto(0, got)
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
	col0 := make(partition.Labels, 3)
	pc.unpackInto(0, col0)
	for i, want := range []int{0, 254, partition.Missing} {
		if col0[i] != want {
			t.Errorf("column widen: col0[%d] = %d, want %d", i, col0[i], want)
		}
	}
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
	if _, err := NewProblemPacked(pc, ProblemOptions{MissingTogether: 2}); err == nil {
		t.Error("invalid MissingTogether accepted on the packed constructor")
	}
	if _, err := NewProblemPacked(pc, ProblemOptions{Weights: []float64{1, 2}}); err == nil {
		t.Error("weight-count mismatch accepted on the packed constructor")
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

// TestPackedGatherEquivalence: the packed subProblem gather must agree with
// the unpacked copying subProblem on an arbitrary index subset.
func TestPackedGatherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(457))
	p := randMixedProblem(t, rng, 300, 3, 0.15, ProblemOptions{MissingTogether: 0.5})
	pp := packedTwin(t, p, false)
	idx := rng.Perm(300)[:80]
	for i := 1; i < len(idx); i++ { // subProblem wants sorted indices
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	want := p.subProblem(idx)
	got := pp.subProblem(idx)
	if got.packed == nil {
		t.Fatal("packed subProblem fell back to unpacked labels")
	}
	for v := 0; v < len(idx); v++ {
		for u := 0; u < len(idx); u++ {
			if g, w := got.Dist(u, v), want.Dist(u, v); g != w {
				t.Fatalf("gathered Dist(%d,%d) = %v, copied = %v", u, v, g, w)
			}
		}
	}
	if got.packed.anyMiss != want.kernel().anyMiss {
		t.Errorf("gathered anyMiss = %v, want %v", got.packed.anyMiss, want.kernel().anyMiss)
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

// TestKernelCacheIdentity pins the kernel cache: the auto-width kernel is
// built once per Problem and shared, forced-width kernels bypass the cache,
// and a packed problem's kernel aliases the ingest block's storage.
func TestKernelCacheIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(461))
	p := randMixedProblem(t, rng, 100, 3, 0.1, ProblemOptions{MissingTogether: 0.5})
	if p.kernel() != p.kernel() {
		t.Error("kernel() rebuilt instead of serving the cache")
	}
	if p.kernelWidth(0) != p.kernel() {
		t.Error("kernelWidth(0) bypassed the cache")
	}
	forced := p.kernelWidth(width32)
	if forced == p.kernel() {
		t.Error("forced-width kernel leaked into the cache")
	}
	if forced.width != width32 || p.kernel().width != width8 {
		t.Errorf("widths: forced %d (want %d), cached %d (want %d)",
			forced.width, width32, p.kernel().width, width8)
	}

	pp := packedTwin(t, p, true)
	lk := pp.kernel()
	if &lk.lab8[0] != &pp.packed.lab8[0] {
		t.Error("packed kernel copied the label block instead of aliasing")
	}
	if &lk.maxLab[0] != &pp.packed.maxLab[0] || &lk.hasMiss[0] != &pp.packed.hasMiss[0] {
		t.Error("packed kernel copied bound/missing metadata instead of aliasing")
	}
	f16 := pp.kernelWidth(width16)
	if f16.lab16 == nil || f16.width != width16 {
		t.Errorf("forced width16 on a packed problem: width %d, lab16 nil=%v", f16.width, f16.lab16 == nil)
	}
	// Forcing below the packed width panics like the unpacked builder.
	wideB := NewPackedColumns(2, 1)
	if err := wideB.AppendColumn([]int{0, 300}); err != nil {
		t.Fatal(err)
	}
	widePC, err := wideB.Build()
	if err != nil {
		t.Fatal(err)
	}
	widePP, err := NewProblemPacked(widePC, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("forcing width8 below a packed width16 block did not panic")
		}
	}()
	widePP.kernelWidth(width8)
}
