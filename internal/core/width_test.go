package core

import (
	"math/rand"
	"testing"

	"clusteragg/internal/partition"
)

// widenLabels rebuilds p with every present label multiplied by factor: an
// injective relabeling, so the partition structure — and therefore every
// distance and every aggregation result — is unchanged, while the label
// bound grows past the uint8/uint16 sentinel thresholds and forces the
// kernel onto a wider packing (and, past histBoundCap, onto the
// sample-observed histogram bound rescan).
func widenLabels(t testing.TB, p *Problem, factor int) *Problem {
	t.Helper()
	cs := make([]partition.Labels, len(p.clusterings))
	for i, c := range p.clusterings {
		wc := make(partition.Labels, len(c))
		for j, l := range c {
			if l == partition.Missing {
				wc[j] = partition.Missing
			} else {
				wc[j] = l * factor
			}
		}
		cs[i] = wc
	}
	opts := ProblemOptions{
		Weights:         p.weights,
		MissingMode:     p.missingMode,
		MissingTogether: p.missingP,
	}
	wp, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// TestKernelWidthSelection pins the build-time width choice: the narrowest
// width whose all-ones sentinel stays clear of every stored label.
func TestKernelWidthSelection(t *testing.T) {
	mk := func(maxLabel int) *Problem {
		p, err := NewProblem([]partition.Labels{{0, maxLabel}}, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		maxLabel, want int
	}{
		{1, width8},
		{254, width8},  // bound 255: sentinel 255 still free
		{255, width16}, // bound 256: label 255 would collide with the sentinel
		{65534, width16},
		{65535, width32},
		{70000, width32},
	}
	for _, c := range cases {
		if lk := mk(c.maxLabel).kernel(); lk.width != c.want {
			t.Errorf("max label %d: width %d, want %d", c.maxLabel, lk.width, c.want)
		}
	}
	// Forcing a width below the label bound is a programming error.
	defer func() {
		if recover() == nil {
			t.Error("kernelWidth(width8) on a 16-bit instance did not panic")
		}
	}()
	mk(300).kernelWidth(width8)
}

// TestLabelKernelWidthsBitIdentical: all three storage widths must produce
// bit-identical distances and histogram affinities — the packed loops never
// let the width touch a float. Each trial compares the auto (uint8) kernel
// against forced uint16 and int32 kernels on Dist, DistRowTo, and the
// co-label histogram path, across both missing modes and weights.
func TestLabelKernelWidthsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		m := 1 + rng.Intn(8)
		var opts ProblemOptions
		if trial%3 == 1 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*3
			}
			opts.Weights = w
		}
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		opts.MissingTogether = []float64{0.25, 0.5, 0.37}[trial%3]
		p := randMixedProblem(t, rng, n, m, 0.3, opts)

		base := p.kernelWidth(0)
		if base.width != width8 {
			t.Fatalf("trial %d: auto width %d, want uint8 for labels < 5", trial, base.width)
		}
		wide16 := p.kernelWidth(width16)
		wide32 := p.kernelWidth(width32)

		targets := rng.Perm(n)
		want := make([]float64, n)
		got := make([]float64, n)
		for v := 0; v < n; v++ {
			base.DistRowTo(v, targets, want)
			for _, lk := range []*labelKernel{wide16, wide32} {
				lk.DistRowTo(v, targets, got)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("trial %d: width-%d DistRowTo(%d)[->%d] = %v, width-1 = %v",
							trial, lk.width, v, targets[j], got[j], want[j])
					}
				}
				if d := lk.Dist(v, targets[0]); d != base.Dist(v, targets[0]) {
					t.Fatalf("trial %d: width-%d Dist diverges", trial, lk.width)
				}
			}
		}

		// Histogram affinities across widths (skip the regime that has no
		// histograms; the row route above already covers it).
		if base.average && base.anyMiss {
			continue
		}
		k := 1 + rng.Intn(4)
		members := make([][]int, k)
		for v := 0; v < n; v += 2 {
			c := rng.Intn(k)
			members[c] = append(members[c], v)
		}
		ok := true
		for _, mem := range members {
			if len(mem) == 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		wantM := make([]float64, k)
		gotM := make([]float64, k)
		baseHist := base.buildColabelHist(members)
		for _, lk := range []*labelKernel{wide16, wide32} {
			hist := lk.buildColabelHist(members)
			for v := 1; v < n; v += 2 {
				baseHist.affinities(base, v, wantM)
				hist.affinities(lk, v, gotM)
				for c := range gotM {
					if gotM[c] != wantM[c] {
						t.Fatalf("trial %d: width-%d M(%d,C%d) = %v, width-1 = %v",
							trial, lk.width, v, c, gotM[c], wantM[c])
					}
				}
			}
		}
	}
}

// TestLabelKernelWideLabelsBitIdentical: instances whose labels genuinely
// need the wider widths (auto-selected uint16 and int32, the latter past
// histBoundCap so the histograms rescan the sample for their bound) must
// still agree bit for bit with the int32 kernel and with Problem.Dist, and
// relabeling must not change distances at all.
func TestLabelKernelWideLabelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(6)
		var opts ProblemOptions
		opts.MissingTogether = 0.5
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		p := randMixedProblem(t, rng, 30+rng.Intn(40), m, 0.25, opts)
		factor := []int{300, 70000}[trial%2] // past uint8 / past uint16+histBoundCap
		wp := widenLabels(t, p, factor)

		lk := wp.kernel()
		wantWidth := []int{width16, width32}[trial%2]
		if lk.width != wantWidth {
			t.Fatalf("trial %d: factor %d auto width %d, want %d", trial, factor, lk.width, wantWidth)
		}
		lk32 := wp.kernelWidth(width32)
		n := wp.N()
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				want := wp.Dist(v, u)
				if got := lk.Dist(v, u); got != want {
					t.Fatalf("trial %d: packed Dist(%d,%d) = %v, Problem.Dist = %v", trial, v, u, got, want)
				}
				if got := lk32.Dist(v, u); got != want {
					t.Fatalf("trial %d: int32 Dist(%d,%d) = %v, Problem.Dist = %v", trial, v, u, got, want)
				}
				if want != p.Dist(v, u) {
					t.Fatalf("trial %d: relabeling changed Dist(%d,%d)", trial, v, u)
				}
			}
		}

		if lk.average && lk.anyMiss {
			continue
		}
		k := 2 + rng.Intn(3)
		members := make([][]int, k)
		for v := 0; v < n; v++ {
			if v%2 == 0 {
				members[v/2%k] = append(members[v/2%k], v)
			}
		}
		histW := lk.buildColabelHist(members)
		hist32 := lk32.buildColabelHist(members)
		gotM := make([]float64, k)
		wantM := make([]float64, k)
		for v := 1; v < n; v += 2 {
			histW.affinities(lk, v, gotM)
			hist32.affinities(lk32, v, wantM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("trial %d: wide-label width-%d M(%d,C%d) = %v, int32 = %v",
						trial, lk.width, v, c, gotM[c], wantM[c])
				}
			}
		}
	}
}

// FuzzLabelKernelWidths drives the packed uint8/uint16 kernels against the
// int32 kernel on fuzzer-chosen instances — both missing modes, weights,
// optional wide relabeling — requiring bit-for-bit equality on DistRowTo
// and the histogram affinities.
func FuzzLabelKernelWidths(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), false, false)
	f.Add(int64(2), uint8(50), uint8(7), uint8(1), true, false)
	f.Add(int64(3), uint8(9), uint8(2), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, modeRaw uint8, weighted, widen bool) {
		n := 2 + int(nRaw)%60
		m := 1 + int(mRaw)%8
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		opts.MissingTogether = []float64{0.25, 0.5, 0.75}[modeRaw%3]
		if weighted {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*4
			}
			opts.Weights = w
		}
		p := randMixedProblem(t, rng, n, m, 0.3, opts)
		if widen {
			p = widenLabels(t, p, 300)
		}
		ref := p.kernelWidth(width32)
		packed := p.kernel()
		if packed.width == width32 {
			return // nothing narrower to compare
		}

		targets := rng.Perm(n)
		want := make([]float64, n)
		got := make([]float64, n)
		for v := 0; v < n; v++ {
			ref.DistRowTo(v, targets, want)
			packed.DistRowTo(v, targets, got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("width-%d DistRowTo(%d)[->%d] = %v, int32 = %v (n=%d m=%d mode=%d)",
						packed.width, v, targets[j], got[j], want[j], n, m, opts.MissingMode)
				}
			}
		}

		if ref.average && ref.anyMiss {
			return
		}
		k := 1 + int(nRaw)%3
		members := make([][]int, k)
		for v := 0; v < n; v += 2 {
			members[v/2%k] = append(members[v/2%k], v)
		}
		for _, mem := range members {
			if len(mem) == 0 {
				return
			}
		}
		refHist := ref.buildColabelHist(members)
		packedHist := packed.buildColabelHist(members)
		wantM := make([]float64, k)
		gotM := make([]float64, k)
		for v := 0; v < n; v++ {
			refHist.affinities(ref, v, wantM)
			packedHist.affinities(packed, v, gotM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("width-%d M(%d,C%d) = %v, int32 = %v", packed.width, v, c, gotM[c], wantM[c])
				}
			}
		}
	})
}
