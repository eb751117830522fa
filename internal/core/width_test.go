package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clusteragg/internal/partition"
)

// optionsOf returns the ProblemOptions p was built with.
func optionsOf(p *Problem) ProblemOptions {
	var opts ProblemOptions
	if p.average {
		opts.MissingMode = MissingAverage
	}
	return opts
}

// widened returns p over its label block re-encoded at int32, under p's
// options: a wider-than-minimum packing of the same instance, which the
// bit-identity tests pin against the one-byte block. A block already at
// int32 is shared as is.
func widened(p *Problem) *Problem {
	pc := p.packedBlock
	if pc.width == width8 {
		pc.width, pc.lab8, pc.lab32 = width32, nil, widenWords[uint8, int32](pc.lab8)
	}
	return p.over(&pc)
}

// widenLabels rebuilds p with every present label multiplied by factor: an
// injective relabeling, so the partition structure — and therefore every
// distance and every aggregation result — is unchanged, while the label
// bound grows past the uint8 sentinel and forces the int32 packing (and,
// past histBoundCap, the sample-observed histogram bound rescan).
func widenLabels(t testing.TB, p *Problem, factor int) *Problem {
	t.Helper()
	cs := make([]partition.Labels, p.M())
	for i, c := range p.Clusterings() {
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
	wp, err := NewProblem(cs, optionsOf(p))
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// TestKernelWidthSelection pins the build-time width choice: one byte while
// the byte's all-ones sentinel stays clear of every stored label, int32
// from label 255 on. A promoting label reached mid-column (AppendColumn)
// yields a problem equal to the one-byte build of the relabeled inputs.
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
		{255, width32}, // bound 256: label 255 would collide with the sentinel
		{65534, width32},
		{65535, width32},
		{70000, width32},
	}
	for _, c := range cases {
		if p := mk(c.maxLabel); p.width != c.want {
			t.Errorf("max label %d: width %d, want %d", c.maxLabel, p.width, c.want)
		}
	}
	for _, big := range []int{255, 65534} {
		checkPromotion(t, big, true)
	}
}

// checkPromotion builds an instance whose clustering 2 carries the label
// big at object n/2, through the column builder (the label arrives
// mid-column) or the row builder (mid-stream, in AppendRows batches). The
// problem must pack to int32 and equal, bit for bit, the one-byte build of
// the same inputs with big relabeled to 5, a label the clustering does not
// otherwise use: Dist, DistRowTo, Disagreement, LowerBound and Sample
// labels, on the histogram route (coin model) and the row route
// (MissingAverage with missing labels).
func checkPromotion(t *testing.T, big int, colMode bool) {
	t.Helper()
	for oi, opts := range []ProblemOptions{{}, {MissingMode: MissingAverage}} {
		name := fmt.Sprintf("label %d colMode=%v opts %d", big, colMode, oi)
		rng := rand.New(rand.NewSource(int64(big + oi)))
		const n, m = 120, 4
		cs := randMixedInputs(rng, n, m, 0.2)
		cs[2][n/2] = 5
		narrow := packedFrom(t, cs, opts, colMode)
		cs[2][n/2] = big
		wide := packedFrom(t, cs, opts, colMode)
		if narrow.width != width8 || wide.width != width32 {
			t.Fatalf("%s: widths %d and %d, want %d and %d", name, narrow.width, wide.width, width8, width32)
		}
		targets := rng.Perm(n)
		want, got := make([]float64, n), make([]float64, n)
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if g, w := wide.Dist(v, u), narrow.Dist(v, u); g != w {
					t.Fatalf("%s: Dist(%d,%d) = %v, one-byte %v", name, v, u, g, w)
				}
			}
			narrow.DistRowTo(v, targets, want)
			wide.DistRowTo(v, targets, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: DistRowTo(%d) = %v, one-byte %v", name, v, got, want)
			}
		}
		for _, cand := range []partition.Labels{completeMissing(cs[2]), randMixedInputs(rng, n, 1, 0)[0]} {
			if g, w := wide.Disagreement(cand), narrow.Disagreement(cand); g != w {
				t.Fatalf("%s: Disagreement %v, one-byte %v", name, g, w)
			}
		}
		if g, w := wide.LowerBound(), narrow.LowerBound(); g != w {
			t.Fatalf("%s: LowerBound %v, one-byte %v", name, g, w)
		}
		sample := func(p *Problem) partition.Labels {
			labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
				SampleSize: 30, Rand: rand.New(rand.NewSource(7)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return labels
		}
		if g, w := sample(wide), sample(narrow); !slices.Equal(g, w) {
			t.Fatalf("%s: Sample labels %v, one-byte %v", name, g, w)
		}
	}
}

// TestLabelKernelWidthsBitIdentical: both storage widths must produce
// bit-identical distances and histogram affinities — the packed loops never
// let the width touch a float. Each trial compares the auto (uint8) problem
// against its int32 re-encoding on Dist, DistRowTo, and the co-label
// histogram path, across both missing modes and m from 1 to 8.
func TestLabelKernelWidthsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(60)
		m := 1 + rng.Intn(8)
		var opts ProblemOptions
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		base := randMixedProblem(t, rng, n, m, 0.3, opts)
		if base.width != width8 {
			t.Fatalf("trial %d: auto width %d, want uint8 for labels < 5", trial, base.width)
		}
		wide := widened(base)

		targets := rng.Perm(n)
		want := make([]float64, n)
		got := make([]float64, n)
		for v := 0; v < n; v++ {
			base.DistRowTo(v, targets, want)
			wide.DistRowTo(v, targets, got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d: width-4 DistRowTo(%d)[->%d] = %v, width-1 = %v",
						trial, v, targets[j], got[j], want[j])
				}
			}
			if d := wide.Dist(v, targets[0]); d != base.Dist(v, targets[0]) {
				t.Fatalf("trial %d: width-4 Dist diverges", trial)
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
		hist := wide.buildColabelHist(members)
		sizes := clusterSizes(members)
		for v := 1; v < n; v += 2 {
			baseHist.affinities(base, v, sizes, wantM)
			hist.affinities(wide, v, sizes, gotM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("trial %d: width-4 M(%d,C%d) = %v, width-1 = %v",
						trial, v, c, gotM[c], wantM[c])
				}
			}
		}
	}
}

// TestLabelKernelWideLabelsBitIdentical: instances whose labels genuinely
// need int32 (past 255, and past histBoundCap so the histograms rescan the
// sample for their bound) must agree bit for bit with the one-byte problem
// over the unscaled labels, on Dist and the histogram affinities:
// relabeling must not change distances at all.
func TestLabelKernelWideLabelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(6)
		var opts ProblemOptions
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		p := randMixedProblem(t, rng, 30+rng.Intn(40), m, 0.25, opts)
		factor := []int{300, 70000}[trial%2] // past uint8 / past histBoundCap
		wp := widenLabels(t, p, factor)

		if wp.width != width32 {
			t.Fatalf("trial %d: factor %d auto width %d, want %d", trial, factor, wp.width, width32)
		}
		n := wp.N()
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if got, want := wp.Dist(v, u), p.Dist(v, u); got != want {
					t.Fatalf("trial %d: wide Dist(%d,%d) = %v, one-byte %v", trial, v, u, got, want)
				}
			}
		}

		if wp.average && wp.anyMiss {
			continue
		}
		k := 2 + rng.Intn(3)
		members := make([][]int, k)
		for v := 0; v < n; v++ {
			if v%2 == 0 {
				members[v/2%k] = append(members[v/2%k], v)
			}
		}
		histW := wp.buildColabelHist(members)
		hist8 := p.buildColabelHist(members)
		gotM := make([]float64, k)
		wantM := make([]float64, k)
		sizes := clusterSizes(members)
		for v := 1; v < n; v += 2 {
			histW.affinities(wp, v, sizes, gotM)
			hist8.affinities(p, v, sizes, wantM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("trial %d: wide-label M(%d,C%d) = %v, one-byte %v",
						trial, v, c, gotM[c], wantM[c])
				}
			}
		}
	}
}

// FuzzLabelKernelWidths drives the one-byte problem against its int32
// re-encoding on fuzzer-chosen instances — both missing modes, m from 1 to
// 8 or, with multiWord set, from 9 to 22 (rows of two or more lane words
// at int32), optional wide relabeling — requiring bit-for-bit equality on
// DistRowTo and the histogram affinities.
func FuzzLabelKernelWidths(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), false, false)
	f.Add(int64(2), uint8(50), uint8(7), uint8(1), true, false)
	f.Add(int64(3), uint8(9), uint8(2), uint8(2), false, true)
	f.Add(int64(4), uint8(30), uint8(13), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, modeRaw uint8, multiWord, widen bool) {
		n := 2 + int(nRaw)%60
		m := 1 + int(mRaw)%8
		if multiWord {
			m = 9 + int(mRaw)%14
		}
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		packed := randMixedProblem(t, rng, n, m, 0.3, opts)
		ref := widened(packed)
		if widen {
			ref = widenLabels(t, packed, 300)
		}

		targets := rng.Perm(n)
		want := make([]float64, n)
		got := make([]float64, n)
		for v := 0; v < n; v++ {
			ref.DistRowTo(v, targets, want)
			packed.DistRowTo(v, targets, got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("width-1 DistRowTo(%d)[->%d] = %v, int32 = %v (n=%d m=%d mode=%d)",
						v, targets[j], got[j], want[j], n, m, opts.MissingMode)
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
		sizes := clusterSizes(members)
		for v := 0; v < n; v++ {
			refHist.affinities(ref, v, sizes, wantM)
			packedHist.affinities(packed, v, sizes, gotM)
			for c := range gotM {
				if gotM[c] != wantM[c] {
					t.Fatalf("width-1 M(%d,C%d) = %v, int32 = %v", v, c, gotM[c], wantM[c])
				}
			}
		}
	})
}
