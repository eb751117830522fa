package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// randMixedProblem builds a random aggregation instance over
// randMixedInputs under the given options.
func randMixedProblem(t testing.TB, rng *rand.Rand, n, m int, pMiss float64, opts ProblemOptions) *Problem {
	t.Helper()
	p, err := NewProblem(randMixedInputs(rng, n, m, pMiss), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randMixedInputs draws m clusterings of n objects over up to 5 planted
// labels, each label missing with probability pMiss.
func randMixedInputs(rng *rand.Rand, n, m int, pMiss float64) []partition.Labels {
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := make(partition.Labels, n)
		for j := range c {
			if rng.Float64() < pMiss {
				c[j] = partition.Missing
			} else {
				c[j] = rng.Intn(5)
			}
		}
		cs[i] = c
	}
	return cs
}

// kernelShapes are the clustering counts the kernel equivalence tests
// cover: every m up to 9, and m = 16, 17, 22, whose rows span two or more
// 64-bit lane words at every width (and 22 is the Mushrooms width).
var kernelShapes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 22}

// scaleLabels multiplies every present label by scale in place: 256 moves
// the labels into the second byte of a 32-bit lane, 65536 into its upper
// half, so the packed width grows and labels differ only in the lane bits
// the one-byte width lacks.
func scaleLabels(cs []partition.Labels, scale int) {
	for _, c := range cs {
		for j, l := range c {
			if l != partition.Missing {
				c[j] = l * scale
			}
		}
	}
}

// atEveryWidth returns p and, when p packs to one byte, its int32
// re-encoding.
func atEveryWidth(p *Problem) []*Problem {
	if p.width == width32 {
		return []*Problem{p}
	}
	return []*Problem{p, widened(p)}
}

// checkKernelDist requires the kernel's Dist to reproduce the reference
// []int pair loop on every pair, and DistRowTo to equal Dist, bit for bit;
// DistRowTo runs on a shuffled target list with the diagonal included.
func checkKernelDist(t *testing.T, name string, lk *Problem, ref *refDist, targets []int) {
	t.Helper()
	n := lk.N()
	if n != ref.N() {
		t.Fatalf("%s: kernel N %d, want %d", name, n, ref.N())
	}
	dst := make([]float64, len(targets))
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if got, want := lk.Dist(v, u), ref.Dist(v, u); got != want {
				t.Fatalf("%s: Dist(%d,%d) = %v, reference = %v", name, v, u, got, want)
			}
		}
		lk.DistRowTo(v, targets, dst)
		for j, u := range targets {
			if want := lk.Dist(v, u); dst[j] != want {
				t.Fatalf("%s: DistRowTo(%d)[->%d] = %v, Dist = %v", name, v, u, dst[j], want)
			}
		}
	}
}

// kernelCase builds the problem over cs and its reference.
func kernelCase(t testing.TB, cs []partition.Labels, opts ProblemOptions) (*Problem, *refDist) {
	t.Helper()
	prob, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prob, newRefDist(cs, opts)
}

// TestLabelKernelDistBitIdentical: the Problem's Dist and DistRowTo must
// reproduce the reference []int pair loop on every pair, bit for bit, at
// both storage widths (with labels scaled into the int32 lane's high
// bits), for every m in kernelShapes and both missing modes. Both count
// (s, q) and read x(s, q), and every partial sum of the loop is a multiple
// of ½, so no order of the inputs rounds. DistRowTo equals Dist, and the
// int32 re-encoding the one-byte block, bit for bit.
func TestLabelKernelDistBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, m := range kernelShapes {
		for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
			for _, pMiss := range []float64{0, 0.2, 0.6} {
				for _, scale := range []int{1, 256, 65536} {
					n := 2 + rng.Intn(40)
					cs := randMixedInputs(rng, n, m, pMiss)
					scaleLabels(cs, scale)
					prob, ref := kernelCase(t, cs, ProblemOptions{MissingMode: mode})
					name := fmt.Sprintf("m=%d mode=%d pMiss=%v scale=%d", m, mode, pMiss, scale)
					targets := rng.Perm(n)
					for _, lk := range atEveryWidth(prob) {
						name := fmt.Sprintf("%s width %d", name, lk.width)
						checkKernelDist(t, name, lk, ref, targets)
						for u := 0; u < n; u++ {
							for v := 0; v < n; v++ {
								if got, want := lk.Dist(u, v), prob.Dist(u, v); got != want {
									t.Fatalf("%s: Dist(%d,%d) = %v, one-byte %v", name, u, v, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelLanesConcurrentBuild: the kernel packs its lanes on the first
// row read, and FURTHEST's parallel pair scan can make that read from
// several goroutines at once. Every reader must see the finished packing
// (run under -race) and the reference distances.
func TestKernelLanesConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	cs := randMixedInputs(rng, 300, 9, 0.05)
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lk, ref := p, newRefDist(cs, ProblemOptions{})
	targets := rng.Perm(lk.N())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			dst := make([]float64, len(targets))
			lk.DistRowTo(v, targets, dst)
			for j, u := range targets {
				if want := ref.Dist(v, u); dst[j] != want {
					t.Errorf("DistRowTo(%d)[->%d] = %v, reference = %v", v, u, dst[j], want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFurthestKernelRowPathBitIdentical: FURTHEST over the label kernel
// runs its center scans and captured-object reads through DistRowTo; hidden
// behind plain Dist calls the same kernel must yield the same labels and
// cost, bit for bit, with and without missing values and a cluster count.
func TestFurthestKernelRowPathBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 16; trial++ {
		m := []int{1, 3, 4, 6}[trial%4]
		pMiss := []float64{0, 0.2}[trial/4%2]
		p := randMixedProblem(t, rng, 20+rng.Intn(120), m, pMiss, ProblemOptions{})
		k := p
		for _, K := range []int{0, 3} {
			want, wantCost := corrclust.FurthestWithOptions(hideKernel{k}, corrclust.FurthestOptions{K: K})
			got, gotCost := corrclust.FurthestWithOptions(k, corrclust.FurthestOptions{K: K})
			if gotCost != wantCost {
				t.Fatalf("trial %d K=%d: row-path cost %v, generic %v", trial, K, gotCost, wantCost)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d K=%d: row-path labels %v, generic %v", trial, K, got, want)
				}
			}
		}
	}
}

// hideKernel exposes the Problem through Dist only, so corrclust takes
// its generic per-pair paths.
type hideKernel struct{ k *Problem }

func (h hideKernel) N() int                { return h.k.N() }
func (h hideKernel) Dist(u, v int) float64 { return h.k.Dist(u, v) }

// affinities runs the production affinity pass (affinitiesW at p's width)
// for object v: dst[c] = M(v, C_c), returning Σ_c (sizes[c] − dst[c]).
func (h *colabelHist) affinities(p *Problem, v int, sizes, dst []float64) float64 {
	switch p.width {
	case width8:
		return affinitiesW(h, p.lab8, v, sizes, dst)
	default:
		return affinitiesW(h, p.lab32, v, sizes, dst)
	}
}

// clusterSizes returns |C_c| per cluster as the assignment pass holds them.
func clusterSizes(members [][]int) []float64 {
	sizes := make([]float64, len(members))
	for c, mem := range members {
		sizes[c] = float64(len(mem))
	}
	return sizes
}

// TestColabelHistAffinities: the blocked histogram pass must equal the
// clustering-by-clustering loop (affinitiesReference) bit for bit on every
// trial, and its totalAway the c-order sum over that loop's affinities.
// m runs 1..17, so every last-pass width 1..8 and one or two full passes
// before it run. Against the probing sum Σ_{u∈C_c} Dist(v,u) it must
// agree exactly when m is a power of two (every distance is then dyadic)
// and to float-drift tolerance otherwise. The families: the coin model
// with 30% missing labels, and MissingAverage without missing labels (the
// one MissingAverage regime the histograms serve); every third trial
// relabels one clustering past histBoundCap, so its histogram takes the
// sample-observed bound at int32.
func TestColabelHistAffinities(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 4*17*2; trial++ {
		m := 1 + trial%17
		pMiss := 0.3
		var opts ProblemOptions
		if trial/17%2 == 1 {
			opts.MissingMode = MissingAverage
			pMiss = 0
		}
		n := 10 + rng.Intn(60)
		cs := randMixedInputs(rng, n, m, pMiss)
		if trial%3 == 0 {
			for j, l := range cs[0] {
				if l != partition.Missing {
					cs[0][j] = l * 2000 // past histBoundCap and the byte
				}
			}
		}
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		exact := m&(m-1) == 0

		// A random "sample clustering" over a random subset of the objects.
		k := 1 + rng.Intn(4)
		members := make([][]int, k)
		for v := 0; v < n/2; v++ {
			c := rng.Intn(k)
			members[c] = append(members[c], v*2) // even objects, ascending
		}
		hasEmpty := false
		for _, mem := range members {
			if len(mem) == 0 {
				hasEmpty = true
			}
		}
		if hasEmpty {
			continue // Sample never produces empty clusters
		}
		hist := p.buildColabelHist(members)
		sizes := clusterSizes(members)
		got := make([]float64, k)
		ref := make([]float64, k)
		for v := 1; v < n; v += 2 {
			totalAway := hist.affinities(p, v, sizes, got)
			affinitiesReference(hist, p, v, ref)
			var refAway float64
			for c, mem := range members {
				if got[c] != ref[c] {
					t.Fatalf("trial %d (m=%d): M(%d,C%d) = %v, clustering loop %v",
						trial, m, v, c, got[c], ref[c])
				}
				refAway += sizes[c] - ref[c]
				var want float64
				for _, u := range mem {
					want += p.Dist(v, u)
				}
				if exact {
					if got[c] != want {
						t.Fatalf("trial %d (dyadic): M(%d,C%d) = %v, probing %v", trial, v, c, got[c], want)
					}
				} else if math.Abs(got[c]-want) > 1e-9 {
					t.Fatalf("trial %d: M(%d,C%d) = %v, probing %v", trial, v, c, got[c], want)
				}
			}
			if totalAway != refAway {
				t.Fatalf("trial %d: totalAway %v, clustering loop %v", trial, totalAway, refAway)
			}
		}
	}
}

// TestSampleKernelMatchesReferenceDyadic: on exact-arithmetic instances
// (a power-of-two m, with missing values) the
// histogram assignment must reproduce the probing assignment's clustering
// bit for bit, singleton recluster included; every other trial runs
// MissingAverage, whose row route must match it too.
func TestSampleKernelMatchesReferenceDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 20; trial++ {
		m := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		var opts ProblemOptions
		if trial%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		n := 150 + rng.Intn(200)
		p := randMixedProblem(t, rng, n, m, 0.25, opts)
		s := 30 + rng.Intn(40)

		want, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
			SampleSize: s, Rand: rand.New(rand.NewSource(int64(trial))), assign: assignReference,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
			SampleSize: s, Rand: rand.New(rand.NewSource(int64(trial))),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (m=%d n=%d): kernel and reference assignments diverge at object %d: %d != %d",
					trial, m, n, i, got[i], want[i])
			}
		}
	}
}

// TestSampleKernelMatchesReferenceAverageMissing: under MissingAverage with
// missing values the kernel keeps per-pair row evaluation (per-pair vote
// denominators do not decompose into histograms), which reads the same
// distances as probing — so labels must match bit for bit at any m.
func TestSampleKernelMatchesReferenceAverageMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(7)
		p := randMixedProblem(t, rng, 200+rng.Intn(100), m, 0.3,
			ProblemOptions{MissingMode: MissingAverage})
		want, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
			SampleSize: 40, Rand: rand.New(rand.NewSource(int64(trial))), assign: assignReference,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
			SampleSize: 40, Rand: rand.New(rand.NewSource(int64(trial))),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: average-mode kernel diverges from reference at %d", trial, i)
			}
		}
	}
}

// TestSampleKernelCloseContinuous: on non-dyadic instances (odd m) the
// histogram association drifts from the probing sums by ulps,
// so a tie between two assignment options can break differently than under
// probing — but the cluster the kernel picks for each object must still
// cost within 1e-9 of the probing optimum d(v, C_i). The recluster pass is
// disabled so the assignment decisions survive into the returned labels.
func TestSampleKernelCloseContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 10; trial++ {
		m := []int{3, 5, 7, 9}[rng.Intn(4)]
		n := 250
		const s = 50
		p := randMixedProblem(t, rng, n, m, 0.2, ProblemOptions{})

		got, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
			SampleSize: s, Rand: rand.New(rand.NewSource(int64(trial))), noSingletonRecluster: true,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Reconstruct the sample clustering: Sample draws rng.Perm(n)[:s],
		// and sample objects keep their cluster through the assignment pass
		// (Normalize only renumbers labels).
		sample := rand.New(rand.NewSource(int64(trial))).Perm(n)[:s]
		inSample := make([]bool, n)
		for _, i := range sample {
			inSample[i] = true
		}
		clusterOf := map[int]int{} // final label -> dense sample-cluster id
		var members [][]int
		for _, i := range sample {
			c, ok := clusterOf[got[i]]
			if !ok {
				c = len(members)
				clusterOf[got[i]] = c
				members = append(members, nil)
			}
			members[c] = append(members[c], i)
		}

		// Every non-sample object's chosen option must be within 1e-9 of
		// the probing optimum over {join C_0..C_{k-1}, fresh singleton}.
		for v := 0; v < n; v++ {
			if inSample[v] {
				continue
			}
			var totalAway float64
			M := make([]float64, len(members))
			for c, mem := range members {
				for _, u := range mem {
					M[c] += p.Dist(v, u)
				}
				totalAway += float64(len(mem)) - M[c]
			}
			best := totalAway // fresh singleton
			for c := range members {
				if d := M[c] + totalAway - (float64(len(members[c])) - M[c]); d < best {
					best = d
				}
			}
			var chosen float64
			if c, ok := clusterOf[got[v]]; ok {
				chosen = M[c] + totalAway - (float64(len(members[c])) - M[c])
			} else {
				chosen = totalAway
			}
			if chosen-best > 1e-9 {
				t.Fatalf("trial %d (m=%d): object %d assigned at cost %v, probing optimum %v",
					trial, m, v, chosen, best)
			}
		}
	}
}

// TestSampleAssignCounters pins the kernel path's counter contract: the
// bulk sample.assign.dist_probes charge equals the probe count of the
// reference path, kernel_cols records the packed objects, and hist_builds
// the per-clustering histogram builds (zero on the MissingAverage row
// route).
func TestSampleAssignCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	p := randMixedProblem(t, rng, 400, 8, 0.2, ProblemOptions{})
	const s = 60

	run := func(ref bool) map[string]int64 {
		rec := obs.New()
		_, err := p.Sample(MethodAgglomerative, AggregateOptions{Recorder: rec}, SamplingOptions{
			SampleSize: s, Rand: rand.New(rand.NewSource(5)),
			noSingletonRecluster: true, // keep one assignment pass, no recursion
			assign:               assignWith(ref),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Counters()
	}
	refC, kerC := run(true), run(false)
	if refC["sample.assign.dist_probes"] != int64(400-s)*int64(s) {
		t.Fatalf("reference probes = %d, want %d", refC["sample.assign.dist_probes"], int64(400-s)*int64(s))
	}
	if kerC["sample.assign.dist_probes"] != refC["sample.assign.dist_probes"] {
		t.Errorf("kernel bulk probes = %d, reference counted %d",
			kerC["sample.assign.dist_probes"], refC["sample.assign.dist_probes"])
	}
	if kerC["sample.assign.kernel_cols"] != 400 {
		t.Errorf("kernel_cols = %d, want 400", kerC["sample.assign.kernel_cols"])
	}
	if kerC["sample.assign.hist_builds"] != 8 {
		t.Errorf("hist_builds = %d, want 8", kerC["sample.assign.hist_builds"])
	}
	if _, ok := refC["sample.assign.kernel_cols"]; ok {
		t.Error("reference path registered kernel_cols")
	}

	// MissingAverage with missing values takes the row route: histograms
	// are registered at zero, probes still bulk-charged.
	pAvg := randMixedProblem(t, rng, 400, 8, 0.2, ProblemOptions{MissingMode: MissingAverage})
	rec := obs.New()
	if _, err := pAvg.Sample(MethodAgglomerative, AggregateOptions{Recorder: rec}, SamplingOptions{
		SampleSize: s, Rand: rand.New(rand.NewSource(5)), noSingletonRecluster: true,
	}); err != nil {
		t.Fatal(err)
	}
	avgC := rec.Counters()
	if avgC["sample.assign.hist_builds"] != 0 {
		t.Errorf("average-mode hist_builds = %d, want 0", avgC["sample.assign.hist_builds"])
	}
	if avgC["sample.assign.dist_probes"] != int64(400-s)*int64(s) {
		t.Errorf("average-mode probes = %d, want %d", avgC["sample.assign.dist_probes"], int64(400-s)*int64(s))
	}
}

// FuzzLabelKernelEquiv drives the kernel's DistRowTo and Dist against the
// reference []int pair loop on fuzzer-chosen instances — every m in
// kernelShapes and m = 128..131 past histMaxM (one input in five), both
// storage widths (re-encoded or reached by scaled labels), both missing
// modes, with and without missing labels — requiring bit-for-bit equality
// everywhere (see checkKernelDist).
func FuzzLabelKernelEquiv(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint8(2), uint8(0))
	f.Add(int64(2), uint8(50), uint8(7), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint8(5), uint8(1), uint8(0), uint8(4), uint8(2))
	f.Add(int64(4), uint8(60), uint8(11), uint8(0), uint8(1), uint8(5))
	f.Add(int64(5), uint8(30), uint8(9), uint8(1), uint8(2), uint8(9))
	f.Add(int64(6), uint8(40), uint8(10), uint8(0), uint8(3), uint8(15))
	f.Add(int64(7), uint8(45), uint8(3), uint8(0), uint8(5), uint8(2))
	f.Add(int64(8), uint8(35), uint8(8), uint8(1), uint8(4), uint8(7))
	// Missing labels over multi-word rows: m = 22, 17, 9 at widths 8, 32,
	// 32, and m = 130 at both modes.
	f.Add(int64(9), uint8(50), uint8(11), uint8(0), uint8(1), uint8(0))
	f.Add(int64(10), uint8(40), uint8(10), uint8(0), uint8(0), uint8(1))
	f.Add(int64(11), uint8(30), uint8(8), uint8(0), uint8(2), uint8(2))
	f.Add(int64(12), uint8(30), uint8(2), uint8(0), uint8(4), uint8(0))
	f.Add(int64(13), uint8(25), uint8(2), uint8(1), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, modeRaw, mSel, shape uint8) {
		n := 2 + int(nRaw)%80
		m := kernelShapes[int(mRaw)%len(kernelShapes)]
		if mSel%5 == 4 {
			m = histMaxM + 1 + int(mRaw)%4
		}
		wide := shape%3 != 0 // int32 re-encoding on two shapes of three
		pMiss := []float64{0.3, 0}[shape/3%2]
		scale := []int{1, 256, 65536}[shape/6%3]
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		cs := randMixedInputs(rng, n, m, pMiss)
		scaleLabels(cs, scale)
		prob, ref := kernelCase(t, cs, opts)
		lk := prob
		if wide {
			lk = widened(prob)
		}
		name := fmt.Sprintf("n=%d m=%d width=%d scale=%d mode=%d", n, m, lk.width, scale, opts.MissingMode)
		checkKernelDist(t, name, lk, ref, rng.Perm(n))
	})
}
