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

// dyadicWeights returns canned weight vectors whose entries are multiples
// of 1/2 and whose total is a power of two, so aggregation distances stay
// exact dyadic rationals; nil entries mean uniform weights (use with a
// power-of-two m).
func dyadicWeights(m int) []float64 {
	switch m {
	case 2:
		return []float64{0.5, 1.5}
	case 4:
		return []float64{1, 0.5, 1.5, 1}
	case 8:
		return []float64{1, 1, 1, 1, 0.5, 1.5, 0.5, 1.5}
	default:
		return nil
	}
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

// checkKernelDist requires the kernel's Dist and DistRowTo to reproduce the
// reference []int pair loop bit for bit on every pair; DistRowTo runs on a
// shuffled target list with the diagonal included.
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
			if want := ref.Dist(v, u); dst[j] != want {
				t.Fatalf("%s: DistRowTo(%d)[->%d] = %v, reference = %v", name, v, u, dst[j], want)
			}
		}
	}
}

// kernelCase builds the problem over cs and its reference at coin
// probability p. p = 0 is not expressible through ProblemOptions (0 means
// ½), so it is set on both after they are built (withMissingP).
func kernelCase(t testing.TB, cs []partition.Labels, opts ProblemOptions, p float64) (*Problem, *refDist) {
	t.Helper()
	opts.MissingTogether = p
	prob, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDist(cs, opts)
	ref.missingP = p
	return withMissingP(prob, p), ref
}

// wantLanes reports whether the kernel should read its rows from lanes:
// uniform weights, and no missing label or the coin model at p ∈ {0, ½, 1}.
func wantLanes(lk *Problem, p float64) bool {
	return lk.uniform && (!lk.anyMiss || !lk.average && (p == 0 || p == 0.5 || p == 1))
}

// TestLabelKernelDistBitIdentical: the Problem's Dist and DistRowTo must
// reproduce the reference []int pair loop bit for bit — not approximately
// — on every pair, at both storage widths (with labels scaled into the
// int32 lane's high bits), for every m in kernelShapes and every
// combination of uniform or weighted inputs, missing mode and missing
// probability p ∈ {0, ½, 1, 0.37}. The
// kernel mirrors the loop's float operations in the loop's order; its lane
// path (uniform weights, and the coin model at p ∈ {0, ½, 1} or no missing
// label) counts the separating and missing lanes of every pair, missing
// labels on either side included, and reads the loop's exact sum from a
// table, so this holds on arbitrary (non-dyadic) instances too.
func TestLabelKernelDistBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, m := range kernelShapes {
		for _, weighted := range []bool{false, true} {
			for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
				for _, pMiss := range []float64{0, 0.2, 0.6} {
					for _, scale := range []int{1, 256, 65536} {
						for _, p := range []float64{0, 0.5, 1, 0.37} {
							n := 2 + rng.Intn(40)
							opts := ProblemOptions{MissingMode: mode}
							if weighted {
								w := make([]float64, m)
								for i := range w {
									w[i] = 0.25 + rng.Float64()*3
								}
								opts.Weights = w
							}
							cs := randMixedInputs(rng, n, m, pMiss)
							scaleLabels(cs, scale)
							prob, ref := kernelCase(t, cs, opts, p)
							name := fmt.Sprintf("m=%d weighted=%v mode=%d pMiss=%v scale=%d p=%v", m, weighted, mode, pMiss, scale, p)
							for u := 0; u < n; u++ {
								for v := 0; v < n; v++ {
									if got, want := prob.Dist(u, v), ref.Dist(u, v); got != want {
										t.Fatalf("%s: Problem.Dist(%d,%d) = %v, reference = %v", name, u, v, got, want)
									}
								}
							}
							targets := rng.Perm(n)
							for _, lk := range atEveryWidth(prob) {
								if got, want := lk.onLanes, wantLanes(lk, p); got != want {
									t.Fatalf("%s width %d: onLanes = %v, want %v", name, lk.width, got, want)
								}
								checkKernelDist(t, fmt.Sprintf("%s width %d", name, lk.width), lk, ref, targets)
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

// TestColabelHistAffinities: the histogram evaluation of M(v, C_c) must
// match the probing sum Σ_{u∈C_c} Dist(v,u) — exactly on dyadic instances,
// to float-drift tolerance otherwise.
func TestColabelHistAffinities(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 40; trial++ {
		dyadic := trial%2 == 0
		var m int
		var opts ProblemOptions
		if dyadic {
			m = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
			opts.MissingTogether = []float64{0.25, 0.5, 0.75}[trial%3]
			if w := dyadicWeights(m); rng.Intn(2) == 0 && w != nil {
				opts.Weights = w
			}
		} else {
			m = 1 + rng.Intn(9)
			opts.MissingTogether = rng.Float64()
			if opts.MissingTogether == 0 {
				opts.MissingTogether = 0.5
			}
			if rng.Intn(2) == 0 {
				w := make([]float64, m)
				for i := range w {
					w[i] = 0.25 + rng.Float64()*3
				}
				opts.Weights = w
			}
		}
		n := 10 + rng.Intn(60)
		p := randMixedProblem(t, rng, n, m, 0.3, opts)
		lk := p

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
		hist := lk.buildColabelHist(members)
		got := make([]float64, k)
		for v := 1; v < n; v += 2 {
			hist.affinities(lk, v, got)
			for c, mem := range members {
				var want float64
				for _, u := range mem {
					want += p.Dist(v, u)
				}
				if dyadic {
					if got[c] != want {
						t.Fatalf("trial %d (dyadic): M(%d,C%d) = %v, probing %v", trial, v, c, got[c], want)
					}
				} else if math.Abs(got[c]-want) > 1e-9 {
					t.Fatalf("trial %d: M(%d,C%d) = %v, probing %v", trial, v, c, got[c], want)
				}
			}
		}
	}
}

// TestSampleKernelMatchesReferenceDyadic: on exact-arithmetic instances
// (power-of-two total weight, dyadic missing probabilities — with missing
// values, dyadic weights, both uniform and weighted) the histogram
// assignment must reproduce the probing assignment's clustering bit for
// bit, singleton recluster included.
func TestSampleKernelMatchesReferenceDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 20; trial++ {
		m := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		opts := ProblemOptions{MissingTogether: []float64{0.25, 0.5, 0.75}[trial%3]}
		if w := dyadicWeights(m); trial%2 == 1 && w != nil {
			opts.Weights = w
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
// denominators do not decompose into histograms), which mirrors the probing
// arithmetic exactly — so labels must match bit for bit even with arbitrary
// non-dyadic weights.
func TestSampleKernelMatchesReferenceAverageMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(7)
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 + rng.Float64()*3
		}
		p := randMixedProblem(t, rng, 200+rng.Intn(100), m, 0.3,
			ProblemOptions{MissingMode: MissingAverage, Weights: w})
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

// TestSampleKernelCloseContinuous: on non-dyadic instances (odd m, random
// weights) the histogram association drifts from the probing sums by ulps,
// so a tie between two assignment options can break differently than under
// probing — but the cluster the kernel picks for each object must still
// cost within 1e-9 of the probing optimum d(v, C_i). The recluster pass is
// disabled so the assignment decisions survive into the returned labels.
func TestSampleKernelCloseContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	for trial := 0; trial < 10; trial++ {
		m := []int{3, 5, 7, 9}[rng.Intn(4)]
		var opts ProblemOptions
		if trial%2 == 1 {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*3
			}
			opts.Weights = w
		}
		n := 250
		const s = 50
		p := randMixedProblem(t, rng, n, m, 0.2, opts)

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
// kernelShapes, both storage widths (re-encoded or reached by scaled
// labels), both missing modes, weighted and uniform, with and without
// missing labels, p ∈ {0, ½, 1} (the lane path, missing labels included),
// ¼ and arbitrary missing probabilities — requiring bit-for-bit
// equality.
func FuzzLabelKernelEquiv(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint8(2), uint8(0), false)
	f.Add(int64(2), uint8(50), uint8(7), uint8(1), uint8(0), uint8(1), true)
	f.Add(int64(3), uint8(5), uint8(1), uint8(0), uint8(4), uint8(2), false)
	f.Add(int64(4), uint8(60), uint8(11), uint8(0), uint8(1), uint8(5), false)
	f.Add(int64(5), uint8(30), uint8(9), uint8(1), uint8(2), uint8(9), false)
	f.Add(int64(6), uint8(40), uint8(10), uint8(0), uint8(3), uint8(15), true)
	f.Add(int64(7), uint8(45), uint8(3), uint8(0), uint8(1), uint8(2), true)
	f.Add(int64(8), uint8(35), uint8(8), uint8(1), uint8(4), uint8(7), false)
	// Missing labels on the lane path over multi-word rows: m = 22, 17, 9
	// at p = ½, 0, 1 and widths 8, 32, 32.
	f.Add(int64(9), uint8(50), uint8(11), uint8(0), uint8(1), uint8(0), false)
	f.Add(int64(10), uint8(40), uint8(10), uint8(0), uint8(0), uint8(1), false)
	f.Add(int64(11), uint8(30), uint8(8), uint8(0), uint8(2), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, modeRaw, pSel, shape uint8, weighted bool) {
		n := 2 + int(nRaw)%80
		m := kernelShapes[int(mRaw)%len(kernelShapes)]
		wide := shape%3 != 0 // int32 re-encoding on two shapes of three
		pMiss := []float64{0.3, 0}[shape/3%2]
		scale := []int{1, 256, 65536}[shape/6%3]
		rng := rand.New(rand.NewSource(seed))
		var opts ProblemOptions
		if modeRaw%2 == 1 {
			opts.MissingMode = MissingAverage
		}
		p := []float64{0, 0.5, 1, 0.25, rng.Float64()}[pSel%5]
		if weighted {
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.25 + rng.Float64()*4
			}
			opts.Weights = w
		}
		cs := randMixedInputs(rng, n, m, pMiss)
		scaleLabels(cs, scale)
		prob, ref := kernelCase(t, cs, opts, p)
		lk := prob
		if wide {
			lk = widened(prob)
		}
		name := fmt.Sprintf("n=%d m=%d width=%d scale=%d mode=%d p=%v", n, m, lk.width, scale, opts.MissingMode, p)
		if got, want := lk.onLanes, wantLanes(lk, p); got != want {
			t.Fatalf("%s: onLanes = %v, want %v", name, got, want)
		}
		checkKernelDist(t, name, lk, ref, rng.Perm(n))
	})
}
