package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

// FuzzObjectiveExact pins the contingency-table Disagreement and the
// distinct-row LowerBound to the O(n²) pair scans in corrclust, across
// both missing modes, m from 1 to 12, problems from NewProblem and from
// either builder mode, and label blocks at widths 8 and 32:
//   - Disagreement = corrclust.Cost(kernel, ·)·m within 1e-9 relative (the
//     scan sums rounded distances), and bit-identical across widths;
//   - LowerBound = refLowerBound(kernel)·m within 1e-9 relative;
//   - LowerBound ≤ Disagreement, bit for bit under the coin model (every
//     term is a multiple of ½), within 1e-9 under MissingAverage with
//     missing labels;
//   - LowerBound is bit-identical at GOMAXPROCS 1 and 4.
//
// Candidate labels include partition.Missing (one more cluster, as in the
// scan) and labels spread far wider than n.
func FuzzObjectiveExact(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(2), false, false, uint8(0), uint8(0))
	f.Add(int64(2), uint8(40), uint8(5), uint8(5), false, true, uint8(1), uint8(1))
	f.Add(int64(3), uint8(7), uint8(1), uint8(4), true, false, uint8(2), uint8(2))
	f.Add(int64(4), uint8(33), uint8(9), uint8(0), true, true, uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, missRaw uint8, average, packed bool, widthRaw, candRaw uint8) {
		n := int(nRaw) % 41
		m := 1 + int(mRaw)%12
		missing := float64(missRaw%6) / 10
		rng := rand.New(rand.NewSource(seed))

		var opts ProblemOptions
		if average {
			opts.MissingMode = MissingAverage
		}
		prob := randMixedProblem(t, rng, n, m, missing, opts)
		// Native widths 8 and 32: spread the labels past 255 or 65535.
		if factor := []int{1, 300, 70000}[widthRaw%3]; factor > 1 {
			prob = widenLabels(t, prob, factor)
		}
		if packed {
			prob = packedTwin(t, prob, widthRaw%2 == 0)
		}

		var cand partition.Labels
		switch candRaw % 3 {
		case 0: // small labels with missing entries
			cand = make(partition.Labels, n)
			for v := range cand {
				cand[v] = rng.Intn(4) - 1
			}
		case 1: // labels spread far wider than n
			cand = make(partition.Labels, n)
			for v := range cand {
				cand[v] = (rng.Intn(5)-1)*100003 + 7
			}
		default: // a completed input, as BESTCLUSTERING scores it
			if n > 0 {
				cand = completeMissing(prob.Clusterings()[rng.Intn(m)])
			} else {
				cand = partition.Labels{}
			}
		}

		ref := prob
		tw := float64(prob.M())
		wantD := tw * corrclust.Cost(ref, cand)
		wantLB := tw * refLowerBound(ref)
		d := prob.Disagreement(cand)
		if !closeRel(d, wantD) {
			t.Fatalf("Disagreement = %.17g, scan %.17g (n=%d m=%d)", d, wantD, n, m)
		}

		maxprocs := runtime.GOMAXPROCS(1)
		lb1 := prob.LowerBound()
		runtime.GOMAXPROCS(4)
		lb4 := prob.LowerBound()
		runtime.GOMAXPROCS(maxprocs)
		if lb1 != lb4 {
			t.Fatalf("LowerBound %.17g at GOMAXPROCS 1, %.17g at 4", lb1, lb4)
		}
		if !closeRel(lb1, wantLB) {
			t.Fatalf("LowerBound = %.17g, scan %.17g (n=%d m=%d)", lb1, wantLB, n, m)
		}

		exact := !(average && ref.anyMiss)
		if exact && lb1 > d || lb1 > d && !closeRel(lb1, d) {
			t.Fatalf("LowerBound %.17g above Disagreement %.17g (exact %v)", lb1, d, exact)
		}

		if prob.width == width8 {
			lk := widened(prob)
			if got := lk.Disagreement(cand); got != d {
				t.Fatalf("width-4 Disagreement %.17g, width-1 %.17g", got, d)
			}
			if got := lk.lowerBound(3); got != lb1 {
				t.Fatalf("width-4 LowerBound %.17g, width-1 %.17g", got, lb1)
			}
		}
	})
}

// TestBestClusteringApproximationMissing checks BESTCLUSTERING against the
// brute-force optimum on random n ≤ 8 instances with missing values.
//
// The paper's factor 2(1−1/m) rests on d_V being a metric between input
// clusterings. Under the coin model an input with missing labels is a
// fractional relation R_i (a missing pair is "together" with weight p = ½),
// and D(C) = Σ_i ‖R_i − C‖₁. BESTCLUSTERING scores the completion C'_j of
// R_j, which puts missing objects in singletons at L1 distance
// δ_j = p·(pairs with a missing endpoint in input j) from R_j. The
// paper's averaging argument with the L1 triangle inequality then gives
//
//	min_j D(C'_j) ≤ 2(1−1/m)·OPT + Σ_j δ_j   (uniform weights),
//
// which is what this suite asserts; without missing values it is the
// paper's bound. The plain factor does not survive missing values
// (TestBestClusteringMissingCounterexample), so the suite logs the worst
// empirical ratio and how many instances exceed it.
func TestBestClusteringApproximationMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	worst, over, trials := 0.0, 0, 300
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(7)
		m := 2 + rng.Intn(5)
		prob := randMixedProblem(t, rng, n, m, 0.1+0.4*rng.Float64(), ProblemOptions{})
		_, _, got := prob.BestClustering()
		_, optCost, err := corrclust.BruteForce(prob)
		if err != nil {
			t.Fatal(err)
		}
		opt := optCost * float64(m)
		slack := 0.0
		for _, c := range prob.Clusterings() {
			present := 0
			for _, l := range c {
				if l != partition.Missing {
					present++
				}
			}
			slack += DefaultMissingTogether * float64(n*(n-1)/2-present*(present-1)/2)
		}
		factor := 2 * (1 - 1/float64(m))
		if got > factor*opt+slack+1e-9 {
			t.Errorf("trial %d: BESTCLUSTERING %v > %v·OPT + %v = %v (OPT %v, n=%d m=%d)",
				trial, got, factor, slack, factor*opt+slack, opt, n, m)
		}
		if opt > 0 {
			worst = math.Max(worst, got/opt)
			if got > factor*opt+1e-9 {
				over++
			}
		}
	}
	t.Logf("worst BESTCLUSTERING/OPT with missing values: %.4f; %d of %d instances above 2(1−1/m)", worst, over, trials)
}

// TestBestClusteringMissingCounterexample pins an instance where
// BESTCLUSTERING exceeds the paper's 2(1−1/m) factor once inputs have
// missing values: m = 2, so the factor is 1, yet both completed inputs cost
// 3 while putting all three objects together costs 2.
func TestBestClusteringMissingCounterexample(t *testing.T) {
	const M = partition.Missing
	prob, err := NewProblem([]partition.Labels{{0, 0, M}, {M, 0, 0}}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, got := prob.BestClustering()
	_, optCost, err := corrclust.BruteForce(prob)
	if err != nil {
		t.Fatal(err)
	}
	if opt := 2 * optCost; got != 3 || opt != 2 {
		t.Fatalf("BESTCLUSTERING %v, OPT %v; want 3 and 2", got, opt)
	}
	if all := prob.Disagreement(partition.Labels{0, 0, 0}); all != 2 {
		t.Fatalf("all-together disagreement %v, want 2", all)
	}
}

// TestDisagreementMissingPairsConstant pins the coin model's split of the
// objective: a pair with a missing endpoint costs ½ whatever the candidate
// does with it, so Disagreement(C) − Σ_i Mirkin_i(C), the Mirkin distance
// counted over input i's present objects by a pair loop, is the same
// constant ½·Σ_i (C(n,2) − C(|O_i|,2)) for every candidate C, bit for bit.
func TestDisagreementMissingPairsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 20; trial++ {
		n, m := 2+rng.Intn(40), 1+rng.Intn(7)
		cs := randMixedInputs(rng, n, m, 0.4*rng.Float64())
		prob, err := NewProblem(cs, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var missPairs int
		for _, c := range cs {
			present := 0
			for _, l := range c {
				if l != partition.Missing {
					present++
				}
			}
			missPairs += n*(n-1)/2 - present*(present-1)/2
		}
		want := float64(missPairs) / 2
		for k := 0; k < 8; k++ {
			cand := randMixedInputs(rng, n, 1, 0)[0]
			var mirkin int
			for _, c := range cs {
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if c[u] != partition.Missing && c[v] != partition.Missing &&
							(c[u] == c[v]) != (cand[u] == cand[v]) {
							mirkin++
						}
					}
				}
			}
			if got := prob.Disagreement(cand) - float64(mirkin); got != want {
				t.Fatalf("trial %d (n=%d m=%d): Disagreement − ΣMirkin = %v, want %v for every candidate",
					trial, n, m, got, want)
			}
		}
	}
}

// TestDisagreementLengthMismatch: a candidate with the wrong number of
// labels is a caller bug and panics with a message naming both lengths.
func TestDisagreementLengthMismatch(t *testing.T) {
	prob, err := NewProblem([]partition.Labels{{0, 0, 1}}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, labels := range []partition.Labels{{0, 0}, {0, 0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Disagreement(%v) on 3 objects did not panic", labels)
				}
			}()
			prob.Disagreement(labels)
		}()
	}
}

// problemLanes packs p's distinct label rows as LowerBound does.
func problemLanes(p *Problem) *lanes {
	if p.width == width8 {
		return laneRows(p, p.lab8, groupRows(p, p.lab8))
	}
	return laneRows(p, p.lab32, groupRows(p, p.lab32))
}

// FuzzLowerBoundCounting pins LowerBound's subset counting of the clean
// row pairs to the pair sweep: the (s, q) histogram with the clean pairs
// counted equals the swept one cell for cell, at widths 8 and 32 (several
// words per row once m exceeds a word's lanes), with and without rows
// missing a label, at 1, 2 and 4 workers.
func FuzzLowerBoundCounting(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(5), uint8(0), uint8(4), false)
	f.Add(int64(2), uint8(120), uint8(11), uint8(2), uint8(3), true)
	f.Add(int64(3), uint8(90), uint8(9), uint8(1), uint8(2), false)
	f.Add(int64(4), uint8(200), uint8(3), uint8(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, missRaw, labRaw uint8, wide bool) {
		n := 2 + int(nRaw)%199
		m := 1 + int(mRaw)%12
		labels := 1 + int(labRaw)%5
		missing := []float64{0, 0, 0.02, 0.2}[missRaw%4]
		rng := rand.New(rand.NewSource(seed))
		cs := make([]partition.Labels, m)
		for i := range cs {
			cs[i] = make(partition.Labels, n)
			for v := range cs[i] {
				if rng.Float64() < missing {
					cs[i][v] = partition.Missing
				} else {
					cs[i][v] = rng.Intn(labels)
				}
			}
		}
		prob, err := NewProblem(cs, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if wide {
			prob = widened(prob)
		}
		l := problemLanes(prob)
		want := l.histogram(1, false)
		for _, workers := range []int{1, 2, 4} {
			for _, bySubset := range []bool{false, true} {
				got := l.histogram(workers, bySubset)
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d bySubset=%v (m=%d width=%d per=%d clean=%d of %d rows):\n got %v\nwant %v",
						workers, bySubset, m, prob.width, l.per, l.clean, len(l.count), got, want)
				}
			}
		}
	})
}

// TestLowerBoundPathChoice pins where the cost model sends the clean row
// pairs on the shapes the benchmarks run: the huge ladder's recipe (m = 6,
// its smallest rung) and the Census stand-in (m = 8, 16 000 rows) count;
// the 2 000-row Mushrooms shape (m = 22) sweeps.
func TestLowerBoundPathChoice(t *testing.T) {
	census, err := dataset.SyntheticCensus(1, 16000).Clusterings()
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.SyntheticMushrooms(1)
	mushrooms, err := tab.Subset(rand.New(rand.NewSource(1)).Perm(tab.N())[:2000]).Clusterings()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		p     *Problem
		count bool
	}{
		{"huge recipe n=200000", benchProblemPacked(t, 200_000, 6, 32), true},
		{"census n=16000", mustProblem(t, census), true},
		{"mushrooms n=2000", mustProblem(t, mushrooms), false},
	} {
		l := problemLanes(c.p)
		if got := l.countCheaper(); got != c.count {
			t.Errorf("%s (m=%d, %d clean of %d distinct rows): counting chosen %v, want %v",
				c.name, c.p.m, l.clean, len(l.count), got, c.count)
		}
	}
}

// mustProblem builds the problem over cs with default options.
func mustProblem(t *testing.T, cs []partition.Labels) *Problem {
	t.Helper()
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPastHistMaxM covers the other side of histMaxM: at m = 130 no
// distance table or (s, q) histogram is built, so Dist and DistRowTo
// evaluate x per pair and LowerBound sweeps every pair of distinct rows.
// At both widths, with clean rows, rows missing labels and repeated rows
// of both kinds, under both missing modes: Dist and DistRowTo match the
// reference pair loop bit for bit, LowerBound matches the reference scan
// within 1e-9 relative (the scan sums rounded distances), LowerBound does
// not depend on the worker count, and LowerBound ≤ Disagreement, bit for
// bit under the coin model.
func TestPastHistMaxM(t *testing.T) {
	const m, n, protos = 130, 60, 40
	rng := rand.New(rand.NewSource(503))
	for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
		cs := make([]partition.Labels, m)
		for i := range cs {
			cs[i] = make(partition.Labels, n)
			for v := 0; v < protos; v++ {
				if v%2 == 1 && rng.Float64() < 0.1 {
					cs[i][v] = partition.Missing
				} else {
					cs[i][v] = rng.Intn(3)
				}
			}
			for v := protos; v < n; v++ {
				cs[i][v] = cs[i][v-protos]
			}
		}
		opts := ProblemOptions{MissingMode: mode}
		prob, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prob.xs != nil {
			t.Fatalf("m = %d > histMaxM built a distance table", m)
		}
		ref := newRefDist(cs, opts)
		wantLB := float64(m) * refLowerBound(ref)
		cands := []partition.Labels{completeMissing(cs[0]), randMixedInputs(rng, n, 1, 0)[0]}
		targets := rng.Perm(n)
		for _, lk := range atEveryWidth(prob) {
			name := fmt.Sprintf("mode=%d width=%d", mode, lk.width)
			checkKernelDist(t, name, lk, ref, targets)
			lb := lk.lowerBound(1)
			if got := lk.lowerBound(3); got != lb {
				t.Fatalf("%s: LowerBound %.17g on 3 workers, %.17g on 1", name, got, lb)
			}
			if !closeRel(lb, wantLB) {
				t.Fatalf("%s: LowerBound %.17g, reference %.17g", name, lb, wantLB)
			}
			for _, cand := range cands {
				if d := lk.Disagreement(cand); lb > d && (mode == MissingCoin || !closeRel(lb, d)) {
					t.Fatalf("%s: LowerBound %.17g above Disagreement %.17g", name, lb, d)
				}
			}
		}
	}
}
