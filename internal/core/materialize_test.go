package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// genProblem builds a seeded random problem over genInputs.
func genProblem(t testing.TB, seed int64, n, m int, missFrac float64, mode MissingMode) *Problem {
	t.Helper()
	p, err := NewProblem(genInputs(seed, n, m, missFrac, mode))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// genInputs draws seeded random clusterings and their options. missFrac > 0
// injects missing labels.
func genInputs(seed int64, n, m int, missFrac float64, mode MissingMode) ([]partition.Labels, ProblemOptions) {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]partition.Labels, m)
	for i := range cs {
		k := 1 + rng.Intn(6)
		c := make(partition.Labels, n)
		for j := range c {
			if rng.Float64() < missFrac {
				c[j] = partition.Missing
			} else {
				c[j] = rng.Intn(k)
			}
		}
		cs[i] = c
	}
	return cs, ProblemOptions{MissingMode: mode}
}

// compareMatrices requires every cell of got to equal p.Dist bit for bit.
func compareMatrices(t *testing.T, name string, p *Problem, got *corrclust.Matrix) {
	t.Helper()
	n := p.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g, w := got.Dist(u, v), p.Dist(u, v); g != w {
				t.Fatalf("%s: X(%d,%d) = %v (matrix), %v (Dist): not bit-identical", name, u, v, g, w)
			}
		}
	}
}

// TestMaterializeMatchesNaive: the matrix caches the kernel's rows, so every
// cell is the naive per-pair probe Dist bit for bit under every option:
// both missing modes, with light and heavy missing labels.
func TestMaterializeMatchesNaive(t *testing.T) {
	cases := []struct {
		name     string
		missFrac float64
		mode     MissingMode
	}{
		{"complete/uniform", 0, MissingCoin},
		{"complete/average", 0, MissingAverage},
		{"missing/coin-half", 0.2, MissingCoin},
		{"missing/heavy-coin", 0.6, MissingCoin},
		{"missing/average", 0.2, MissingAverage},
		{"missing/heavy-average", 0.6, MissingAverage},
		{"missing/all-missing-row", 0.95, MissingAverage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				p := genProblem(t, 100+seed, 3+int(seed)*7, 1+int(seed%5), tc.missFrac, tc.mode)
				compareMatrices(t, tc.name, p, p.Matrix())
			}
		})
	}
}

// TestMaterializeNonDyadic: at m ∈ {3, 5, 6, 7}, where distances are not
// dyadic fractions, under both missing modes, the matrix still holds Dist
// bit for bit.
func TestMaterializeNonDyadic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
			m := []int{3, 5, 6, 7}[seed%4]
			p := genProblem(t, 200+seed, 40, m, 0.2, mode)
			compareMatrices(t, "non-dyadic", p, p.Matrix())
		}
	}
}

// TestMaterializeLabelPermutationInvariance: the matrix depends only on the
// partitions, not on how their clusters happen to be numbered.
func TestMaterializeLabelPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cs, opts := genInputs(7, 50, 4, 0.15, MissingCoin)
	p, err := NewProblem(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Matrix()

	perm := make([]partition.Labels, len(cs))
	for i, c := range cs {
		k := 0
		for _, l := range c {
			if l >= k {
				k = l + 1
			}
		}
		mapping := rng.Perm(k)
		pc := make(partition.Labels, len(c))
		for j, l := range c {
			if l == partition.Missing {
				pc[j] = partition.Missing
			} else {
				pc[j] = mapping[l]
			}
		}
		perm[i] = pc
	}
	pp, err := NewProblem(perm, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := pp.Matrix()
	for u := 0; u < p.N(); u++ {
		for v := u + 1; v < p.N(); v++ {
			if got.Dist(u, v) != base.Dist(u, v) {
				t.Fatalf("X(%d,%d) changed under cluster relabeling: %v vs %v", u, v, got.Dist(u, v), base.Dist(u, v))
			}
		}
	}
}

// TestMaterializeWorkersBitIdentical: every worker count yields the same
// bits, because each row's updates run in a fixed order regardless of which
// stripe owns it. n is above materializeMinParallel so the goroutine path
// actually engages.
func TestMaterializeWorkersBitIdentical(t *testing.T) {
	for _, mode := range []MissingMode{MissingCoin, MissingAverage} {
		p := genProblem(t, 3, 300, 5, 0.2, mode)
		seq := p.MatrixWorkers(1)
		for _, workers := range []int{2, 3, 8} {
			par := p.MatrixWorkers(workers)
			for u := 0; u < p.N(); u++ {
				for v := u + 1; v < p.N(); v++ {
					if seq.Dist(u, v) != par.Dist(u, v) {
						t.Fatalf("mode %v workers=%d: X(%d,%d) = %v, sequential %v", mode, workers, u, v, par.Dist(u, v), seq.Dist(u, v))
					}
				}
			}
		}
	}
}

// FuzzMaterialize drives the matrix against Dist on fuzzer-chosen shapes
// (m up to 12, or 13 to 24 with wideM) and missing modes: bit-identical
// everywhere.
func FuzzMaterialize(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(0), false, false)
	f.Add(int64(2), uint8(30), uint8(5), uint8(60), false, true)
	f.Add(int64(3), uint8(17), uint8(1), uint8(255), true, false)
	f.Add(int64(4), uint8(40), uint8(12), uint8(50), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, missRaw uint8, wideM, avg bool) {
		n := 2 + int(nRaw)%60
		m := 1 + int(mRaw)%12
		if wideM {
			m += 12
		}
		missFrac := float64(missRaw) / 255
		mode := MissingCoin
		if avg {
			mode = MissingAverage
		}
		p := genProblem(t, seed, n, m, missFrac, mode)
		compareMatrices(t, "fuzz", p, p.Matrix())
	})
}

// TestBestOfParallelMatchesSequential: racing the methods concurrently must
// return exactly the sequential outcome — same winner, same labels — for
// every worker count, including with the randomized extension methods in
// the field.
func TestBestOfParallelMatchesSequential(t *testing.T) {
	p := recorderProblem(t, 90, 5, 17)
	methods := append(Methods(), ExtensionMethods()...)
	run := func(workers int) (partition.Labels, Method) {
		t.Helper()
		labels, winner, err := p.BestOf(methods, AggregateOptions{
			Materialize: true,
			Workers:     workers,
			Rand:        rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return labels, winner
	}
	seqLabels, seqWinner := run(1)
	for _, workers := range []int{0, 2, 4, 16} {
		labels, winner := run(workers)
		if winner != seqWinner {
			t.Fatalf("workers=%d: winner %v, sequential %v", workers, winner, seqWinner)
		}
		sameLabels(t, "bestof-parallel", seqLabels, labels)
	}
}

// TestBestOfRacersRunSequential: a race on two or more goroutines runs
// each racer with Workers 1, so FURTHEST resolves one worker; a race of one
// method keeps the caller's Workers, and FURTHEST resolves two.
func TestBestOfRacersRunSequential(t *testing.T) {
	p := recorderProblem(t, 300, 4, 29)
	furthestWorkers := func(methods []Method) int64 {
		t.Helper()
		rec := obs.New()
		if _, _, err := p.BestOf(methods, AggregateOptions{Workers: 2, Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Counters()["furthest.workers"]
	}
	if got := furthestWorkers([]Method{MethodFurthest, MethodLocalSearch}); got != 1 {
		t.Errorf("racing two methods: FURTHEST ran on %d workers, want 1", got)
	}
	if got := furthestWorkers([]Method{MethodFurthest}); got != 2 {
		t.Errorf("racing FURTHEST alone at Workers 2: %d workers, want 2", got)
	}
}

// TestSampleParallelMatchesSequential: the striped assignment pass must
// reproduce the sequential labeling exactly. n clears the parallel gate so
// the goroutine path actually runs.
func TestSampleParallelMatchesSequential(t *testing.T) {
	p := recorderProblem(t, 400, 4, 23)
	run := func(workers int) partition.Labels {
		t.Helper()
		labels, err := p.Sample(MethodAgglomerative,
			AggregateOptions{Workers: workers},
			SamplingOptions{SampleSize: 60, Rand: rand.New(rand.NewSource(2))})
		if err != nil {
			t.Fatal(err)
		}
		return labels
	}
	seq := run(1)
	for _, workers := range []int{0, 3, 8} {
		sameLabels(t, "sample-parallel", seq, run(workers))
	}
}

// TestAggregateMaterializeEquivalence: SAMPLING aggregates its sample and
// its singleton recluster on the gathered sub-problem's label kernel, not
// on a materialized matrix. The matrix caches the kernel's rows, so it
// holds the kernel's distances bit for bit under every option, and every
// method must return the same labels either way. Every other case adds the
// Refine pass.
func TestAggregateMaterializeEquivalence(t *testing.T) {
	methods := append(Methods(), ExtensionMethods()...)
	cases := []struct {
		name     string
		missFrac float64
		mode     MissingMode
	}{
		{"complete/uniform", 0, MissingCoin},
		{"complete/average", 0, MissingAverage},
		{"missing/coin-half", 0.2, MissingCoin},
		{"missing/coin-m4", 0.2, MissingCoin},
		{"missing/average", 0.2, MissingAverage},
		{"missing/coin-m6", 0.2, MissingCoin},
		{"missing/heavy-coin", 0.6, MissingCoin},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(ci)))
		p := genProblem(t, 300+int64(ci), 240, 1+ci%6, tc.missFrac, tc.mode)
		gathered := permPrefix(rng, p.N(), 70)
		sort.Ints(gathered)
		sub := p.subProblem(gathered)
		for _, method := range methods {
			refine := ci%2 == 1
			run := func(materialize bool) partition.Labels {
				labels, err := sub.Aggregate(method, AggregateOptions{
					Materialize: materialize, Refine: refine, Rand: rand.New(rand.NewSource(5)),
				})
				if err != nil {
					t.Fatal(err)
				}
				return labels
			}
			name := fmt.Sprintf("%s %v refine=%v", tc.name, method, refine)
			sameLabels(t, name, run(true), run(false))
		}
	}
}
