package core

import (
	"fmt"
	"math/rand"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

// benchProblem builds the kernel-benchmark workload: m noisy clusterings of
// n objects over ~k planted groups.
func benchProblem(b *testing.B, n, m, k int) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	inputs := make([]partition.Labels, m)
	for ci := range inputs {
		c := make(partition.Labels, n)
		for i := range c {
			if rng.Float64() < 0.1 {
				c[i] = rng.Intn(k + 2)
			} else {
				c[i] = i % k
			}
		}
		inputs[ci] = c
	}
	p, err := NewProblem(inputs, ProblemOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchProblemPacked is benchProblem through the width-packed ingest path:
// identical labels (the rng draw order per clustering per object is the
// same), but streamed column-by-column into a PackedClusterings block so
// the []int inputs never persist. At n=10M, m=6 that is the difference
// between ~480 MB of resident label slices and a 60 MB uint8 arena.
func benchProblemPacked(tb testing.TB, n, m, k int) *Problem {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	pb := NewPackedColumns(n, m)
	col := make([]int, n)
	for ci := 0; ci < m; ci++ {
		for i := range col {
			if rng.Float64() < 0.1 {
				col[i] = rng.Intn(k + 2)
			} else {
				col[i] = i % k
			}
		}
		if err := pb.AppendColumn(col); err != nil {
			tb.Fatal(err)
		}
	}
	pc, err := pb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewProblemPacked(pc, ProblemOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkMaterialize measures the matrix build from the kernel's lane
// rows against the naive build, one Dist probe per pair.
func BenchmarkMaterialize(b *testing.B) {
	p := benchProblem(b, 2000, 12, 7)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("rows/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.MatrixWorkers(workers)
			}
		})
	}
	b.Run("naive/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corrclust.MatrixFromInstance(p)
		}
	})
}

// BenchmarkLocalSearchMatrix measures LOCALSEARCH over a materialized
// matrix: the contiguous-row fast path against the same distances behind a
// generic Instance.
func BenchmarkLocalSearchMatrix(b *testing.B) {
	p := benchProblem(b, 800, 8, 6)
	mx := p.Matrix()
	b.Run("fastpath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corrclust.LocalSearch(mx, corrclust.LocalSearchOptions{})
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corrclust.LocalSearch(hideMatrix{mx}, corrclust.LocalSearchOptions{})
		}
	})
}

// BenchmarkLocalSearchIncremental runs the delta-maintained incremental
// LOCALSEARCH kernel on a materialized n=2000, m=16 problem.
// corrclust's BenchmarkLocalSearch times it against the O(n²)-per-sweep
// reference sweep it replaced.
func BenchmarkLocalSearchIncremental(b *testing.B) {
	p := benchProblem(b, 2000, 16, 8)
	mx := p.Matrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corrclust.LocalSearch(mx, corrclust.LocalSearchOptions{})
	}
}

// hideMatrix forces the generic interface-call paths in benchmarks.
type hideMatrix struct{ m *corrclust.Matrix }

func (h hideMatrix) N() int                { return h.m.N() }
func (h hideMatrix) Dist(u, v int) float64 { return h.m.Dist(u, v) }

// BenchmarkBestOf races the five paper methods on the shape of the
// exact-mushrooms workload: a 2,000-row subsample of the Mushrooms stand-in
// (m = 22, with missing labels). The oracle dimension races them over the
// label kernel (the Problem itself) or over one materialized matrix, on one
// worker and on GOMAXPROCS.
func BenchmarkBestOf(b *testing.B) {
	t := dataset.SyntheticMushrooms(1)
	idx := rand.New(rand.NewSource(1)).Perm(t.N())[:2000]
	cols, err := t.Subset(idx).Clusterings()
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblem(cols, ProblemOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, oracle := range []string{"kernel", "matrix"} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("oracle=%s/workers=%d", oracle, workers), func(b *testing.B) {
				opts := AggregateOptions{Materialize: oracle == "matrix", Workers: workers}
				for i := 0; i < b.N; i++ {
					if _, _, err := p.BestOf(nil, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSampleAssign isolates the assignment phase: the histogram
// kernel computes all k affinities in O(m·k) per object, versus O(m·s)
// Dist probes per object on the reference path. The top-level pair runs
// at n=20_000, m=16; the planted runs use the huge-ladder recipe (m=6
// noisy copies of 32 groups) at n=50_000, where most label rows repeat and
// the twin memo decides each distinct row once per stripe. The planted
// kernel runs on one stripe (workers=1) and on GOMAXPROCS stripes
// (workers=0), a pair that shows how the pass scales across stripes. All
// sub-benchmarks disable the singleton recluster so only assignment is
// timed beyond the (identical) sample aggregation, and each instance pins
// the kernel's labels once outside the timed loops.
func BenchmarkSampleAssign(b *testing.B) {
	bench := func(b *testing.B, p *Problem, ref bool, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Sample(MethodBalls, AggregateOptions{Workers: workers}, SamplingOptions{
				Rand: rand.New(rand.NewSource(7)), noSingletonRecluster: true, assign: assignWith(ref),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	labels := func(b *testing.B, p *Problem, assign assignFunc) partition.Labels {
		got, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
			Rand: rand.New(rand.NewSource(7)), noSingletonRecluster: true, assign: assign,
		})
		if err != nil {
			b.Fatal(err)
		}
		return got
	}
	same := func(b *testing.B, got, want partition.Labels) {
		for i := range got {
			if got[i] != want[i] {
				b.Fatalf("kernel assignment diverges at object %d", i)
			}
		}
	}

	// m=16 with uniform weights is dyadic, so the kernel must agree with
	// the probing reference bit for bit.
	p := benchProblem(b, 20_000, 16, 7)
	b.Run("kernel", func(b *testing.B) { bench(b, p, false, 0) })
	b.Run("reference", func(b *testing.B) { bench(b, p, true, 0) })
	same(b, labels(b, p, nil), labels(b, p, assignReference))

	// m=6 is not dyadic: the histogram's integer sums and the reference's
	// per-member float sums round apart and can break a tie differently
	// (TestSampleKernelCloseContinuous bounds that gap). So the planted
	// labels are pinned against the kernel with its twin memo shut off —
	// a one-slot table never inserts, so every row is evaluated.
	planted := benchProblemPacked(b, 50_000, 6, 32)
	b.Run("planted/workers=1", func(b *testing.B) { bench(b, planted, false, 1) })
	b.Run("planted/workers=0", func(b *testing.B) { bench(b, planted, false, 0) })
	b.Run("planted/reference", func(b *testing.B) { bench(b, planted, true, 0) })
	got := labels(b, planted, nil)
	defer func(c int) { assignMemoCap = c }(assignMemoCap)
	assignMemoCap = 1
	same(b, got, labels(b, planted, nil))
}

// BenchmarkSampleLarge runs the full sampling pipeline at n=100_000, m=8 —
// the matrix-free regime: peak allocation is the O(n·m) label block plus
// O(m·L·k) histograms, never an O(n²) matrix.
func BenchmarkSampleLarge(b *testing.B) {
	p := benchProblem(b, 100_000, 8, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
			Rand: rand.New(rand.NewSource(7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleHuge is the opt-in n=10M run behind `make bench-huge`:
// single-level SAMPLING over uint8-packed labels, ingested through the
// packed column builder so the only label storage alive during the run is
// the 60 MB uint8 arena — []int inputs never materialize. It is
// deliberately excluded from the bench/bench-short regexes — one iteration
// runs for seconds and allocates most of a gigabyte — and exists so the top
// of the scaling ladder has a `go test -bench`-shaped entry point next to
// the experiments "huge" artifact. The workers sweep pins that the striped
// assignment neither changes labels nor multiplies allocations (each
// stripe allocates its scratch once).
func BenchmarkSampleHuge(b *testing.B) {
	p := benchProblemPacked(b, 10_000_000, 6, 32)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Sample(MethodFurthest, AggregateOptions{Workers: workers}, SamplingOptions{
					Rand: rand.New(rand.NewSource(7)),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObjective evaluates Disagreement and LowerBound on the Census
// stand-in at 16,000 rows — the objective calls AggregateCSV and the CLI
// make after solving; the candidate is the first input completed — and
// LowerBound on the huge ladder's recipe at 200,000 rows (m = 6). Both
// count their clean row pairs by input subset; the Census rows sit closer
// to the cost model's edge (6,713 distinct rows against 6·2^8 = 1,536,
// where the planted recipe has 27,631 against 384).
func BenchmarkObjective(b *testing.B) {
	cols, err := dataset.SyntheticCensus(1, 16000).Clusterings()
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblem(cols, ProblemOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cand := completeMissing(cols[0])
	b.Run("census/disagreement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Disagreement(cand)
		}
	})
	b.Run("census/lowerbound", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.LowerBound()
		}
	})
	planted := benchProblemPacked(b, 200_000, 6, 32)
	b.Run("planted/lowerbound", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planted.LowerBound()
		}
	})
}
