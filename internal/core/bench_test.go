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
// n objects over ~k planted groups, the regime where the block kernel's
// O(n² + m·Σ|c|²) beats the naive O(m·n²) by roughly the cluster count.
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
func benchProblemPacked(b *testing.B, n, m, k int) *Problem {
	b.Helper()
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
			b.Fatal(err)
		}
	}
	pc, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblemPacked(pc, ProblemOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkMaterialize measures the cluster-block kernel; the Naive variant
// is the old build (one Dist probe per pair), kept as the baseline the
// ISSUE's ≥3× criterion is judged against.
func BenchmarkMaterialize(b *testing.B) {
	p := benchProblem(b, 2000, 12, 7)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("block/workers=%d", workers), func(b *testing.B) {
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
	b.Run("naive/parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corrclust.MatrixFromInstanceParallel(p, 0)
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

// BenchmarkLocalSearchIncremental is the ISSUE's acceptance workload
// (n=2000, m=16 clusterings — dyadic distances, so every variant must land
// on identical labels): the delta-maintained incremental kernel, sequential
// and parallel, against the O(n²)-per-sweep reference it replaced. The ≥3×
// criterion compares reference vs incremental/sequential.
func BenchmarkLocalSearchIncremental(b *testing.B) {
	p := benchProblem(b, 2000, 16, 8)
	mx := p.Matrix()
	want := corrclust.LocalSearch(mx, corrclust.LocalSearchOptions{Workers: 1})
	b.Run("incremental/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			corrclust.LocalSearch(mx, corrclust.LocalSearchOptions{Workers: 1})
		}
	})
	b.Run("incremental/parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got := corrclust.LocalSearch(mx, corrclust.LocalSearchOptions{})
			if !equalLabels(got, want) {
				b.Fatal("parallel labels diverge from sequential")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got := corrclust.LocalSearchReference(mx, corrclust.LocalSearchOptions{})
			if !equalLabels(got, want) {
				b.Fatal("incremental labels diverge from reference")
			}
		}
	})
}

// hideMatrix forces the generic interface-call paths in benchmarks.
type hideMatrix struct{ m *corrclust.Matrix }

func (h hideMatrix) N() int                { return h.m.N() }
func (h hideMatrix) Dist(u, v int) float64 { return h.m.Dist(u, v) }

// BenchmarkBestOf races the five paper methods over a shared materialized
// matrix, sequentially and with all CPUs.
func BenchmarkBestOf(b *testing.B) {
	p := benchProblem(b, 500, 8, 5)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.BestOf(nil, AggregateOptions{Materialize: true, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleAssign isolates the assignment phase at n=20_000, m=16:
// the histogram kernel computes all k affinities in O(m·k) per object,
// versus O(m·s) Dist probes per object on the reference path. The ≥3×
// criterion from the ISSUE is judged kernel vs reference here. Both
// sub-benchmarks disable the singleton recluster so only assignment is
// timed beyond the (identical) sample aggregation.
func BenchmarkSampleAssign(b *testing.B) {
	p := benchProblem(b, 20_000, 16, 7)
	run := func(ref bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
					Rand: rand.New(rand.NewSource(7)), NoSingletonRecluster: true, ReferenceAssign: ref,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("kernel", run(false))
	b.Run("reference", run(true))

	// m=16 with uniform weights is dyadic, so the two paths must agree
	// bit for bit; pin that once outside the timed loops.
	want, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
		Rand: rand.New(rand.NewSource(7)), NoSingletonRecluster: true, ReferenceAssign: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	got, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
		Rand: rand.New(rand.NewSource(7)), NoSingletonRecluster: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			b.Fatalf("kernel and reference assignments diverge at object %d", i)
		}
	}
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
// assignment neither changes labels nor multiplies allocations (scratch
// comes from the shared pool).
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
// make after solving. The candidate is the first input completed.
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
	b.Run("disagreement", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Disagreement(cand)
		}
	})
	b.Run("lowerbound", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.LowerBound()
		}
	})
}
