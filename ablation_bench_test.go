// Ablation benchmarks for the design choices called out in DESIGN.md:
// the BALLS α parameter (Theorem 1's 1/4 vs the practical 2/5), LOCALSEARCH
// as a post-processing refinement, lazy vs materialized distance oracles,
// the two missing-value models, and the PIVOT extension against the paper's
// five.
package clusteragg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"clusteragg/internal/core"
	"clusteragg/internal/corrclust"
	"clusteragg/internal/dataset"
	"clusteragg/internal/eval"
	"clusteragg/internal/partition"
)

// votesProblem builds the Votes stand-in aggregation problem once per
// benchmark.
func votesProblem(b *testing.B, mode core.MissingMode) (*core.Problem, *dataset.Table) {
	b.Helper()
	t := dataset.SyntheticVotes(1)
	cs, err := t.Clusterings()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(cs, core.ProblemOptions{MissingMode: mode})
	if err != nil {
		b.Fatal(err)
	}
	return p, t
}

// BenchmarkAblationBallsAlpha compares BALLS at α = 1/4 (the value of
// Theorem 1's 3-approximation proof) against α = 2/5 (the paper's practical
// recommendation). Metrics: clusters and E_D at each α — 1/4 splinters the
// data into many singletons, exactly the behaviour Section 4 reports.
func BenchmarkAblationBallsAlpha(b *testing.B) {
	for _, alpha := range []float64{corrclust.DefaultBallsAlpha, corrclust.RecommendedBallsAlpha} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			p, tab := votesProblem(b, core.MissingCoin)
			m := p.Matrix()
			for i := 0; i < b.N; i++ {
				labels, err := corrclust.Balls(m, alpha)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					ec, _ := eval.ClassificationError(labels, tab.Class)
					b.ReportMetric(float64(labels.K()), "clusters")
					b.ReportMetric(p.Disagreement(labels), "E_D")
					b.ReportMetric(100*ec, "err-%")
				}
			}
		})
	}
}

// BenchmarkAblationBallsOrdering ablates the BALLS visiting order: the
// paper's weight-sorted heuristic vs natural index order. Metric: E_D under
// each ordering.
func BenchmarkAblationBallsOrdering(b *testing.B) {
	for _, tc := range []struct {
		name   string
		sorted bool
	}{{"weight-sorted", true}, {"index-order", false}} {
		b.Run(tc.name, func(b *testing.B) {
			p, _ := votesProblem(b, core.MissingCoin)
			m := p.Matrix()
			n := m.N()
			for i := 0; i < b.N; i++ {
				var labels partition.Labels
				var err error
				if tc.sorted {
					labels, err = corrclust.Balls(m, 0.4)
				} else {
					order := make([]int, n)
					for j := range order {
						order[j] = j
					}
					labels, err = corrclust.BallsWithOptions(m, corrclust.BallsOptions{Alpha: 0.4, Order: order})
				}
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(p.Disagreement(labels), "E_D")
					b.ReportMetric(float64(labels.K()), "clusters")
				}
			}
		})
	}
}

// BenchmarkAblationRefine measures what the LOCALSEARCH post-processing
// pass buys each algorithm (Section 4 suggests it as a refinement step).
// Metric: E_D before and after refinement.
func BenchmarkAblationRefine(b *testing.B) {
	for _, method := range []core.Method{core.MethodBalls, core.MethodAgglomerative, core.MethodFurthest} {
		b.Run(method.String(), func(b *testing.B) {
			p, _ := votesProblem(b, core.MissingCoin)
			for i := 0; i < b.N; i++ {
				plain, err := p.Aggregate(method, core.AggregateOptions{
					BallsAlpha: core.Alpha(0.4), Materialize: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				refined, err := p.Aggregate(method, core.AggregateOptions{
					BallsAlpha: core.Alpha(0.4), Materialize: true, Refine: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(p.Disagreement(plain), "E_D-plain")
					b.ReportMetric(p.Disagreement(refined), "E_D-refined")
				}
			}
		})
	}
}

// BenchmarkAblationMaterialize times LOCALSEARCH against the lazy O(m)
// distance oracle vs the materialized matrix — the Materialize option's
// time/space trade-off.
func BenchmarkAblationMaterialize(b *testing.B) {
	for _, materialize := range []bool{false, true} {
		name := "lazy"
		if materialize {
			name = "matrix"
		}
		b.Run(name, func(b *testing.B) {
			p, _ := votesProblem(b, core.MissingCoin)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Aggregate(core.MethodLocalSearch, core.AggregateOptions{
					Materialize: materialize,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMissingMode compares the paper's adopted coin model
// against the "let the remaining attributes decide" averaging model on the
// Votes stand-in (288 missing values). Metrics: E_C and clusters per mode.
func BenchmarkAblationMissingMode(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode core.MissingMode
	}{{"coin", core.MissingCoin}, {"average", core.MissingAverage}} {
		b.Run(tc.name, func(b *testing.B) {
			p, tab := votesProblem(b, tc.mode)
			for i := 0; i < b.N; i++ {
				labels, err := p.Aggregate(core.MethodAgglomerative, core.AggregateOptions{Materialize: true})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					ec, _ := eval.ClassificationError(labels, tab.Class)
					b.ReportMetric(100*ec, "err-%")
					b.ReportMetric(float64(labels.K()), "clusters")
				}
			}
		})
	}
}

// BenchmarkAblationExtensions runs the extension algorithm (PIVOT with 10
// rounds) against the paper's LOCALSEARCH on the Votes stand-in. Metric:
// E_D — PIVOT should land in the same band at a fraction of the cost.
func BenchmarkAblationExtensions(b *testing.B) {
	methods := append([]core.Method{core.MethodLocalSearch}, core.ExtensionMethods()...)
	for _, method := range methods {
		b.Run(method.String(), func(b *testing.B) {
			p, _ := votesProblem(b, core.MissingCoin)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				labels, err := p.Aggregate(method, core.AggregateOptions{
					Materialize: true,
					Rand:        rand.New(rand.NewSource(int64(i + 1))),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(p.Disagreement(labels), "E_D")
					b.ReportMetric(float64(labels.K()), "clusters")
				}
			}
		})
	}
}

// BenchmarkAlgorithmsScaling times each correlation-clustering algorithm on
// materialized random aggregation instances of growing size, exposing the
// asymptotic differences Section 4 states (Balls/Agglomerative O(n²) vs
// Furthest O(k²n) vs LocalSearch O(I·n²)).
func BenchmarkAlgorithmsScaling(b *testing.B) {
	for _, n := range []int{100, 300, 600} {
		inst := randomInstance(b, n)
		b.Run(fmt.Sprintf("balls/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := corrclust.Balls(inst, 0.4); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("agglomerative/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				corrclust.Agglomerative(inst)
			}
		})
		b.Run(fmt.Sprintf("furthest/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				corrclust.Furthest(inst)
			}
		})
		b.Run(fmt.Sprintf("localsearch/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				corrclust.LocalSearch(inst, corrclust.LocalSearchOptions{})
			}
		})
		b.Run(fmt.Sprintf("pivot/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				corrclust.Pivot(inst, rand.New(rand.NewSource(int64(i))))
			}
		})
	}
}

// randomInstance builds a materialized aggregation-induced instance with a
// planted 4-cluster structure plus noise.
func randomInstance(b *testing.B, n int) *corrclust.Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	m := 8
	clusterings := make([][]int, m)
	for i := range clusterings {
		c := make([]int, n)
		for j := range c {
			c[j] = j % 4
			if rng.Float64() < 0.15 {
				c[j] = rng.Intn(4)
			}
		}
		clusterings[i] = c
	}
	mat := corrclust.NewMatrix(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			sep := 0
			for _, c := range clusterings {
				if c[u] != c[v] {
					sep++
				}
			}
			if err := mat.Set(u, v, float64(sep)/float64(m)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return mat
}
