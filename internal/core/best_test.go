package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

// scanBest is BESTCLUSTERING by the O(m·n²) pair scan: every completed
// input scored by corrclust.Cost on the Problem itself, ties to the lower
// index.
func scanBest(p *Problem) (partition.Labels, int, float64) {
	bestIdx, bestD := -1, 0.0
	var best partition.Labels
	for i, c := range p.Clusterings() {
		cand := completeMissing(c)
		d := float64(p.M()) * corrclust.Cost(p, cand)
		if bestIdx == -1 || d < bestD {
			bestIdx, bestD, best = i, d, cand
		}
	}
	return best, bestIdx, bestD
}

// closeRel reports whether a and b agree within 1e-9 relative.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestBestClusteringFastMatchesSlow: BESTCLUSTERING's (labels, index,
// disagreement) through the contingency-table objective equals the argmin
// by the O(m·n²) pair scan, with and without missing values, under both
// missing modes, at m from 2 to 7 and on problems from NewProblem and from
// either builder mode. The
// index may differ only between candidates the scan scores equal within
// float tolerance.
func TestBestClusteringFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(25)
		m := 2 + rng.Intn(6)
		missing := []float64{0, 0.15, 0.4}[trial%3]
		var opts ProblemOptions
		if trial%5 == 4 {
			opts.MissingMode = MissingAverage
		}
		p := randMixedProblem(t, rng, n, m, missing, opts)
		for _, prob := range []*Problem{p, packedTwin(t, p, trial%4 < 2)} {
			gotL, gotI, gotD := prob.BestClustering()
			wantL, wantI, wantD := scanBest(prob)
			if !closeRel(gotD, wantD) {
				t.Fatalf("trial %d: disagreement %v, scan %v", trial, gotD, wantD)
			}
			if gotD != prob.Disagreement(gotL) {
				t.Fatalf("trial %d: returned %v but Disagreement of the labels is %v", trial, gotD, prob.Disagreement(gotL))
			}
			if gotI != wantI {
				scanGot := float64(prob.M()) * corrclust.Cost(prob, completeMissing(prob.Clusterings()[gotI]))
				if !closeRel(scanGot, wantD) {
					t.Fatalf("trial %d: picked %d (scan %v), scan argmin %d (%v)", trial, gotI, scanGot, wantI, wantD)
				}
				continue
			}
			if !slices.Equal(gotL, wantL) {
				t.Fatalf("trial %d: labels %v, scan %v", trial, gotL, wantL)
			}
			for _, l := range gotL {
				if l == partition.Missing {
					t.Fatalf("trial %d: missing label leaked into result", trial)
				}
			}
		}
	}
}

// TestBestClusteringMissingUsesSlowPath: on an input with a missing label
// the completed winner carries no partition.Missing and is the scan argmin.
func TestBestClusteringMissingUsesSlowPath(t *testing.T) {
	p, err := NewProblem([]partition.Labels{
		{0, 0, partition.Missing},
		{0, 1, 1},
	}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labels, idx, d := p.BestClustering()
	for _, l := range labels {
		if l == partition.Missing {
			t.Fatal("missing label leaked into result")
		}
	}
	wantL, wantI, wantD := scanBest(p)
	if idx != wantI || !closeRel(d, wantD) || !slices.Equal(labels, wantL) {
		t.Fatalf("BestClustering picked (%d, %v, %v), scan (%d, %v, %v)", idx, d, labels, wantI, wantD, wantL)
	}
}

func BenchmarkBestClustering(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, m := 2000, 12
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := make(partition.Labels, n)
		for j := range c {
			c[j] = rng.Intn(6)
		}
		cs[i] = c
	}
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BestClustering()
	}
}

// TestBestClusteringWorkersIdentical: Aggregate(MethodBest) returns the
// scan-based argmin's labels at every Workers count, with and without
// missing values, at m from 8 to 15.
func TestBestClusteringWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 8; trial++ {
		n := 50 + rng.Intn(100)
		m := 8 + rng.Intn(8)
		p := randMixedProblem(t, rng, n, m, []float64{0, 0.2}[trial/2%2], ProblemOptions{})
		wantL, wantI, wantD := scanBest(p)
		gotL, gotI, gotD := p.BestClustering()
		if gotI != wantI || !closeRel(gotD, wantD) || !slices.Equal(gotL, wantL) {
			t.Fatalf("trial %d: BestClustering picked (%d, %v), scan (%d, %v)", trial, gotI, gotD, wantI, wantD)
		}
		for _, workers := range []int{0, 1, 2, 3, 8} {
			agg, err := p.Aggregate(MethodBest, AggregateOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(agg, wantL) {
				t.Fatalf("trial %d: Aggregate(MethodBest) with Workers=%d diverges from the scan argmin", trial, workers)
			}
		}
	}
}
