package core

import (
	"math"
	"reflect"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

func equalLabels(a, b partition.Labels) bool { return reflect.DeepEqual(a, b) }

// TestLocalSearchIncrementalEquivalence drives the incremental LOCALSEARCH
// kernel against the reference sweep on full Problems — non-uniform weights
// and both missing-label modes — across worker counts. With dyadic weights
// summing to a power of two every distance is an exact float, so the labels
// must match bit-for-bit; the arbitrary-weight and average-mode cases use
// fixed seeds (deterministic, no engineered ties) and check cost agreement
// to 1e-9 as well.
func TestLocalSearchIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"uniform-coin", genProblem(t, 11, 80, 6, 0, 0, MissingCoin, 0)},
		{"uniform-missing-coin", genProblem(t, 12, 80, 6, 0.2, 0, MissingCoin, 0)},
		{"uniform-missing-average", genProblem(t, 13, 80, 6, 0.2, 0, MissingAverage, 0)},
		{"dyadic-weights-coin", genProblem(t, 14, 70, 5, 0.1, 1, MissingCoin, 0)},
		{"arbitrary-weights-average", genProblem(t, 15, 70, 5, 0.1, 2, MissingAverage, 0)},
	}
	// Hand-built case with dyadic weights summing to a power of two
	// (0.5+1+0.5+2 = 4): distances are exact quarters, so incremental and
	// reference arithmetic is identical, not merely close.
	{
		cs := make([]partition.Labels, 4)
		for i, seed := range []int64{21, 22, 23, 24} {
			gs, _ := genInputs(seed, 60, 1, 0, 0, MissingCoin, 0)
			cs[i] = gs[0]
		}
		p, err := NewProblem(cs, ProblemOptions{Weights: []float64{0.5, 1, 0.5, 2}})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			p    *Problem
		}{"dyadic-weights-pow2-sum", p})
	}

	for _, tc := range cases {
		var inst corrclust.Instance = tc.p
		want := corrclust.LocalSearchReference(inst, corrclust.LocalSearchOptions{})
		for _, workers := range []int{1, 2, 0} {
			got := corrclust.LocalSearch(inst, corrclust.LocalSearchOptions{Workers: workers})
			if !equalLabels(got, want) {
				t.Errorf("%s workers=%d: incremental %v != reference %v", tc.name, workers, got, want)
				continue
			}
			gc, wc := corrclust.Cost(inst, got), corrclust.Cost(inst, want)
			if math.Abs(gc-wc) > 1e-9 {
				t.Errorf("%s workers=%d: cost %v vs reference %v", tc.name, workers, gc, wc)
			}
		}
	}
}

// TestAggregateLocalSearchWorkersIdentical checks the public contract at the
// Aggregate level: MethodLocalSearch (and Refine, which reuses the kernel)
// returns identical labels for every AggregateOptions.Workers value.
func TestAggregateLocalSearchWorkersIdentical(t *testing.T) {
	p := genProblem(t, 31, 90, 5, 0.15, 1, MissingAverage, 0)
	want, err := p.Aggregate(MethodLocalSearch, AggregateOptions{Workers: 1, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 0} {
		got, err := p.Aggregate(MethodLocalSearch, AggregateOptions{Workers: workers, Materialize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !equalLabels(got, want) {
			t.Errorf("workers=%d: %v != sequential %v", workers, got, want)
		}
	}
	wantR, err := p.Aggregate(MethodBalls, AggregateOptions{Workers: 1, Refine: true, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := p.Aggregate(MethodBalls, AggregateOptions{Workers: 4, Refine: true, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !equalLabels(gotR, wantR) {
		t.Errorf("refine pass: workers=4 %v != workers=1 %v", gotR, wantR)
	}
}
