package core

import (
	"reflect"
	"testing"

	"clusteragg/internal/partition"
)

func equalLabels(a, b partition.Labels) bool { return reflect.DeepEqual(a, b) }

// TestAggregateLocalSearchWorkersIdentical checks the public contract at the
// Aggregate level: MethodLocalSearch (and Refine, which reuses the kernel)
// returns identical labels for every AggregateOptions.Workers value.
func TestAggregateLocalSearchWorkersIdentical(t *testing.T) {
	p := genProblem(t, 31, 90, 5, 0.15, MissingAverage)
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
