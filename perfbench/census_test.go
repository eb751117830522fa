package main

import (
	"bytes"
	"slices"
	"testing"

	"clusteragg"
	"clusteragg/internal/core"
)

// TestCensusJobMatchesAggregateCSV keeps the census-csv workload tied to
// the facade: its call sequence, on the same bytes, must return what
// clusteragg.AggregateCSV (and so the CLI) returns.
func TestCensusJobMatchesAggregateCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two O(n²) objective evaluations at n=16000")
	}
	w := lookupWorkload("census-csv")
	in, err := w.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := w.run(in, core.AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clusteragg.AggregateCSV(bytes.NewReader(in.csv), clusteragg.CSVOptions{
		HasHeader:   true,
		ClassColumn: "class",
		Method:      clusteragg.MethodFurthest,
		SampleSize:  censusSampleSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(j.labels, want.Labels) {
		t.Errorf("labels differ from AggregateCSV's")
	}
	if j.d != want.Disagreement || j.lb != want.LowerBound {
		t.Errorf("Disagreement, LowerBound = %v, %v; AggregateCSV gives %v, %v",
			j.d, j.lb, want.Disagreement, want.LowerBound)
	}
}
