package corrclust_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clusteragg/internal/core"
	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

// genInputs draws seeded random clusterings and their options. missFrac > 0
// injects missing labels.
func genInputs(seed int64, n, m int, missFrac float64, mode core.MissingMode) ([]partition.Labels, core.ProblemOptions) {
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
	return cs, core.ProblemOptions{MissingMode: mode}
}

func genProblem(t *testing.T, seed int64, n, m int, missFrac float64, mode core.MissingMode) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(genInputs(seed, n, m, missFrac, mode))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLocalSearchIncrementalEquivalence drives the incremental LOCALSEARCH
// kernel against the reference sweep on full Problems — both missing-label
// modes, m ∈ {3, 5, 6, 7}. No m is a power of two, so the
// distances are not dyadic and the incremental kernel's delta-maintained
// sums may differ from the reference's by ulps, which its epsilon guard
// absorbs. The cases use fixed seeds (deterministic, no engineered ties)
// and check cost agreement to 1e-9 as well.
func TestLocalSearchIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		name string
		p    *core.Problem
	}{
		{"uniform-coin", genProblem(t, 11, 80, 6, 0, core.MissingCoin)},
		{"uniform-missing-coin", genProblem(t, 12, 80, 6, 0.2, core.MissingCoin)},
		{"uniform-missing-average", genProblem(t, 13, 80, 6, 0.2, core.MissingAverage)},
		{"m5-missing-coin", genProblem(t, 14, 70, 5, 0.1, core.MissingCoin)},
		{"m5-missing-average", genProblem(t, 15, 70, 5, 0.1, core.MissingAverage)},
		{"m3-missing-coin", genProblem(t, 16, 60, 3, 0.2, core.MissingCoin)},
		{"m7-missing-coin", genProblem(t, 17, 60, 7, 0.2, core.MissingCoin)},
	}

	for _, tc := range cases {
		var inst corrclust.Instance = tc.p
		want := corrclust.LocalSearchOracle(inst, corrclust.LocalSearchOptions{})
		got := corrclust.LocalSearch(inst, corrclust.LocalSearchOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: incremental %v != reference %v", tc.name, got, want)
			continue
		}
		gc, wc := corrclust.Cost(inst, got), corrclust.Cost(inst, want)
		if math.Abs(gc-wc) > 1e-9 {
			t.Errorf("%s: cost %v vs reference %v", tc.name, gc, wc)
		}
	}
}
