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
// injects missing labels; weights selects uniform (0), dyadic (1: multiples
// of 1/4), or arbitrary float (2) clustering weights.
func genInputs(seed int64, n, m int, missFrac float64, weights int, mode core.MissingMode) ([]partition.Labels, core.ProblemOptions) {
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
	opts := core.ProblemOptions{MissingMode: mode}
	switch weights {
	case 1:
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.25 * float64(1+rng.Intn(8))
		}
		opts.Weights = w
	case 2:
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.1 + rng.Float64()
		}
		opts.Weights = w
	}
	return cs, opts
}

func genProblem(t *testing.T, seed int64, n, m int, missFrac float64, weights int, mode core.MissingMode) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(genInputs(seed, n, m, missFrac, weights, mode))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLocalSearchIncrementalEquivalence drives the incremental LOCALSEARCH
// kernel against the reference sweep on full Problems — non-uniform weights
// and both missing-label modes. With dyadic weights
// summing to a power of two every distance is an exact float, so the labels
// must match bit-for-bit; the arbitrary-weight and average-mode cases use
// fixed seeds (deterministic, no engineered ties) and check cost agreement
// to 1e-9 as well.
func TestLocalSearchIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		name string
		p    *core.Problem
	}{
		{"uniform-coin", genProblem(t, 11, 80, 6, 0, 0, core.MissingCoin)},
		{"uniform-missing-coin", genProblem(t, 12, 80, 6, 0.2, 0, core.MissingCoin)},
		{"uniform-missing-average", genProblem(t, 13, 80, 6, 0.2, 0, core.MissingAverage)},
		{"dyadic-weights-coin", genProblem(t, 14, 70, 5, 0.1, 1, core.MissingCoin)},
		{"arbitrary-weights-average", genProblem(t, 15, 70, 5, 0.1, 2, core.MissingAverage)},
	}
	// Hand-built case with dyadic weights summing to a power of two
	// (0.5+1+0.5+2 = 4): distances are exact quarters, so incremental and
	// reference arithmetic is identical, not merely close.
	{
		cs := make([]partition.Labels, 4)
		for i, seed := range []int64{21, 22, 23, 24} {
			gs, _ := genInputs(seed, 60, 1, 0, 0, core.MissingCoin)
			cs[i] = gs[0]
		}
		p, err := core.NewProblem(cs, core.ProblemOptions{Weights: []float64{0.5, 1, 0.5, 2}})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			p    *core.Problem
		}{"dyadic-weights-pow2-sum", p})
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
