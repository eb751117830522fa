package main

import (
	"math/rand"
	"testing"

	"clusteragg/internal/core"
	"clusteragg/internal/partition"
)

// TestObjectiveMatchesDisagreement pins the O(n·m) contingency oracle to
// the library's O(n²) pair scan, with and without missing labels.
func TestObjectiveMatchesDisagreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, missing := range []float64{0, 0.2} {
		for _, n := range []int{1, 2, 9, 60, 300} {
			for _, m := range []int{1, 3, 8} {
				cols := make([]partition.Labels, m)
				for i := range cols {
					k := 1 + rng.Intn(6)
					cols[i] = make(partition.Labels, n)
					for v := range cols[i] {
						if rng.Float64() < missing {
							cols[i][v] = partition.Missing
						} else {
							cols[i][v] = rng.Intn(k)
						}
					}
				}
				p, err := core.NewProblem(cols, core.ProblemOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []partition.Labels{
					partition.Singletons(n),
					partition.Single(n),
					randomLabels(rng, n, 1+rng.Intn(n)),
				} {
					c = c.Normalize()
					if err := checkClose("objective", objective(cols, c), p.Disagreement(c)); err != nil {
						t.Errorf("missing=%v n=%d m=%d: %v", missing, n, m, err)
					}
				}
			}
		}
	}
}

func randomLabels(rng *rand.Rand, n, k int) partition.Labels {
	l := make(partition.Labels, n)
	for i := range l {
		l[i] = rng.Intn(k)
	}
	return l
}

func TestCheckLabels(t *testing.T) {
	for _, tc := range []struct {
		labels partition.Labels
		ok     bool
	}{
		{partition.Labels{0, 1, 0, 2}, true},
		{partition.Labels{0, 1}, false}, // wrong length
		{partition.Labels{0, partition.Missing, 1, 2}, false},
		{partition.Labels{1, 0, 0, 2}, false}, // not normalized
	} {
		err := checkLabels(tc.labels, 4)
		if (err == nil) != tc.ok {
			t.Errorf("checkLabels(%v) = %v, want ok=%v", tc.labels, err, tc.ok)
		}
	}
}
