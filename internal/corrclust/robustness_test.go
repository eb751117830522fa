package corrclust

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clusteragg/internal/partition"
)

// arbitraryMatrix draws a matrix with arbitrary distances in [0,1] — no
// triangle inequality. The approximation guarantees do not apply here, but
// every algorithm must still terminate with a valid partition.
func arbitraryMatrix(seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(20)
	m := NewMatrix(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			m.Set(u, v, rng.Float64())
		}
	}
	return m
}

func TestQuickAlgorithmsRobustToArbitraryDistances(t *testing.T) {
	f := func(seed int64) bool {
		inst := arbitraryMatrix(seed)
		n := inst.N()
		rng := rand.New(rand.NewSource(seed))

		check := func(labels partition.Labels, err error) bool {
			if err != nil || len(labels) != n || !labels.IsNormalized() {
				return false
			}
			for _, l := range labels {
				if l == partition.Missing {
					return false
				}
			}
			return true
		}

		if !check(Balls(inst, 0.4)) {
			return false
		}
		if !check(Agglomerative(inst), nil) {
			return false
		}
		if !check(Furthest(inst), nil) {
			return false
		}
		if !check(LocalSearch(inst, LocalSearchOptions{maxPasses: 20}), nil) {
			return false
		}
		if !check(Pivot(inst, rng), nil) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickLocalSearchNeverAboveSingletonsOrSingle(t *testing.T) {
	// From a singleton start, LOCALSEARCH can never end worse than both
	// trivial solutions, even without the triangle inequality.
	f := func(seed int64) bool {
		inst := arbitraryMatrix(seed)
		n := inst.N()
		labels := LocalSearch(inst, LocalSearchOptions{})
		c := Cost(inst, labels)
		return c <= Cost(inst, partition.Singletons(n))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickAgglomerativeKMonotone(t *testing.T) {
	// AGGLOMERATIVE with K = k must return exactly min(k, n) clusters for every k.
	f := func(seed int64) bool {
		inst := arbitraryMatrix(seed)
		n := inst.N()
		for _, k := range []int{1, 2, n, n + 3} {
			want := k
			if want > n {
				want = n
			}
			if AgglomerativeWithOptions(inst, AgglomerativeOptions{K: k}).K() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
