package corrclust

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clusteragg/internal/partition"
)

// aggInstance builds a Matrix from input clusterings the way the paper's
// reduction does: X_uv = fraction of clusterings separating u and v. Such
// matrices obey the triangle inequality.
func aggInstance(t testing.TB, clusterings ...partition.Labels) *Matrix {
	t.Helper()
	n := len(clusterings[0])
	m := NewMatrix(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			sep := 0
			for _, c := range clusterings {
				if c[u] != c[v] {
					sep++
				}
			}
			if err := m.Set(u, v, float64(sep)/float64(len(clusterings))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// randClusterings draws m random clusterings of n objects with at most k
// clusters each.
func randClusterings(rng *rand.Rand, m, n, k int) []partition.Labels {
	out := make([]partition.Labels, m)
	for i := range out {
		c := make(partition.Labels, n)
		for j := range c {
			c[j] = rng.Intn(k)
		}
		out[i] = c
	}
	return out
}

// figure2Instance is the correlation-clustering instance of the paper's
// Figures 1-2: three clusterings of six objects.
func figure2Instance(t testing.TB) *Matrix {
	c1 := partition.Labels{0, 0, 1, 1, 2, 2}
	c2 := partition.Labels{0, 1, 0, 1, 2, 3}
	c3 := partition.Labels{0, 1, 0, 1, 2, 2}
	return aggInstance(t, c1, c2, c3)
}

func TestFigure2Distances(t *testing.T) {
	m := figure2Instance(t)
	third := 1.0 / 3.0
	tests := []struct {
		u, v int
		want float64
	}{
		{0, 2, third},     // v1,v3: only C1 separates (solid edge, 1/3)
		{1, 3, third},     // v2,v4
		{4, 5, third},     // v5,v6: only C2 separates
		{0, 1, 2 * third}, // v1,v2: C2, C3 separate (dashed, 2/3)
		{2, 3, 2 * third}, // v3,v4
		{0, 3, 1},         // v1,v4: all separate (dotted, 1)
		{1, 2, 1},         // v2,v3
		{0, 4, 1},         // cross-group pairs
	}
	for _, tc := range tests {
		if got := m.Dist(tc.u, tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
		if got := m.Dist(tc.v, tc.u); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%d,%d) = %v, want %v (symmetry)", tc.v, tc.u, got, tc.want)
		}
	}
	if err := m.Validate(true); err != nil {
		t.Errorf("figure-2 instance fails validation: %v", err)
	}
}

func TestFigure2OptimalCost(t *testing.T) {
	m := figure2Instance(t)
	// The paper's optimal aggregate {{v1,v3},{v2,v4},{v5,v6}} has 5
	// disagreements over 3 clusterings, i.e. correlation cost 5/3.
	opt := partition.Labels{0, 1, 0, 1, 2, 2}
	if got, want := Cost(m, opt), 5.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Cost(optimal) = %v, want %v", got, want)
	}
	best, bestCost, err := BruteForce(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bestCost-5.0/3.0) > 1e-12 {
		t.Errorf("brute-force optimum cost = %v, want 5/3", bestCost)
	}
	if want := opt.Normalize(); !equalLabels(best, want) {
		t.Errorf("brute-force optimum = %v, want %v", best, want)
	}
}

func equalLabels(a, b partition.Labels) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatrixSetErrors(t *testing.T) {
	m := NewMatrix(3)
	if err := m.Set(1, 1, 0.5); err == nil {
		t.Error("diagonal set accepted")
	}
	if err := m.Set(0, 3, 0.5); err == nil {
		t.Error("out-of-range set accepted")
	}
	// Range is checked before the diagonal: an out-of-range equal pair must
	// report the range error, not a bogus diagonal error.
	if err := m.Set(7, 7, 0.5); err == nil {
		t.Error("out-of-range equal pair accepted")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Set(7,7) reported %q, want a range error", err)
	}
	if err := m.Set(1, 1, 0.5); err == nil {
		t.Error("in-range diagonal accepted")
	} else if !strings.Contains(err.Error(), "diagonal") {
		t.Errorf("Set(1,1) reported %q, want a diagonal error", err)
	}
	if err := m.Set(0, 1, 1.5); err == nil {
		t.Error("distance > 1 accepted")
	}
	if err := m.Set(0, 1, -0.1); err == nil {
		t.Error("negative distance accepted")
	}
	if err := m.Set(0, 1, math.NaN()); err == nil {
		t.Error("NaN distance accepted")
	}
	if err := m.Set(2, 0, 0.25); err != nil {
		t.Errorf("reversed pair rejected: %v", err)
	}
	if got := m.Dist(0, 2); got != 0.25 {
		t.Errorf("Dist(0,2) = %v after Set(2,0,0.25)", got)
	}
}

func TestMatrixDiagonalZero(t *testing.T) {
	m := NewMatrix(4)
	for i := 0; i < 4; i++ {
		if m.Dist(i, i) != 0 {
			t.Errorf("Dist(%d,%d) != 0", i, i)
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(-1) did not panic")
		}
	}()
	NewMatrix(-1)
}

func TestValidateTriangle(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 0.1)
	m.Set(1, 2, 0.1)
	m.Set(0, 2, 0.9) // violates 0.9 <= 0.1+0.1
	if err := m.Validate(false); err != nil {
		t.Errorf("range-only validation failed: %v", err)
	}
	if err := m.Validate(true); err == nil {
		t.Error("triangle violation not detected")
	}
}

func TestMatrixFromInstance(t *testing.T) {
	orig := figure2Instance(t)
	copied := MatrixFromInstance(orig)
	for u := 0; u < orig.N(); u++ {
		for v := 0; v < orig.N(); v++ {
			if copied.Dist(u, v) != orig.Dist(u, v) {
				t.Fatalf("copy differs at (%d,%d)", u, v)
			}
		}
	}
}

func TestCostExtremes(t *testing.T) {
	n := 5
	m := NewMatrix(n) // all-zero distances: everything together is free
	if got := Cost(m, partition.Single(n)); got != 0 {
		t.Errorf("all-zero, single cluster: cost = %v, want 0", got)
	}
	pairs := float64(n * (n - 1) / 2)
	if got := Cost(m, partition.Singletons(n)); got != pairs {
		t.Errorf("all-zero, singletons: cost = %v, want %v", got, pairs)
	}

	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			m.Set(u, v, 1)
		}
	}
	if got := Cost(m, partition.Singletons(n)); got != 0 {
		t.Errorf("all-one, singletons: cost = %v, want 0", got)
	}
	if got := Cost(m, partition.Single(n)); got != pairs {
		t.Errorf("all-one, single cluster: cost = %v, want %v", got, pairs)
	}
}

func TestLowerBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		inst := aggInstance(t, randClusterings(rng, 1+rng.Intn(5), n, 1+rng.Intn(4))...)
		lb := LowerBound(inst)
		// Every partition costs at least the lower bound.
		partition.EnumeratePartitions(n, func(l partition.Labels) bool {
			if c := Cost(inst, l); c < lb-1e-9 {
				t.Fatalf("partition %v has cost %v below lower bound %v", l, c, lb)
			}
			return true
		})
	}
}

func TestLowerBoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		inst := aggInstance(t, randClusterings(rng, 1+rng.Intn(4), n, 1+rng.Intn(5))...)
		lb := LowerBound(inst)
		// Random partition obeys the bound.
		l := make(partition.Labels, n)
		for i := range l {
			l[i] = rng.Intn(n)
		}
		return Cost(inst, l) >= lb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
