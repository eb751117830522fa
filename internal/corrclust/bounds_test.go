package corrclust

import (
	"math/rand"
	"testing"

	"clusteragg/internal/partition"
)

func TestBallsTwoApproxOnThreeClusterings(t *testing.T) {
	// Section 4: "For the case that m = 3 it is easy to show that the cost
	// of the BALLS algorithm is at most 2 times that of the optimal
	// solution."
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		inst := aggInstance(t, randClusterings(rng, 3, n, 1+rng.Intn(4))...)
		got, err := Balls(inst, DefaultBallsAlpha)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := BruteForce(inst)
		if err != nil {
			t.Fatal(err)
		}
		cost := Cost(inst, got)
		if opt == 0 {
			if cost > 1e-9 {
				t.Errorf("trial %d: optimum 0 but balls cost %v", trial, cost)
			}
			continue
		}
		if ratio := cost / opt; ratio > 2+1e-9 {
			t.Errorf("trial %d: balls m=3 ratio %v > 2 (cost %v, opt %v)", trial, ratio, cost, opt)
		}
	}
}

func TestCostInvariantUnderLabelRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		inst := aggInstance(t, randClusterings(rng, 1+rng.Intn(4), n, 1+rng.Intn(4))...)
		labels := make(partition.Labels, n)
		for i := range labels {
			labels[i] = 100 + 7*rng.Intn(4) // arbitrary non-normalized names
		}
		if a, b := Cost(inst, labels), Cost(inst, labels.Normalize()); a != b {
			t.Fatalf("cost changed under renaming: %v vs %v", a, b)
		}
	}
}

func TestAgglomerativeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	inst := aggInstance(t, randClusterings(rng, 5, 40, 4)...)
	a := Agglomerative(inst)
	b := Agglomerative(inst)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("agglomerative not deterministic")
		}
	}
}

func TestFurthestKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	inst := aggInstance(t, randClusterings(rng, 3, 8, 4)...)
	labels, _ := FurthestWithOptions(inst, FurthestOptions{K: 8})
	if len(labels) != 8 {
		t.Fatalf("%d labels", len(labels))
	}
	if err := labels.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchFromWorstCaseInit(t *testing.T) {
	// Starting from one giant cluster on an instance that wants singletons
	// must still converge to a valid local optimum.
	n := 12
	inst := NewMatrix(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			inst.Set(u, v, 1)
		}
	}
	labels := LocalSearch(inst, LocalSearchOptions{Init: partition.Single(n)})
	if got := Cost(inst, labels); got != 0 {
		t.Errorf("cost %v, want 0 (all singletons)", got)
	}
	if labels.K() != n {
		t.Errorf("K = %d, want %d", labels.K(), n)
	}
}

func TestLowerBoundZeroOnUnanimousInputs(t *testing.T) {
	// When every input agrees, the lower bound is 0 and every algorithm
	// must attain it.
	c := partition.Labels{0, 0, 1, 1, 2}
	inst := aggInstance(t, c, c, c, c)
	if lb := LowerBound(inst); lb != 0 {
		t.Fatalf("lower bound %v, want 0", lb)
	}
	for name, labels := range map[string]partition.Labels{
		"agglomerative": Agglomerative(inst),
		"furthest":      Furthest(inst),
		"localsearch":   LocalSearch(inst, LocalSearchOptions{}),
	} {
		if got := Cost(inst, labels); got != 0 {
			t.Errorf("%s cost %v on unanimous inputs, want 0", name, got)
		}
	}
}
