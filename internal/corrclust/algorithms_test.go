package corrclust

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/partition"
)

func checkValidClustering(t *testing.T, labels partition.Labels, n int) {
	t.Helper()
	if len(labels) != n {
		t.Fatalf("clustering has %d labels, want %d", len(labels), n)
	}
	if err := labels.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range labels {
		if v == partition.Missing {
			t.Fatalf("clustering contains a Missing label: %v", labels)
		}
	}
	if !labels.IsNormalized() {
		t.Fatalf("clustering not normalized: %v", labels)
	}
}

func TestBallsAlphaValidation(t *testing.T) {
	m := NewMatrix(3)
	if _, err := Balls(m, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := Balls(m, 0.6); err == nil {
		t.Error("alpha > 1/2 accepted")
	}
}

func TestAlgorithmsOnFigure2(t *testing.T) {
	inst := figure2Instance(t)
	want := partition.Labels{0, 1, 0, 1, 2, 2}
	optCost := 5.0 / 3.0

	algos := map[string]func() partition.Labels{
		"agglomerative": func() partition.Labels { return Agglomerative(inst) },
		"furthest":      func() partition.Labels { return Furthest(inst) },
		"localsearch": func() partition.Labels {
			return LocalSearch(inst, LocalSearchOptions{})
		},
		"balls(0.4)": func() partition.Labels {
			l, err := Balls(inst, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	}
	for name, run := range algos {
		t.Run(name, func(t *testing.T) {
			got := run()
			checkValidClustering(t, got, inst.N())
			cost := Cost(inst, got)
			// All four algorithms should find the optimum on this tiny,
			// well-separated instance.
			if math.Abs(cost-optCost) > 1e-9 {
				t.Errorf("cost = %v, want optimum %v (labels %v)", cost, optCost, got)
			}
			if !equalLabels(got, want) {
				t.Errorf("labels = %v, want %v", got, want)
			}
		})
	}
}

func TestBallsApproximationRatio(t *testing.T) {
	// Theorem 1: with alpha = 1/4 the BALLS cost is at most 3x optimal on
	// triangle-inequality instances. Verify on random aggregation-induced
	// instances against the brute-force optimum.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		inst := aggInstance(t, randClusterings(rng, 2+rng.Intn(5), n, 1+rng.Intn(4))...)
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
		if ratio := cost / opt; ratio > 3+1e-9 {
			t.Errorf("trial %d: balls ratio %v > 3 (cost %v, opt %v)", trial, ratio, cost, opt)
		}
	}
}

func TestAgglomerativeTwoApproxOnThreeClusterings(t *testing.T) {
	// Section 4: for m = 3 input clusterings AGGLOMERATIVE is within 2x of
	// the optimum.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		inst := aggInstance(t, randClusterings(rng, 3, n, 1+rng.Intn(4))...)
		got := Agglomerative(inst)
		_, opt, err := BruteForce(inst)
		if err != nil {
			t.Fatal(err)
		}
		cost := Cost(inst, got)
		if opt == 0 {
			if cost > 1e-9 {
				t.Errorf("trial %d: optimum 0 but agglomerative cost %v", trial, cost)
			}
			continue
		}
		if ratio := cost / opt; ratio > 2+1e-9 {
			t.Errorf("trial %d: agglomerative ratio %v > 2 (cost %v, opt %v)", trial, ratio, cost, opt)
		}
	}
}

func TestAgglomerativeIntraClusterAverage(t *testing.T) {
	// The paper: AGGLOMERATIVE "creates clusters where the average distance
	// of any pair of nodes is at most 1/2".
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		inst := aggInstance(t, randClusterings(rng, 2+rng.Intn(6), n, 1+rng.Intn(5))...)
		labels := Agglomerative(inst)
		checkValidClustering(t, labels, n)
		for _, cluster := range labels.Clusters() {
			if len(cluster) < 2 {
				continue
			}
			var sum float64
			pairs := 0
			for i := 0; i < len(cluster); i++ {
				for j := i + 1; j < len(cluster); j++ {
					sum += inst.Dist(cluster[i], cluster[j])
					pairs++
				}
			}
			if avg := sum / float64(pairs); avg > 0.5+1e-9 {
				t.Errorf("trial %d: cluster %v has average distance %v > 1/2", trial, cluster, avg)
			}
		}
	}
}

func TestAgglomerativeK(t *testing.T) {
	inst := figure2Instance(t)
	for k := 1; k <= 6; k++ {
		labels := AgglomerativeWithOptions(inst, AgglomerativeOptions{K: k})
		checkValidClustering(t, labels, inst.N())
		if got := labels.K(); got != k {
			t.Errorf("K=%d produced %d clusters (%v)", k, got, labels)
		}
	}
	if got := AgglomerativeWithOptions(inst, AgglomerativeOptions{K: 100}).K(); got != 6 {
		t.Errorf("K>n produced %d clusters, want n=6", got)
	}
}

func TestFurthestK(t *testing.T) {
	inst := figure2Instance(t)
	labels, cost := FurthestWithOptions(inst, FurthestOptions{K: 3})
	checkValidClustering(t, labels, inst.N())
	if got := labels.K(); got != 3 {
		t.Errorf("K=3 produced %d clusters", got)
	}
	if math.Abs(cost-Cost(inst, labels)) > 1e-9 {
		t.Errorf("returned cost %v != recomputed %v", cost, Cost(inst, labels))
	}
}

func TestFurthestNeverWorseThanSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		inst := aggInstance(t, randClusterings(rng, 1+rng.Intn(5), n, 1+rng.Intn(5))...)
		labels := Furthest(inst)
		checkValidClustering(t, labels, n)
		if got, single := Cost(inst, labels), Cost(inst, partition.Single(n)); got > single+1e-9 {
			t.Errorf("trial %d: furthest cost %v worse than trivial single cluster %v", trial, got, single)
		}
	}
}

func TestLocalSearchNeverWorseThanInit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		inst := aggInstance(t, randClusterings(rng, 1+rng.Intn(5), n, 1+rng.Intn(5))...)
		init := make(partition.Labels, n)
		for i := range init {
			init[i] = rng.Intn(3)
		}
		got := LocalSearch(inst, LocalSearchOptions{Init: init})
		checkValidClustering(t, got, n)
		if gc, ic := Cost(inst, got), Cost(inst, init); gc > ic+1e-9 {
			t.Errorf("trial %d: local search worsened cost from %v to %v", trial, ic, gc)
		}
	}
}

func TestLocalSearchIsLocalOptimum(t *testing.T) {
	// After convergence, no single-node move can improve the cost.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(7)
		inst := aggInstance(t, randClusterings(rng, 2+rng.Intn(4), n, 1+rng.Intn(4))...)
		labels := LocalSearch(inst, LocalSearchOptions{})
		base := Cost(inst, labels)
		for v := 0; v < n; v++ {
			orig := labels[v]
			for target := 0; target <= labels.K(); target++ { // K() = fresh singleton
				labels[v] = target
				if c := Cost(inst, labels); c < base-1e-6 {
					t.Errorf("trial %d: moving node %d to cluster %d improves %v -> %v",
						trial, v, target, base, c)
				}
			}
			labels[v] = orig
		}
	}
}

func TestLocalSearchMaxPasses(t *testing.T) {
	inst := figure2Instance(t)
	got := LocalSearch(inst, LocalSearchOptions{maxPasses: 1})
	checkValidClustering(t, got, inst.N())
}

func TestAlgorithmsOnEmptyAndTinyInstances(t *testing.T) {
	empty := NewMatrix(0)
	if got := Agglomerative(empty); len(got) != 0 {
		t.Errorf("agglomerative on empty = %v", got)
	}
	if got := Furthest(empty); len(got) != 0 {
		t.Errorf("furthest on empty = %v", got)
	}
	if got := LocalSearch(empty, LocalSearchOptions{}); len(got) != 0 {
		t.Errorf("localsearch on empty = %v", got)
	}
	if got, err := Balls(empty, 0.25); err != nil || len(got) != 0 {
		t.Errorf("balls on empty = %v, %v", got, err)
	}

	one := NewMatrix(1)
	for name, run := range map[string]func() partition.Labels{
		"agglomerative": func() partition.Labels { return Agglomerative(one) },
		"furthest":      func() partition.Labels { return Furthest(one) },
		"localsearch":   func() partition.Labels { return LocalSearch(one, LocalSearchOptions{}) },
		"balls": func() partition.Labels {
			l, err := Balls(one, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	} {
		if got := run(); len(got) != 1 || got[0] != 0 {
			t.Errorf("%s on n=1 = %v, want [0]", name, got)
		}
	}
}

func TestBruteForceRejectsLargeN(t *testing.T) {
	if _, _, err := BruteForce(NewMatrix(MaxBruteForceN + 1)); err == nil {
		t.Error("oversized brute force accepted")
	}
}

func TestBruteForceEmpty(t *testing.T) {
	labels, cost, err := BruteForce(NewMatrix(0))
	if err != nil || cost != 0 || len(labels) != 0 {
		t.Errorf("BruteForce(empty) = %v, %v, %v", labels, cost, err)
	}
}

func TestAllAlgorithmsBeatNaiveBounds(t *testing.T) {
	// Sanity check across random instances: every algorithm's cost lies
	// between the lower bound and the worse of the two trivial solutions.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		inst := aggInstance(t, randClusterings(rng, 2+rng.Intn(5), n, 1+rng.Intn(4))...)
		lb := LowerBound(inst)
		trivial := math.Max(Cost(inst, partition.Single(n)), Cost(inst, partition.Singletons(n)))
		run := map[string]partition.Labels{
			"agglomerative": Agglomerative(inst),
			"furthest":      Furthest(inst),
			"localsearch":   LocalSearch(inst, LocalSearchOptions{}),
		}
		if l, err := Balls(inst, DefaultBallsAlpha); err == nil {
			run["balls"] = l
		}
		for name, labels := range run {
			c := Cost(inst, labels)
			if c < lb-1e-9 {
				t.Errorf("trial %d: %s cost %v below lower bound %v", trial, name, c, lb)
			}
			if c > trivial+1e-9 && name == "localsearch" {
				// LocalSearch starts from singletons, so it can never be
				// worse than the all-singletons trivial solution.
				t.Errorf("trial %d: %s cost %v above trivial %v", trial, name, c, trivial)
			}
		}
	}
}
