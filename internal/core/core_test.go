package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/partition"
)

// figure1Problem is the worked example of the paper's Figure 1.
func figure1Problem(t testing.TB) *Problem {
	t.Helper()
	p, err := NewProblem([]partition.Labels{
		{0, 0, 1, 1, 2, 2}, // C1 = {v1,v2},{v3,v4},{v5,v6}
		{0, 1, 0, 1, 2, 3}, // C2 = {v1,v3},{v2,v4},{v5},{v6}
		{0, 1, 0, 1, 2, 2}, // C3 = {v1,v3},{v2,v4},{v5,v6}
	}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil, ProblemOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewProblem([]partition.Labels{{0, 1}, {0}}, ProblemOptions{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewProblem([]partition.Labels{{0, -5}}, ProblemOptions{}); err == nil {
		t.Error("invalid label accepted")
	}
	// A label whose exclusive bound overflows int32 (it would collide with
	// the packed missing sentinel) is rejected, naming clustering and label.
	if _, err := NewProblem([]partition.Labels{{0, 1}, {math.MaxInt32, 0}}, ProblemOptions{}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("clustering 1: label %d", math.MaxInt32)) {
		t.Errorf("label MaxInt32: %v", err)
	}
	p, err := NewProblem([]partition.Labels{{0, 1, 0}}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 || p.M() != 1 {
		t.Errorf("N=%d M=%d, want 3 and 1", p.N(), p.M())
	}
}

func TestFigure1Disagreement(t *testing.T) {
	p := figure1Problem(t)
	// The paper: aggregate C = {v1,v3},{v2,v4},{v5,v6} has 5 total
	// disagreements (1 with C2, 4 with C1).
	agg := partition.Labels{0, 1, 0, 1, 2, 2}
	if got := p.Disagreement(agg); math.Abs(got-5) > 1e-9 {
		t.Errorf("Disagreement = %v, want 5", got)
	}
	// Per-input check via partition.Distance.
	wantPer := []int{4, 1, 0}
	for i, c := range p.Clusterings() {
		d, err := partition.Distance(c, agg)
		if err != nil {
			t.Fatal(err)
		}
		if d != wantPer[i] {
			t.Errorf("d(C%d, agg) = %d, want %d", i+1, d, wantPer[i])
		}
	}
}

func TestFigure1AllMethodsFindOptimum(t *testing.T) {
	p := figure1Problem(t)
	want := partition.Labels{0, 1, 0, 1, 2, 2}
	for _, method := range Methods() {
		if method == MethodBest {
			continue // BestClustering can only return one of the inputs
		}
		for _, materialize := range []bool{false, true} {
			// α = 2/5 for BALLS: the paper notes α = 1/4 "tends to be small
			// as it creates many singleton clusters", and on this instance it
			// does exactly that (the ball around v1 has average distance 1/3).
			got, err := p.Aggregate(method, AggregateOptions{
				Materialize: materialize,
				BallsAlpha:  Alpha(corrclust.RecommendedBallsAlpha),
			})
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			if d := p.Disagreement(got); math.Abs(d-5) > 1e-9 {
				t.Errorf("%v (materialize=%t): disagreement %v, want optimum 5 (labels %v)",
					method, materialize, d, got)
			}
			if len(got) != len(want) {
				t.Fatalf("%v: wrong length %d", method, len(got))
			}
		}
	}
}

func TestFigure1BestClustering(t *testing.T) {
	p := figure1Problem(t)
	labels, idx, d := p.BestClustering()
	// C3 = {v1,v3},{v2,v4},{v5,v6} disagrees with C1 on 4 pairs and with C2
	// on 1 pair: total 5 — the best among the inputs (and here also optimal).
	if idx != 2 {
		t.Errorf("best input index = %d, want 2 (C3)", idx)
	}
	if math.Abs(d-5) > 1e-9 {
		t.Errorf("best input disagreement = %v, want 5", d)
	}
	if k := labels.K(); k != 3 {
		t.Errorf("best input has %d clusters, want 3", k)
	}
}

func TestDistMatchesPaperFigure2(t *testing.T) {
	p := figure1Problem(t)
	third := 1.0 / 3.0
	tests := []struct {
		u, v int
		want float64
	}{
		{0, 2, third}, {1, 3, third}, {4, 5, third},
		{0, 1, 2 * third}, {2, 3, 2 * third},
		{0, 3, 1}, {1, 2, 1}, {0, 4, 1}, {3, 5, 1},
	}
	for _, tc := range tests {
		if got := p.Dist(tc.u, tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
	if p.Dist(3, 3) != 0 {
		t.Error("Dist(v,v) != 0")
	}
}

func TestDisagreementEqualsSumOfDistances(t *testing.T) {
	// Without missing values, Disagreement must equal the exact integer sum
	// of Mirkin distances to the inputs.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		m := 1 + rng.Intn(6)
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(4)
			}
			cs[i] = c
		}
		p, err := NewProblem(cs, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cand := make(partition.Labels, n)
		for j := range cand {
			cand[j] = rng.Intn(4)
		}
		var want int
		for _, c := range cs {
			d, err := partition.Distance(c, cand)
			if err != nil {
				t.Fatal(err)
			}
			want += d
		}
		if got := p.Disagreement(cand); math.Abs(got-float64(want)) > 1e-6 {
			t.Errorf("trial %d: Disagreement = %v, want %d", trial, got, want)
		}
	}
}

func TestMissingValueCoinModel(t *testing.T) {
	// One clustering with a missing value: the pair (0,1) has expected
	// separation 1 − DefaultMissingTogether = ½, exactly.
	prob, err := NewProblem([]partition.Labels{{0, partition.Missing}},
		ProblemOptions{MissingMode: MissingCoin})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prob.Dist(0, 1), 1-DefaultMissingTogether; got != want {
		t.Errorf("Dist = %v, want %v", got, want)
	}
}

func TestMissingDefaultHalf(t *testing.T) {
	prob, err := NewProblem([]partition.Labels{
		{0, partition.Missing, 0},
		{0, 0, 1},
	}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pair (0,1): clustering 0 contributes 0.5 (missing), clustering 1
	// contributes 0 (together) -> X = 0.25.
	if got := prob.Dist(0, 1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Dist(0,1) = %v, want 0.25", got)
	}
	// Pair (0,2): together in 0, apart in 1 -> X = 0.5.
	if got := prob.Dist(0, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Dist(0,2) = %v, want 0.5", got)
	}
}

func TestLowerBoundBelowAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(10)
		m := 2 + rng.Intn(5)
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(3)
			}
			cs[i] = c
		}
		p, err := NewProblem(cs, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lb := p.LowerBound()
		for _, method := range Methods() {
			got, err := p.Aggregate(method, AggregateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if d := p.Disagreement(got); d < lb-1e-9 {
				t.Errorf("trial %d: %v disagreement %v below lower bound %v", trial, method, d, lb)
			}
		}
	}
}

func TestBestClusteringApproximationBound(t *testing.T) {
	// BESTCLUSTERING is a 2(1-1/m)-approximation. Verify against the
	// brute-force optimum on small random instances.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		m := 2 + rng.Intn(5)
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(3)
			}
			cs[i] = c
		}
		p, err := NewProblem(cs, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, got := p.BestClustering()
		_, optCost, err := corrclust.BruteForce(p)
		if err != nil {
			t.Fatal(err)
		}
		opt := optCost * float64(m)
		if opt == 0 {
			if got > 1e-9 {
				t.Errorf("trial %d: optimum 0 but best clustering %v", trial, got)
			}
			continue
		}
		bound := 2 * (1 - 1/float64(m))
		if ratio := got / opt; ratio > bound+1e-9 {
			t.Errorf("trial %d: ratio %v > bound %v (m=%d)", trial, ratio, bound, m)
		}
	}
}

func TestBestClusteringCompletesMissing(t *testing.T) {
	p, err := NewProblem([]partition.Labels{
		{0, 0, partition.Missing, partition.Missing},
	}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labels, _, _ := p.BestClustering()
	for i, v := range labels {
		if v == partition.Missing {
			t.Errorf("label %d still missing in %v", i, labels)
		}
	}
	if k := labels.K(); k != 3 {
		t.Errorf("completed clustering has %d clusters, want 3", k)
	}
}

func TestRefineOption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(8)
		m := 3
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(3)
			}
			cs[i] = c
		}
		p, err := NewProblem(cs, ProblemOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := p.Aggregate(MethodBalls, AggregateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := p.Aggregate(MethodBalls, AggregateOptions{Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if p.Disagreement(refined) > p.Disagreement(plain)+1e-9 {
			t.Errorf("trial %d: refine worsened %v -> %v",
				trial, p.Disagreement(plain), p.Disagreement(refined))
		}
	}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		MethodBest:          "BestClustering",
		MethodBalls:         "Balls",
		MethodAgglomerative: "Agglomerative",
		MethodFurthest:      "Furthest",
		MethodLocalSearch:   "LocalSearch",
		Method(99):          "Method(99)",
	}
	for m, s := range want {
		if got := m.String(); got != s {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, s)
		}
	}
}

func TestAggregateUnknownMethod(t *testing.T) {
	p := figure1Problem(t)
	if _, err := p.Aggregate(Method(99), AggregateOptions{}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestAggregateKOption(t *testing.T) {
	p := figure1Problem(t)
	for _, method := range []Method{MethodAgglomerative, MethodFurthest} {
		got, err := p.Aggregate(method, AggregateOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if k := got.K(); k != 2 {
			t.Errorf("%v with K=2 produced %d clusters: %v", method, k, got)
		}
	}
}

func TestBestOf(t *testing.T) {
	p := figure1Problem(t)
	labels, method, err := p.BestOf(nil, AggregateOptions{BallsAlpha: Alpha(0.4), Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Disagreement(labels); math.Abs(d-5) > 1e-9 {
		t.Errorf("BestOf disagreement %v, want 5 (picked %v)", d, method)
	}
	// Explicit subset.
	labels2, method2, err := p.BestOf([]Method{MethodFurthest}, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if method2 != MethodFurthest {
		t.Errorf("method = %v, want Furthest", method2)
	}
	if len(labels2) != p.N() {
		t.Errorf("wrong length %d", len(labels2))
	}
	// Unknown method propagates the error.
	if _, _, err := p.BestOf([]Method{Method(99)}, AggregateOptions{}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestBestOfWinnerIsMinimumDisagreement: BestOf returns the racer with the
// smallest Disagreement, an exact tie goes to the method listed first, and
// Workers 1 and 2 return the same result, on the kernel and on a matrix.
func TestBestOfWinnerIsMinimumDisagreement(t *testing.T) {
	check := func(name string, p *Problem, methods []Method) {
		t.Helper()
		want, wantD := -1, 0.0
		alone := make([]partition.Labels, len(methods))
		for i, method := range methods {
			labels, err := p.Aggregate(method, AggregateOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			alone[i] = labels
			if d := p.Disagreement(labels); want < 0 || d < wantD {
				want, wantD = i, d
			}
		}
		for _, materialize := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				labels, winner, err := p.BestOf(methods, AggregateOptions{Workers: workers, Materialize: materialize})
				if err != nil {
					t.Fatal(err)
				}
				if winner != methods[want] {
					t.Fatalf("%s materialize=%v workers=%d: winner %v, want %v (D = %v)",
						name, materialize, workers, winner, methods[want], wantD)
				}
				sameLabels(t, name, alone[want], labels)
			}
		}
	}
	check("noisy", recorderProblem(t, 80, 4, 31), Methods())

	// Unanimous inputs: every method recovers the input clustering, so all
	// racers tie exactly at D = 0 and the first listed method wins.
	truth := make(partition.Labels, 30)
	for i := range truth {
		truth[i] = i % 3
	}
	p, err := NewProblem([]partition.Labels{truth, truth, truth}, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range Methods() {
		labels, err := p.Aggregate(method, AggregateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := p.Disagreement(labels); d != 0 {
			t.Fatalf("unanimous inputs: %v has D = %v, want an exact tie at 0", method, d)
		}
	}
	check("tie", p, Methods())
	check("tie reversed", p, []Method{MethodLocalSearch, MethodFurthest, MethodAgglomerative, MethodBalls, MethodBest})
}
