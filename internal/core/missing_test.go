package core

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/partition"
)

func TestMissingAverageDist(t *testing.T) {
	p, err := NewProblem([]partition.Labels{
		{0, partition.Missing, 0},
		{0, 0, 1},
		{0, 1, 0},
	}, ProblemOptions{MissingMode: MissingAverage})
	if err != nil {
		t.Fatal(err)
	}
	// Pair (0,1): clustering 0 abstains; of the remaining two, one says
	// together, one apart -> 1/2.
	if got := p.Dist(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Dist(0,1) = %v, want 0.5", got)
	}
	// Pair (0,2): all three vote: together, apart, together -> 1/3.
	if got := p.Dist(0, 2); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Dist(0,2) = %v, want 1/3", got)
	}
}

func TestMissingAverageNoVotes(t *testing.T) {
	p, err := NewProblem([]partition.Labels{
		{partition.Missing, partition.Missing},
	}, ProblemOptions{MissingMode: MissingAverage})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Dist(0, 1); got != 0.5 {
		t.Errorf("no-vote pair Dist = %v, want 0.5 (maximal uncertainty)", got)
	}
}

func TestMissingModesAgreeWithoutMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(5)
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				c[j] = rng.Intn(3)
			}
			cs[i] = c
		}
		coin, err := NewProblem(cs, ProblemOptions{MissingMode: MissingCoin})
		if err != nil {
			t.Fatal(err)
		}
		avg, err := NewProblem(cs, ProblemOptions{MissingMode: MissingAverage})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if math.Abs(coin.Dist(u, v)-avg.Dist(u, v)) > 1e-12 {
					t.Fatalf("modes disagree on clean data at (%d,%d)", u, v)
				}
			}
		}
	}
}

func TestMissingModeValidation(t *testing.T) {
	if _, err := NewProblem([]partition.Labels{{0}}, ProblemOptions{MissingMode: MissingMode(9)}); err == nil {
		t.Error("invalid MissingMode accepted")
	}
}

func TestMissingModeSurvivesSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cs := make([]partition.Labels, 6)
	for i := range cs {
		c := make(partition.Labels, 300)
		for j := range c {
			if rng.Float64() < 0.1 {
				c[j] = partition.Missing
			} else {
				c[j] = j % 3
			}
		}
		cs[i] = c
	}
	p, err := NewProblem(cs, ProblemOptions{MissingMode: MissingAverage})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 60, Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if labels.K() < 3 {
		t.Errorf("found %d clusters, want >= 3", labels.K())
	}
}

func TestExtensionMethods(t *testing.T) {
	p := figure1Problem(t)
	for _, method := range ExtensionMethods() {
		labels, err := p.Aggregate(method, AggregateOptions{})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if d := p.Disagreement(labels); math.Abs(d-5) > 1e-9 {
			t.Errorf("%v: disagreement %v, want optimum 5", method, d)
		}
	}
	if MethodPivot.String() != "Pivot" {
		t.Error("extension method name wrong")
	}
}
