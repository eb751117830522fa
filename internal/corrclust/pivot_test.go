package corrclust

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
)

func TestPivotValidOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(15)
		inst := aggInstance(t, randClusterings(rng, 1+rng.Intn(5), n, 1+rng.Intn(4))...)
		labels := Pivot(inst, rand.New(rand.NewSource(int64(trial))))
		checkValidClustering(t, labels, n)
	}
}

func TestPivotOnFigure2(t *testing.T) {
	inst := figure2Instance(t)
	labels := PivotWithOptions(inst, PivotOptions{Rand: rand.New(rand.NewSource(1))})
	if got := Cost(inst, labels); math.Abs(got-5.0/3.0) > 1e-9 {
		t.Errorf("pivot cost %v, want optimum 5/3 (labels %v)", got, labels)
	}
}

func TestPivotEmptyAndNilRand(t *testing.T) {
	if got := Pivot(NewMatrix(0), nil); len(got) != 0 {
		t.Errorf("pivot on empty = %v", got)
	}
	if got := Pivot(NewMatrix(3), nil); got.K() != 1 {
		// all-zero distances: everything joins the first pivot
		t.Errorf("pivot on zero matrix: %v", got)
	}
}

func TestPivotBestNeverWorseThanSingleRun(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(10)
		inst := aggInstance(t, randClusterings(rng, 3, n, 3)...)
		one := Pivot(inst, rand.New(rand.NewSource(99)))
		best := PivotWithOptions(inst, PivotOptions{rounds: 20, Rand: rand.New(rand.NewSource(99))})
		if Cost(inst, best) > Cost(inst, one)+1e-9 {
			t.Errorf("trial %d: best of 20 rounds %v worse than first single run %v",
				trial, Cost(inst, best), Cost(inst, one))
		}
	}
}

// TestPivotBestRoundsFloor: a rounds hook below 1 falls back to
// pivotRounds.
func TestPivotBestRoundsFloor(t *testing.T) {
	inst := figure2Instance(t)
	rec := obs.New()
	labels := PivotWithOptions(inst, PivotOptions{rounds: -1, Recorder: rec})
	checkValidClustering(t, labels, inst.N())
	if got := rec.Counters()["pivot.rounds"]; got != pivotRounds {
		t.Errorf("pivot.rounds = %d, want %d", got, pivotRounds)
	}
}

func TestPivotExpectedApproximation(t *testing.T) {
	// CC-PIVOT's guarantee is in expectation; with 20 rounds on tiny
	// triangle-inequality instances the best run should land within 5x of
	// optimal (the weighted bound) with huge margin.
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5)
		inst := aggInstance(t, randClusterings(rng, 2+rng.Intn(4), n, 1+rng.Intn(4))...)
		labels := PivotWithOptions(inst, PivotOptions{rounds: 20, Rand: rand.New(rand.NewSource(int64(trial)))})
		_, opt, err := BruteForce(inst)
		if err != nil {
			t.Fatal(err)
		}
		cost := Cost(inst, labels)
		if opt == 0 {
			if cost > 1e-9 {
				t.Errorf("trial %d: optimum 0 but pivot %v", trial, cost)
			}
			continue
		}
		if cost/opt > 5+1e-9 {
			t.Errorf("trial %d: pivot ratio %v > 5", trial, cost/opt)
		}
	}
}
