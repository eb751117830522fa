package corrclust

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// dyadicInstance draws an aggregation-induced instance whose distances are
// dyadic rationals (m a power of two), so every float operation the kernels
// perform is exact and the incremental sweep provably makes the same
// decisions as the reference sweep.
func dyadicInstance(t testing.TB, rng *rand.Rand, m, n, k int) *Matrix {
	t.Helper()
	return aggInstance(t, randClusterings(rng, m, n, k)...)
}

func equalLabelSlices(a, b partition.Labels) bool {
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

// wideInit returns a shuffled labeling into pairs: n/2 clusters, more than
// tableWidthFor(n) once n ≥ 130, so LOCALSEARCH starts in rebuild mode.
func wideInit(t testing.TB, rng *rand.Rand, inst Instance) partition.Labels {
	t.Helper()
	n := inst.N()
	init := make(partition.Labels, n)
	for i, v := range rng.Perm(n) {
		init[v] = i / 2
	}
	if k := newLSKernel(inst, init.Normalize(), lsRefreshEvery); k.growing || len(k.live) <= k.tableWidth {
		t.Fatalf("n=%d: pairs Init does not start in rebuild mode", n)
	}
	return init
}

// TestLocalSearchIncrementalMatchesReferenceExact: on exact-arithmetic
// (dyadic) instances the incremental kernel must reproduce the reference
// sweep's labels identically — from singletons, from a random Init and from
// a wide Init — and the costs must agree to 1e-9. The random trials stay
// under tableWidthFor's floor of 64 objects, so they start in table mode;
// the singleton starts at n = 90 and 300 run growing mode first, and the
// pairs Inits at n ≥ 130 run rebuild mode first.
func TestLocalSearchIncrementalMatchesReferenceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(name string, inst *Matrix, init partition.Labels) {
		t.Helper()
		want := localSearchReference(inst, LocalSearchOptions{Init: init})
		got := LocalSearch(inst, LocalSearchOptions{Init: init})
		if !equalLabelSlices(got, want) {
			t.Fatalf("%s: incremental %v != reference %v", name, got, want)
		}
		if gc, wc := Cost(inst, got), Cost(inst, want); math.Abs(gc-wc) > 1e-9 {
			t.Fatalf("%s: incremental cost %v, reference cost %v", name, gc, wc)
		}
	}
	for trial := 0; trial < 25; trial++ {
		m := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		n := 2 + rng.Intn(60)
		inst := dyadicInstance(t, rng, m, n, 1+rng.Intn(5))
		var init partition.Labels
		if trial%2 == 1 {
			init = make(partition.Labels, n)
			for i := range init {
				init[i] = rng.Intn(4)
			}
		}
		check(fmt.Sprintf("trial %d (m=%d n=%d)", trial, m, n), inst, init)
	}
	grow := rand.New(rand.NewSource(43))
	for _, n := range []int{2, 37, 90, 300} {
		check(fmt.Sprintf("singletons n=%d", n), dyadicInstance(t, grow, 4, n, 1+grow.Intn(4)), nil)
	}
	wide := rand.New(rand.NewSource(45))
	for _, tc := range []struct{ m, n int }{{2, 130}, {8, 131}, {4, 200}, {16, 260}} {
		inst := dyadicInstance(t, wide, tc.m, tc.n, 2+wide.Intn(6))
		check(fmt.Sprintf("pairs m=%d n=%d", tc.m, tc.n), inst, wideInit(t, wide, inst))
	}
}

// TestLocalSearchIncrementalMatchesReferenceContinuous: on continuous random
// matrices (fixed seeds, deterministic) the maintained table drifts by a few
// ulps from the reference's fresh sums; decision margins dwarf that, so the
// labels still match and costs agree to 1e-9.
func TestLocalSearchIncrementalMatchesReferenceContinuous(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := randomMatrix(70, 200+seed)
		want := localSearchReference(m, LocalSearchOptions{})
		got := LocalSearch(m, LocalSearchOptions{})
		if !equalLabelSlices(got, want) {
			t.Fatalf("seed %d: incremental %v != reference %v", seed, got, want)
		}
		if gc, wc := Cost(m, got), Cost(m, want); math.Abs(gc-wc) > 1e-9 {
			t.Fatalf("seed %d: incremental cost %v, reference cost %v", seed, gc, wc)
		}
	}
}

// TestLocalSearchMoveCostMonotonic: replaying the kernel's move stream must
// show a strictly improving objective — each applied move lowers the true
// cost (recomputed from scratch) by more than zero, so the per-move cost is
// monotonically non-increasing end to end.
func TestLocalSearchMoveCostMonotonic(t *testing.T) {
	cases := []struct {
		name string
		inst *Matrix
	}{
		{"dyadic", dyadicInstance(t, rand.New(rand.NewSource(47)), 8, 48, 4)},
		{"continuous", randomMatrix(48, 301)},
	}
	for _, tc := range cases {
		labels := partition.Singletons(tc.inst.N())
		prev := Cost(tc.inst, labels)
		moveCount := 0
		opts := LocalSearchOptions{
			onMove: func(v, from, to int) {
				labels[v] = to
				c := Cost(tc.inst, labels)
				if c > prev+1e-9 {
					t.Fatalf("%s move %d (obj %d: %d->%d): cost rose %v -> %v",
						tc.name, moveCount, v, from, to, prev, c)
				}
				prev = c
				moveCount++
			},
		}
		got := LocalSearch(tc.inst, opts)
		if moveCount == 0 {
			t.Fatalf("%s: no moves observed", tc.name)
		}
		if gc := Cost(tc.inst, got); math.Abs(gc-prev) > 1e-9 {
			t.Fatalf("%s: replayed cost %v != final cost %v", tc.name, prev, gc)
		}
	}
}

// TestLocalSearchRefreshGuard: forcing an exact column rebuild after every
// delta (refreshEvery 1) must not change the labels, and the refresh counter
// must show the rebuilds happened.
func TestLocalSearchRefreshGuard(t *testing.T) {
	inst := randomMatrix(60, 57)
	want := LocalSearch(inst, LocalSearchOptions{})
	rec := obs.New()
	got := LocalSearch(inst, LocalSearchOptions{refreshEvery: 1, Recorder: rec})
	if !equalLabelSlices(got, want) {
		t.Fatalf("refreshEvery=1 labels %v != default %v", got, want)
	}
	c := rec.Counters()
	if c["localsearch.refreshes"] <= 0 {
		t.Errorf("localsearch.refreshes = %d, want > 0 with refreshEvery=1", c["localsearch.refreshes"])
	}
	if c["localsearch.moves"] <= 0 || c["localsearch.delta_updates"] <= 0 {
		t.Errorf("moves=%d delta_updates=%d, want both > 0", c["localsearch.moves"], c["localsearch.delta_updates"])
	}
}

// TestLocalSearchIncrementalCounters pins the counter relationship: every
// table-mode move costs 2(n−1) delta updates.
func TestLocalSearchIncrementalCounters(t *testing.T) {
	inst := dyadicInstance(t, rand.New(rand.NewSource(53)), 4, 50, 3)
	n := inst.N()

	rec := obs.New()
	LocalSearch(inst, LocalSearchOptions{Recorder: rec})
	c := rec.Counters()
	if want := c["localsearch.moves"] * int64(2*(n-1)); c["localsearch.delta_updates"] != want {
		t.Errorf("delta_updates = %d, want moves*2(n-1) = %d", c["localsearch.delta_updates"], want)
	}
}

// TestLocalSearchReferenceStillLocalOptimum keeps the reference sweep
// honest: it remains a correct LOCALSEARCH (no single move can improve its
// output), since the incremental kernel's equivalence is judged against it.
func TestLocalSearchReferenceStillLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(8)
		inst := dyadicInstance(t, rng, 4, n, 1+rng.Intn(4))
		labels := localSearchReference(inst, LocalSearchOptions{})
		base := Cost(inst, labels)
		for v := 0; v < n; v++ {
			orig := labels[v]
			for target := 0; target <= labels.K(); target++ {
				labels[v] = target
				if c := Cost(inst, labels); c < base-1e-6 {
					t.Errorf("trial %d: moving %d to %d improves %v -> %v", trial, v, target, base, c)
				}
			}
			labels[v] = orig
		}
	}
}

// FuzzLocalSearchIncremental drives the incremental kernel against the
// reference sweep on fuzzer-chosen exact (dyadic) instances: identical
// labels, costs within 1e-9. nRaw ≥ 128 selects a pairs Init at
// n = 130..193, which starts in rebuild mode.
func FuzzLocalSearchIncremental(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(2))
	f.Add(int64(2), uint8(40), uint8(0))
	f.Add(int64(3), uint8(25), uint8(3))
	f.Add(int64(4), uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mExp uint8) {
		n := 1 + int(nRaw)%64
		if nRaw >= 128 {
			n += 129
		}
		m := 1 << (int(mExp) % 5) // 1, 2, 4, 8, 16 clusterings: dyadic distances
		rng := rand.New(rand.NewSource(seed))
		inst := dyadicInstance(t, rng, m, n, 1+rng.Intn(5))
		var init partition.Labels
		switch {
		case nRaw >= 128:
			init = wideInit(t, rng, inst)
		case seed%2 == 0:
			init = make(partition.Labels, n)
			for i := range init {
				init[i] = rng.Intn(3)
			}
		}
		want := localSearchReference(inst, LocalSearchOptions{Init: init})
		got := LocalSearch(inst, LocalSearchOptions{Init: init})
		if !equalLabelSlices(got, want) {
			t.Fatalf("n=%d m=%d: incremental %v != reference %v", n, m, got, want)
		}
		if gc, wc := Cost(inst, got), Cost(inst, want); math.Abs(gc-wc) > 1e-9 {
			t.Fatalf("costs differ: %v vs %v", gc, wc)
		}
	})
}

// BenchmarkLocalSearch runs LOCALSEARCH from singletons on a 2,000-object
// dyadic instance — m = 16 clusterings, each a copy of 8 planted groups with
// 10% of labels redrawn, the paper's k ≪ n shape — with the O(n²)-per-sweep
// reference sweep alongside for comparison. Every run is checked against
// the reference labels, so a single pass under bench-short doubles as the
// n = 2,000 equivalence gate on this shape.
func BenchmarkLocalSearch(b *testing.B) {
	const n, m, k = 2000, 16, 8
	rng := rand.New(rand.NewSource(1))
	inputs := make([]partition.Labels, m)
	for ci := range inputs {
		c := make(partition.Labels, n)
		for i := range c {
			if rng.Float64() < 0.1 {
				c[i] = rng.Intn(k + 2)
			} else {
				c[i] = i % k
			}
		}
		inputs[ci] = c
	}
	mx := aggInstance(b, inputs...)
	want := localSearchReference(mx, LocalSearchOptions{})
	for _, bc := range []struct {
		name string
		run  func(Instance, LocalSearchOptions) partition.Labels
	}{
		{"new", LocalSearch},
		{"reference", localSearchReference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := bc.run(mx, LocalSearchOptions{}); !equalLabelSlices(got, want) {
					b.Fatal("labels diverge from the reference sweep")
				}
			}
			b.ReportMetric(float64(want.K()), "clusters")
		})
	}
}
