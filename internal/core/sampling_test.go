package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// plantedProblem builds m noisy copies of a planted clustering with kTrue
// equal-size clusters over n objects: each copy reassigns a fraction noise
// of the objects to random clusters.
func plantedProblem(t testing.TB, rng *rand.Rand, n, kTrue, m int, noise float64) (*Problem, partition.Labels) {
	t.Helper()
	truth := make(partition.Labels, n)
	for i := range truth {
		truth[i] = i % kTrue
	}
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := truth.Clone()
		for j := range c {
			if rng.Float64() < noise {
				c[j] = rng.Intn(kTrue)
			}
		}
		cs[i] = c
	}
	p, err := NewProblem(cs, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, truth
}

// twinInputs draws a duplicate-heavy instance: m noisy copies of a planted
// clustering over k labels, each label reassigned at random with
// probability 0.2 and missing with probability pMiss. With small k and m
// most label rows repeat many times — the twins the assignment pass's memo
// decides once.
func twinInputs(rng *rand.Rand, n, m, k int, pMiss float64) []partition.Labels {
	cs := make([]partition.Labels, m)
	for i := range cs {
		c := make(partition.Labels, n)
		for j := range c {
			switch {
			case rng.Float64() < pMiss:
				c[j] = partition.Missing
			case rng.Float64() < 0.2:
				c[j] = rng.Intn(k)
			default:
				c[j] = j % k
			}
		}
		cs[i] = c
	}
	return cs
}

func TestSampleValidOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	p, _ := plantedProblem(t, rng, 300, 4, 7, 0.15)
	for _, method := range []Method{MethodAgglomerative, MethodFurthest, MethodBalls} {
		labels, err := p.Sample(method, AggregateOptions{}, SamplingOptions{
			SampleSize: 60,
			Rand:       rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(labels) != p.N() {
			t.Fatalf("%v: %d labels, want %d", method, len(labels), p.N())
		}
		if err := labels.Validate(); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for i, v := range labels {
			if v == partition.Missing {
				t.Fatalf("%v: object %d unassigned", method, i)
			}
		}
		if !labels.IsNormalized() {
			t.Fatalf("%v: labels not normalized", method)
		}
	}
}

func TestSampleRecoversPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	p, truth := plantedProblem(t, rng, 400, 4, 9, 0.1)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 80,
		Rand:       rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := partition.RandIndex(labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ri < 0.95 {
		t.Errorf("sampled aggregation Rand index %v, want >= 0.95 (k found %d)", ri, labels.K())
	}
}

func TestSampleCloseToFullAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	p, _ := plantedProblem(t, rng, 250, 3, 5, 0.1)
	full, err := p.Aggregate(MethodAgglomerative, AggregateOptions{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		SampleSize: 70,
		Rand:       rand.New(rand.NewSource(13)),
	})
	if err != nil {
		t.Fatal(err)
	}
	fullD, sampD := p.Disagreement(full), p.Disagreement(sampled)
	if sampD > 1.25*fullD {
		t.Errorf("sampled disagreement %v more than 25%% above full %v", sampD, fullD)
	}
}

func TestSampleSizeLargerThanNFallsBack(t *testing.T) {
	p := figure1Problem(t)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{SampleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Disagreement(labels); d != 5 {
		t.Errorf("fallback aggregation disagreement %v, want 5", d)
	}
}

func TestSampleNegativeSize(t *testing.T) {
	p := figure1Problem(t)
	if _, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{SampleSize: -1}); !errors.Is(err, ErrNegativeOption) {
		t.Errorf("negative sample size: error %v, want ErrNegativeOption", err)
	}
}

// TestNegativeKRejected: every entry point that takes AggregateOptions
// rejects K < 0, which FURTHEST and AGGLOMERATIVE would otherwise read two
// different ways.
func TestNegativeKRejected(t *testing.T) {
	checkNegativeRejected(t, AggregateOptions{K: -3})
}

// TestNegativeWorkersRejected: a negative Workers is rejected the same way
// instead of silently running on GOMAXPROCS.
func TestNegativeWorkersRejected(t *testing.T) {
	checkNegativeRejected(t, AggregateOptions{Workers: -3})
}

// checkNegativeRejected requires Aggregate, Sample and BestOf to reject
// opts with ErrNegativeOption.
func checkNegativeRejected(t *testing.T, opts AggregateOptions) {
	t.Helper()
	p := figure1Problem(t)
	for _, m := range []Method{MethodAgglomerative, MethodFurthest} {
		if _, err := p.Aggregate(m, opts); !errors.Is(err, ErrNegativeOption) {
			t.Errorf("Aggregate %v: error %v, want ErrNegativeOption", m, err)
		}
		if _, err := p.Sample(m, opts, SamplingOptions{SampleSize: 2}); !errors.Is(err, ErrNegativeOption) {
			t.Errorf("Sample %v: error %v, want ErrNegativeOption", m, err)
		}
	}
	if _, _, err := p.BestOf(nil, opts); !errors.Is(err, ErrNegativeOption) {
		t.Errorf("BestOf: error %v, want ErrNegativeOption", err)
	}
}

func TestSampleDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	p, _ := plantedProblem(t, rng, 200, 3, 5, 0.2)
	a, err := p.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
		SampleSize: 50, Rand: rand.New(rand.NewSource(21)),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Sample(MethodFurthest, AggregateOptions{}, SamplingOptions{
		SampleSize: 50, Rand: rand.New(rand.NewSource(21)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different clusterings at %d", i)
		}
	}
}

func TestSampleNoSingletonRecluster(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	p, _ := plantedProblem(t, rng, 150, 3, 5, 0.3)
	labels, err := p.Sample(MethodBalls, AggregateOptions{}, SamplingOptions{
		SampleSize:           30,
		Rand:                 rand.New(rand.NewSource(23)),
		noSingletonRecluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != p.N() {
		t.Fatalf("%d labels, want %d", len(labels), p.N())
	}
}

// TestSampleIgnoresMaterialize: Sample runs its exact core and singleton
// recluster on the label kernel whatever Materialize says, so the option
// builds no matrix and leaves the labels as they are.
func TestSampleIgnoresMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	p, _ := plantedProblem(t, rng, 600, 4, 6, 0.35)
	run := func(materialize bool) (partition.Labels, map[string]int64) {
		rec := obs.New()
		labels, err := p.Sample(MethodFurthest, AggregateOptions{Materialize: materialize, Recorder: rec},
			SamplingOptions{SampleSize: 60, Rand: rand.New(rand.NewSource(29))})
		if err != nil {
			t.Fatal(err)
		}
		return labels, rec.Counters()
	}
	want, _ := run(false)
	got, counters := run(true)
	if !slices.Equal(got, want) {
		t.Errorf("Materialize changed Sample's labels:\n got %v\nwant %v", got, want)
	}
	if counters["sample.recluster.objects"] < 2 {
		t.Fatalf("recluster gathered %d objects; the test needs a recluster", counters["sample.recluster.objects"])
	}
	for name := range counters {
		if strings.HasPrefix(name, "materialize.") {
			t.Errorf("Sample with Materialize recorded %s: a matrix was built", name)
		}
	}
}

// TestPermPrefixMatchesPerm: the O(s) sample draw must return exactly
// rand.Perm(n)[:s] and leave the source where Perm leaves it, since the
// recursive recluster Sample draws from the same source next.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000, 100_000} {
		for _, s := range []int{0, 1, n / 2, n - 1, n} {
			if s < 0 || s > n {
				continue
			}
			for seed := int64(1); seed <= 5; seed++ {
				want := rand.New(rand.NewSource(seed))
				got := rand.New(rand.NewSource(seed))
				wantPrefix := want.Perm(n)[:s]
				prefix := permPrefix(got, n, s)
				if len(prefix) != s {
					t.Fatalf("n=%d s=%d seed=%d: prefix length %d", n, s, seed, len(prefix))
				}
				for i, v := range wantPrefix {
					if prefix[i] != v {
						t.Fatalf("n=%d s=%d seed=%d: prefix[%d] = %d, want %d", n, s, seed, i, prefix[i], v)
					}
				}
				for d := 0; d < 3; d++ {
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("n=%d s=%d seed=%d: draw %d after the prefix is %d, want %d", n, s, seed, d, g, w)
					}
				}
			}
		}
	}
}

// TestRenumberMatchesNormalize: Sample's in-place renumbering must equal
// partition.Labels.Normalize on the two labelings it sees — the
// provisional one (sample clusters below k, a fresh singleton k+v per
// object, bound k) and the one after a recluster splice (every singleton
// moved to k + its recluster label, bound k + the recluster's k).
func TestRenumberMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(12)
		pFresh := rng.Float64()
		labels := make(partition.Labels, n)
		for v := range labels {
			if rng.Float64() < pFresh {
				labels[v] = k + v
			} else {
				labels[v] = rng.Intn(k)
			}
		}
		check := func(what string, labels partition.Labels, bound int) {
			t.Helper()
			want := labels.Normalize()
			got := labels.Clone()
			renumber(got, bound)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, %s: renumber %v, want %v (input %v, bound %d)", trial, what, got, want, labels, bound)
			}
		}
		check("provisional", labels, k)

		// The splice: singletons are the fresh objects and the members of
		// one-object sample clusters.
		counts := make([]int, k)
		for _, c := range labels {
			if c < k {
				counts[c]++
			}
		}
		subK := 1 + rng.Intn(8)
		spliced := labels.Clone()
		bound := k
		for v, c := range labels {
			if c >= k || counts[c] == 1 {
				spliced[v] = k + rng.Intn(subK)
				bound = max(bound, spliced[v]+1)
			}
		}
		check("spliced", spliced, bound)
	}
}

func TestAutoSampleSize(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 14}, // ceil(20*ln 2) = 14, capped at n=2 -> 2
	}
	_ = tests
	if got := autoSampleSize(1); got != 1 {
		t.Errorf("autoSampleSize(1) = %d, want 1", got)
	}
	if got := autoSampleSize(2); got != 2 {
		t.Errorf("autoSampleSize(2) = %d (capped), want 2", got)
	}
	if got := autoSampleSize(100000); got < 200 || got > 300 {
		t.Errorf("autoSampleSize(1e5) = %d, want ~230", got)
	}
	// Auto size used when SampleSize is zero.
	rng := rand.New(rand.NewSource(127))
	p, _ := plantedProblem(t, rng, 500, 3, 5, 0.1)
	labels, err := p.Sample(MethodAgglomerative, AggregateOptions{}, SamplingOptions{
		Rand: rand.New(rand.NewSource(29)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 500 {
		t.Fatalf("auto-size sample returned %d labels", len(labels))
	}
}

// TestSampleWorkersIdentical: the assignment phase stripes objects across
// workers, but every object's decision is independent of scheduling, so the
// returned clustering must be bit-identical for every worker count — on
// instances with missing values and m from 3 to 8 (non-dyadic distances at
// most m), under both missing modes and both assignment paths. Each instance is also rebuilt with its
// labels injectively widened past the uint8 packing (×300 and ×70000, both
// packed at int32): the kernel width changes no distance, so the
// clustering must not change either. The duplicate-heavy family makes most
// rows twins, so the twin memo must also hash and compare rows consistently
// at every width. The stripes' tallies, the sample.assigned and
// sample.fresh_singletons counters, must agree at every worker count too.
func TestSampleWorkersIdentical(t *testing.T) {
	for _, fam := range []struct {
		seed       int64
		trials     int
		missRate   float64
		sampleSize int
		twins      bool // duplicate-heavy rows (twinInputs, k=3, m ≤ 4)
	}{
		{seed: 127, trials: 6, missRate: 0.25, sampleSize: 60},
		{seed: 419, trials: 4, missRate: 0.2, sampleSize: 50},
		{seed: 421, trials: 4, missRate: 0.1, sampleSize: 50, twins: true},
	} {
		rng := rand.New(rand.NewSource(fam.seed))
		for trial := 0; trial < fam.trials; trial++ {
			m := 3 + rng.Intn(6)
			if fam.twins {
				m = 2 + m%3
			}
			var opts ProblemOptions
			if trial%2 == 1 {
				opts.MissingMode = MissingAverage
			}
			var p *Problem
			if fam.twins {
				var err error
				if p, err = NewProblem(twinInputs(rng, 300+rng.Intn(200), m, 3, fam.missRate), opts); err != nil {
					t.Fatal(err)
				}
			} else {
				p = randMixedProblem(t, rng, 300+rng.Intn(200), m, fam.missRate, opts)
			}
			// sample returns the labels and the assignment's tallies,
			// sample.assigned and sample.fresh_singletons.
			sample := func(p *Problem, workers int, ref bool) (partition.Labels, [2]int64) {
				rec := obs.New()
				labels, err := p.Sample(MethodAgglomerative, AggregateOptions{Workers: workers, Recorder: rec}, SamplingOptions{
					SampleSize: fam.sampleSize, Rand: rand.New(rand.NewSource(int64(trial))), assign: assignWith(ref),
				})
				if err != nil {
					t.Fatal(err)
				}
				c := rec.Counters()
				return labels, [2]int64{c["sample.assigned"], c["sample.fresh_singletons"]}
			}

			for _, ref := range []bool{false, true} {
				base, baseCounts := sample(p, 0, ref)
				if baseCounts[0]+baseCounts[1] != int64(p.n-fam.sampleSize) {
					t.Fatalf("seed %d trial %d (ref=%v): assigned+fresh = %v, want the %d unsampled objects",
						fam.seed, trial, ref, baseCounts, p.n-fam.sampleSize)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					got, counts := sample(p, workers, ref)
					if !slices.Equal(got, base) {
						t.Fatalf("seed %d trial %d (ref=%v): Workers=%d diverges from Workers=0",
							fam.seed, trial, ref, workers)
					}
					if counts != baseCounts {
						t.Fatalf("seed %d trial %d (ref=%v): Workers=%d counts (assigned, fresh) %v, Workers=0 %v",
							fam.seed, trial, ref, workers, counts, baseCounts)
					}
				}
				for _, factor := range []int{300, 70000} {
					if got, _ := sample(widenLabels(t, p, factor), 0, ref); !slices.Equal(got, base) {
						t.Fatalf("seed %d trial %d (ref=%v): labels widened by %d diverge",
							fam.seed, trial, ref, factor)
					}
				}
			}
		}
	}
}

// distinctRows returns the number of distinct label rows of p.
func distinctRows(p *Problem) int {
	switch p.width {
	case width8:
		return len(groupRows(p, p.lab8).count)
	default:
		return len(groupRows(p, p.lab32).count)
	}
}

// TestSampleAssignMemoMatchesReference: the twin memo replays one decision
// for every object with an already-decided label row, so on a
// duplicate-heavy instance the kernel pass must still reproduce the
// probing reference bit for bit at every worker count — on the histogram
// route (coin model, exact at m = 4) and on the row route
// (MissingAverage with missing values). The "full" cases shrink the memo below the
// instance's distinct-row count, so the stripes stop inserting and
// evaluate the remaining rows without it.
func TestSampleAssignMemoMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    ProblemOptions
		memoCap int // 0 keeps assignMemoCap
	}{
		{name: "histogram", opts: ProblemOptions{}},
		{name: "row", opts: ProblemOptions{MissingMode: MissingAverage}},
		{name: "histogram/full", opts: ProblemOptions{}, memoCap: 16},
		{name: "row/full", opts: ProblemOptions{MissingMode: MissingAverage}, memoCap: 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.memoCap != 0 {
				defer func(c int) { assignMemoCap = c }(assignMemoCap)
				assignMemoCap = tc.memoCap
			}
			rng := rand.New(rand.NewSource(431))
			n := 2000
			p, err := NewProblem(twinInputs(rng, n, 4, 3, 0.1), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			rows := distinctRows(p)
			if rows > n/8 {
				t.Fatalf("%d distinct rows in %d objects: not duplicate-heavy", rows, n)
			}
			if tc.memoCap != 0 && rows <= tc.memoCap/2 {
				t.Fatalf("%d distinct rows fit the %d-slot memo", rows, tc.memoCap)
			}
			if (p.average && p.anyMiss) != (tc.opts.MissingMode == MissingAverage) {
				t.Fatalf("instance does not take the %s route", tc.name)
			}
			sample := func(workers int, ref bool) partition.Labels {
				labels, err := p.Sample(MethodAgglomerative, AggregateOptions{Workers: workers}, SamplingOptions{
					SampleSize: 60, Rand: rand.New(rand.NewSource(5)), assign: assignWith(ref),
				})
				if err != nil {
					t.Fatal(err)
				}
				return labels
			}
			want := sample(0, true)
			for _, workers := range []int{0, 1, 2, 3, 8} {
				if got := sample(workers, false); !slices.Equal(got, want) {
					t.Fatalf("Workers=%d: memoized assignment diverges from the reference", workers)
				}
			}
		})
	}
}

// FuzzSampleAssignMemo decodes a small instance with forced twin rows from
// the fuzzer's bytes — up to 8 prototype rows over m ∈ {1, 2, 4, 8} inputs
// (the coin model or MissingAverage), copied onto every
// object — and asserts that SAMPLING's
// memoized kernel pass labels it exactly as the probing reference does.
// One bit of the header shrinks the memo to 4 slots, so the
// stop-inserting path is fuzzed too.
func FuzzSampleAssignMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 120, 10, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 4, 7, 200, 30, 0, 1, 1, 0, 4, 4, 2, 3, 0, 1, 2, 2})
	f.Add([]byte{1, 11, 3, 255, 5, 4, 4, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		m := []int{1, 2, 4, 8}[data[0]%4]
		var opts ProblemOptions
		if data[1]&2 != 0 {
			opts.MissingMode = MissingAverage
		}
		workers := int(data[2] % 4)
		if data[2]&4 != 0 {
			defer func(c int) { assignMemoCap = c }(assignMemoCap)
			assignMemoCap = 4
		}
		n := 40 + 2*int(data[3])
		s := 4 + int(data[4])%40
		protos := data[5:]
		nProto := min(8, max(1, len(protos)/m))
		cs := make([]partition.Labels, m)
		for i := range cs {
			cs[i] = make(partition.Labels, n)
		}
		rng := rand.New(rand.NewSource(int64(len(data))*131 + int64(data[3])))
		for v := 0; v < n; v++ {
			pr := rng.Intn(nProto)
			for i := range cs {
				l := 0
				if j := pr*m + i; j < len(protos) {
					l = int(protos[j] % 5)
				}
				if l == 4 {
					l = partition.Missing
				}
				cs[i][v] = l
			}
		}
		p, err := NewProblem(cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		sample := func(ref bool) partition.Labels {
			labels, err := p.Sample(MethodAgglomerative, AggregateOptions{Workers: workers}, SamplingOptions{
				SampleSize: s, Rand: rand.New(rand.NewSource(int64(data[4]))), assign: assignWith(ref),
			})
			if err != nil {
				t.Fatal(err)
			}
			return labels
		}
		if got, want := sample(false), sample(true); !slices.Equal(got, want) {
			t.Fatalf("memoized assignment diverges from the reference (n=%d m=%d s=%d workers=%d opts=%+v)",
				n, m, s, workers, opts)
		}
	})
}
