package corrclust

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// tiedMatrix draws an n-object instance whose distances are k/m for random
// k ∈ 0..m, so with small m most pairs tie and, for even m, many sit
// exactly on the 1/2 threshold (a third of them for m = 2).
func tiedMatrix(rng *rand.Rand, n, m int) *Matrix {
	mx := NewMatrix(n)
	for u := 0; u < n; u++ {
		row := mx.Row(u)
		for j := range row {
			row[j] = float64(rng.Intn(m+1)) / float64(m)
		}
	}
	return mx
}

// sameMergeLoss reports whether two recorders hold the same
// agglomerative.merge_loss points: equal steps and bit-equal values (the
// wall-clock stamps differ run to run).
func sameMergeLoss(a, b *obs.Recorder) bool {
	pa := a.Series("agglomerative.merge_loss").Snapshot().Points
	pb := b.Series("agglomerative.merge_loss").Snapshot().Points
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].Step != pb[i].Step || math.Float64bits(pa[i].Value) != math.Float64bits(pb[i].Value) {
			return false
		}
	}
	return true
}

// agglomerativeKs are the cluster-count requests every equivalence check
// runs: parameter-free, the extremes and past-the-end values.
func agglomerativeKs(n int) []int { return []int{0, 1, 3, n / 2, n, n + 5} }

// checkAgglomerativeMatchesReference runs AgglomerativeWithOptions at every
// K of agglomerativeKs on the matrix, an opaque Instance and a counting
// wrapper, and demands the lazy-heap reference's labels, merge count,
// distance-probe count and every merge_loss point, bit for bit.
func checkAgglomerativeMatchesReference(t testing.TB, name string, mx *Matrix) {
	t.Helper()
	n := mx.N()
	for _, k := range agglomerativeKs(n) {
		refRec := obs.New()
		want := agglomerativeReference(obs.Count(mx, refRec.Counter("agglomerative.dist_probes")),
			AgglomerativeOptions{K: k, Recorder: refRec})
		views := map[string]func(*obs.Recorder) Instance{
			"matrix":   func(*obs.Recorder) Instance { return mx },
			"opaque":   func(*obs.Recorder) Instance { return opaque{mx} },
			"counting": func(r *obs.Recorder) Instance { return obs.Count(mx, r.Counter("agglomerative.dist_probes")) },
			"counting-opaque": func(r *obs.Recorder) Instance {
				return obs.Count(opaque{mx}, r.Counter("agglomerative.dist_probes"))
			},
		}
		for view, wrap := range views {
			rec := obs.New()
			got := AgglomerativeWithOptions(wrap(rec), AgglomerativeOptions{K: k, Recorder: rec})
			if !equalLabelSlices(got, want) {
				t.Fatalf("%s n=%d K=%d %s: labels %v, reference %v", name, n, k, view, got, want)
			}
			c, rc := rec.Counters(), refRec.Counters()
			if c["agglomerative.merges"] != rc["agglomerative.merges"] {
				t.Fatalf("%s n=%d K=%d %s: %d merges, reference %d", name, n, k, view,
					c["agglomerative.merges"], rc["agglomerative.merges"])
			}
			if view == "counting" || view == "counting-opaque" {
				if c["agglomerative.dist_probes"] != rc["agglomerative.dist_probes"] {
					t.Fatalf("%s n=%d K=%d %s: %d probes, reference %d", name, n, k, view,
						c["agglomerative.dist_probes"], rc["agglomerative.dist_probes"])
				}
			}
			if !sameMergeLoss(rec, refRec) {
				t.Fatalf("%s n=%d K=%d %s: merge_loss %v, reference %v", name, n, k, view,
					rec.Series("agglomerative.merge_loss").Snapshot(), refRec.Series("agglomerative.merge_loss").Snapshot())
			}
		}
	}
}

// TestAgglomerativeMatchesReference pins the cached-neighbor loop to the
// lazy-heap reference on continuous instances (few ties), on k/m instances
// for m = 1..8 (heavy ties, where any deviation from the (avg, a, b) merge
// order changes the labels, and for even m many pairs sit exactly on the
// strict 1/2 stopping rule), on aggregation instances of m = 1..8
// clusterings (twin objects, so merged averages tie too) and on
// coin-model instances with missing labels.
func TestAgglomerativeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		checkAgglomerativeMatchesReference(t, fmt.Sprintf("continuous seed %d", seed), randomMatrix(20+10*int(seed), 700+seed))
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 64; trial++ {
		m := 1 + trial%8
		n := rng.Intn(50)
		checkAgglomerativeMatchesReference(t, fmt.Sprintf("tied m=%d", m), tiedMatrix(rng, n, m))
	}
	for trial := 0; trial < 120; trial++ {
		m := 1 + trial%8
		mx := aggInstance(t, randClusterings(rng, m, 2+rng.Intn(60), 2+rng.Intn(5))...)
		checkAgglomerativeMatchesReference(t, fmt.Sprintf("aggregation m=%d", m), mx)
	}
	for trial := 0; trial < 16; trial++ {
		m := []int{1, 2, 4, 8}[trial%4]
		mx := dyadicCoinInstance(rng, m, 2+rng.Intn(50), 1+rng.Intn(6), 0.2)
		checkAgglomerativeMatchesReference(t, fmt.Sprintf("coin m=%d", m), mx)
	}
}

// FuzzAgglomerative decodes a tied instance from the fuzzer's bytes — the
// denominator m ∈ 1..16 and a K mode from the first byte, then one byte per
// pair giving its distance (b mod (m+1))/m — and demands the lazy-heap
// reference's labels, merges, probes and merge_loss series, bit for bit.
func FuzzAgglomerative(f *testing.F) {
	f.Add([]byte{0x01, 0, 1, 2, 1, 0, 2})
	f.Add([]byte{0x13, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{0x27, 3, 4, 4, 3, 4, 4, 4, 3, 7, 0})
	f.Add([]byte{0x51, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// 21 objects at k/7, parameter-free: a merged average rounds down onto
	// the cached minimum of a row whose neighbor has a larger index, so the
	// tie must move that row's neighbor to the merged cluster.
	f.Add([]byte{0x06,
		6, 7, 0, 2, 4, 3, 0, 6, 1, 1, 2, 7, 6, 5, 1, 6, 0, 6, 0, 2, 0, 5, 2, 1, 6, 0, 6, 1, 3, 5,
		0, 7, 5, 0, 5, 6, 1, 4, 2, 4, 5, 6, 2, 0, 0, 5, 4, 3, 1, 0, 7, 1, 1, 6, 1, 6, 2, 3, 2, 0,
		3, 2, 5, 1, 0, 7, 4, 6, 2, 0, 2, 4, 4, 1, 4, 7, 2, 1, 5, 1, 0, 2, 3, 1, 6, 3, 2, 3, 6, 2,
		7, 0, 4, 2, 4, 3, 4, 3, 7, 0, 6, 7, 7, 1, 7, 2, 3, 4, 6, 4, 0, 4, 3, 1, 1, 5, 0, 2, 5, 3,
		4, 3, 4, 2, 4, 7, 1, 4, 1, 1, 7, 0, 5, 6, 3, 5, 5, 5, 7, 1, 1, 1, 0, 5, 7, 2, 5, 7, 6, 1,
		0, 1, 1, 6, 6, 2, 7, 0, 4, 2, 0, 4, 2, 3, 4, 3, 2, 1, 1, 6, 1, 6, 2, 1, 7, 1, 6, 5, 3, 4,
		2, 1, 2, 1, 1, 2, 3, 2, 1, 7, 1, 6, 6, 1, 5, 3, 2, 6, 6, 1, 5, 0, 7, 1, 0, 1, 2, 4, 3, 5})
	// 11 objects at k/11, parameter-free: a merged average rounds to below
	// the lower bound a row keeps for its vanished minimum, so the bound
	// must drop to it.
	f.Add([]byte{0x0a,
		11, 9, 1, 3, 11, 5, 9, 7, 10, 1, 7, 10, 3, 5, 5, 5, 5, 5, 2, 0, 0, 5, 9, 2, 6, 5, 7, 8,
		6, 7, 9, 4, 2, 9, 1, 11, 6, 6, 5, 2, 3, 3, 0, 7, 10, 3, 4, 7, 8, 3, 1, 0, 7, 6, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0]&15)
		body := data[1:]
		n := 0
		for (n+1)*n/2 <= len(body) && n < 60 {
			n++
		}
		mx := NewMatrix(n)
		for p := range mx.data {
			mx.data[p] = float64(int(body[p])%(m+1)) / float64(m)
		}
		k := agglomerativeKs(n)[int(data[0]>>4)%6]
		refRec, rec := obs.New(), obs.New()
		want := agglomerativeReference(obs.Count(mx, refRec.Counter("probes")), AgglomerativeOptions{K: k, Recorder: refRec})
		got := AgglomerativeWithOptions(obs.Count(mx, rec.Counter("probes")), AgglomerativeOptions{K: k, Recorder: rec})
		if !equalLabelSlices(got, want) {
			t.Fatalf("m=%d n=%d K=%d: labels %v, reference %v", m, n, k, got, want)
		}
		c, rc := rec.Counters(), refRec.Counters()
		if c["agglomerative.merges"] != rc["agglomerative.merges"] || c["probes"] != rc["probes"] {
			t.Fatalf("m=%d n=%d K=%d: counters %v, reference %v", m, n, k, c, rc)
		}
		if !sameMergeLoss(rec, refRec) {
			t.Fatalf("m=%d n=%d K=%d: merge_loss %v, reference %v", m, n, k,
				rec.Series("agglomerative.merge_loss").Snapshot(), refRec.Series("agglomerative.merge_loss").Snapshot())
		}
	})
}

// avgBetween is the average distance between the objects of two clusters.
func avgBetween(inst Instance, a, b []int) float64 {
	var sum float64
	for _, u := range a {
		for _, v := range b {
			sum += inst.Dist(u, v)
		}
	}
	return sum / float64(len(a)*len(b))
}

// TestAgglomerativeInterClusterAverage is the other half of the paper's
// stopping rule: the parameter-free run ends only when no pair of clusters
// has average distance below 1/2, so every two output clusters are at
// average distance at least 1/2 (up to float summation order).
func TestAgglomerativeInterClusterAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		inst := aggInstance(t, randClusterings(rng, 2+rng.Intn(6), n, 1+rng.Intn(5))...)
		labels := Agglomerative(inst)
		checkValidClustering(t, labels, n)
		clusters := labels.Clusters()
		for i := range clusters {
			for j := i + 1; j < len(clusters); j++ {
				if avg := avgBetween(inst, clusters[i], clusters[j]); avg < 0.5-1e-9 {
					t.Errorf("trial %d: clusters %v and %v at average distance %v < 1/2",
						trial, clusters[i], clusters[j], avg)
				}
			}
		}
	}
}

// filledMatrix is an n-object instance with every distance x.
func filledMatrix(n int, x float64) *Matrix {
	mx := NewMatrix(n)
	for p := range mx.data {
		mx.data[p] = x
	}
	return mx
}

// TestAgglomerativeDegenerate pins the contract on degenerate inputs,
// independent of how the merge loop is implemented.
func TestAgglomerativeDegenerate(t *testing.T) {
	cases := []struct {
		name string
		inst Instance
		k    int
		want partition.Labels
	}{
		{"n=0", NewMatrix(0), 0, partition.Labels{}},
		{"n=1", NewMatrix(1), 0, partition.Labels{0}},
		{"n=1 K=1", NewMatrix(1), 1, partition.Labels{0}},
		{"n=2 close", filledMatrix(2, 0.25), 0, partition.Labels{0, 0}},
		{"n=2 far", filledMatrix(2, 0.75), 0, partition.Labels{0, 1}},
		{"n=2 far K=1", filledMatrix(2, 0.75), 1, partition.Labels{0, 0}},
		{"all 0", filledMatrix(7, 0), 0, partition.Labels{0, 0, 0, 0, 0, 0, 0}},
		{"all 1/2 (strict <)", filledMatrix(7, 0.5), 0, partition.Singletons(7)},
		{"all 1 K=1", filledMatrix(7, 1), 1, partition.Labels{0, 0, 0, 0, 0, 0, 0}},
		{"K=n", filledMatrix(7, 0), 7, partition.Singletons(7)},
		{"K>n", filledMatrix(7, 0), 12, partition.Singletons(7)},
		{"negative K is parameter-free", filledMatrix(7, 0), -3, partition.Labels{0, 0, 0, 0, 0, 0, 0}},
		{"negative K far", filledMatrix(5, 0.75), -1, partition.Singletons(5)},
	}
	for _, c := range cases {
		for _, inst := range []Instance{c.inst, opaque{c.inst.(*Matrix)}} {
			if got := AgglomerativeWithOptions(inst, AgglomerativeOptions{K: c.k}); !equalLabelSlices(got, c.want) {
				t.Errorf("%s (%T): %v, want %v", c.name, inst, got, c.want)
			}
		}
	}
}

// TestAgglomerativeAllocs pins the allocation count of a whole run to a
// constant: the state is a fixed set of O(n) and O(n²) arrays, so no
// allocation may scale with the number of merges.
func TestAgglomerativeAllocs(t *testing.T) {
	mx := tiedMatrix(rand.New(rand.NewSource(3)), 300, 4)
	for _, k := range []int{0, 1} {
		if got := testing.AllocsPerRun(5, func() { AgglomerativeWithOptions(mx, AgglomerativeOptions{K: k}) }); got > 10 {
			t.Errorf("K=%d: %v allocations per run, want at most 10", k, got)
		}
	}
}

// BenchmarkAgglomerative runs parameter-free AGGLOMERATIVE on a 2,000-object
// instance with distances k/8 (heavy ties, as on categorical inputs), with
// the lazy-heap reference alongside for comparison.
func BenchmarkAgglomerative(b *testing.B) {
	mx := tiedMatrix(rand.New(rand.NewSource(1)), 2000, 8)
	for _, bc := range []struct {
		name string
		run  func(Instance, AgglomerativeOptions) partition.Labels
	}{
		{"new", AgglomerativeWithOptions},
		{"reference", agglomerativeReference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var k int
			for i := 0; i < b.N; i++ {
				k = bc.run(mx, AgglomerativeOptions{}).K()
			}
			b.ReportMetric(float64(k), "clusters")
		})
	}
}
