package corrclust

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// furthestReference is FURTHEST with the objective re-evaluated from scratch:
// after every new center it reassigns against the running nearest-center
// minimum, computes the full O(n²) Cost of the new labels, and keeps going
// while that improves. It is the oracle the incremental cost change of
// FurthestWithOptions is checked against.
func furthestReference(inst Instance, k int) (partition.Labels, float64) {
	n := inst.N()
	if n == 0 {
		return partition.Labels{}, 0
	}
	if k > n {
		k = n
	}
	best := partition.Single(n)
	bestCost := Cost(inst, best)
	if k == 1 {
		return best, bestCost
	}

	minDist := make([]float64, n)
	labels := make(partition.Labels, n)
	centers := 0
	addCenter := func(c int) {
		idx := centers
		centers++
		for v := 0; v < n; v++ {
			if d := inst.Dist(c, v); idx == 0 || d < minDist[v] {
				minDist[v] = d
				labels[v] = idx
			}
		}
	}

	// The first two centers: the furthest-apart pair, ties toward the
	// smaller u, then the smaller v.
	u0, v0, bd := 0, 0, -1.0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := inst.Dist(u, v); d > bd {
				u0, v0, bd = u, v, d
			}
		}
	}
	addCenter(u0)
	for {
		if centers == 1 {
			addCenter(v0)
		} else {
			next, nextDist := -1, -1.0
			for v := 0; v < n; v++ {
				if minDist[v] > nextDist {
					next, nextDist = v, minDist[v]
				}
			}
			if nextDist == 0 {
				break
			}
			addCenter(next)
		}

		cost := Cost(inst, labels)
		switch {
		case k == 0 && cost >= bestCost:
			return best.Normalize(), bestCost
		case cost < bestCost || k > 0:
			best, bestCost = labels.Clone(), cost
		}
		if (k > 0 && centers >= k) || centers == n {
			return best.Normalize(), bestCost
		}
	}
	return best.Normalize(), bestCost
}

// coinInstance is aggInstance for clusterings that may carry
// partition.Missing labels, under the coin model with p = ½: a clustering
// missing either object of a pair separates it with probability ½. With m a
// power of two every distance is a dyadic rational.
func coinInstance(clusterings []partition.Labels) *Matrix {
	n := len(clusterings[0])
	m := NewMatrix(n)
	for u := 0; u < n; u++ {
		row := m.Row(u)
		for j := range row {
			v := u + 1 + j
			var sep float64
			for _, c := range clusterings {
				switch {
				case c[u] == partition.Missing || c[v] == partition.Missing:
					sep += 0.5
				case c[u] != c[v]:
					sep++
				}
			}
			row[j] = sep / float64(len(clusterings))
		}
	}
	return m
}

// dyadicCoinInstance draws m clusterings of n objects with at most k
// clusters each, blanking a fraction missing of the labels.
func dyadicCoinInstance(rng *rand.Rand, m, n, k int, missing float64) *Matrix {
	cs := randClusterings(rng, m, n, k)
	for _, c := range cs {
		for i := range c {
			if rng.Float64() < missing {
				c[i] = partition.Missing
			}
		}
	}
	return coinInstance(cs)
}

// furthestWorkers are the worker counts the FURTHEST tests run at.
var furthestWorkers = []int{1, 2, 3, 8}

// checkFurthestMatchesReference runs FURTHEST with K = 0 and K = 3 on every
// given view of one instance, at every count in furthestWorkers and with
// the parallel threshold at zero, so even tiny instances take the parallel
// path. Labels must equal the reference's on the first view, and the cost
// must be within tol of it (tol = 0 demands the same float); every view
// and worker count must return the cost of the one-worker run on the
// first view, bit for bit.
func checkFurthestMatchesReference(t *testing.T, name string, tol float64, views ...Instance) {
	t.Helper()
	for _, k := range []int{0, 3} {
		want, wantCost := furthestReference(views[0], k)
		_, seqCost := furthest(views[0], FurthestOptions{K: k, Workers: 1}, 0)
		for vi, inst := range views {
			for _, w := range furthestWorkers {
				got, gotCost := furthest(inst, FurthestOptions{K: k, Workers: w}, 0)
				if !equalLabelSlices(got, want) {
					t.Fatalf("%s K=%d view %d workers=%d: labels %v, reference %v", name, k, vi, w, got, want)
				}
				if math.Abs(gotCost-wantCost) > tol {
					t.Fatalf("%s K=%d view %d workers=%d: cost %v, reference %v", name, k, vi, w, gotCost, wantCost)
				}
				if gotCost != seqCost {
					t.Fatalf("%s K=%d view %d workers=%d: cost %v, one worker %v", name, k, vi, w, gotCost, seqCost)
				}
			}
		}
	}
}

// TestFurthestIncrementalMatchesReference pins the incremental objective to
// the full-Cost oracle in two tiers. On dyadic instances (m ∈ {1, 2, 4, 8},
// with and without missing labels) every float sum is exact, so labels and
// costs must be bit-identical on the matrix, generic and row paths alike.
// On the continuous and non-dyadic instances the running cost drifts from
// the fresh sums by a few ulps: labels must still agree and costs to 1e-9.
func TestFurthestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 48; trial++ {
		m := []int{1, 2, 4, 8}[trial%4]
		missing := 0.0
		if trial%8 >= 4 {
			missing = 0.2
		}
		n := 2 + rng.Intn(60)
		mx := dyadicCoinInstance(rng, m, n, 1+rng.Intn(6), missing)
		name := fmt.Sprintf("dyadic m=%d missing=%v", m, missing)
		checkFurthestMatchesReference(t, name, 0, mx, opaque{mx}, rowOracle{mx})
	}

	for seed := int64(0); seed < 6; seed++ {
		mx := randomMatrix(70, 400+seed)
		checkFurthestMatchesReference(t, "continuous", 1e-9, mx, opaque{mx}, rowOracle{mx})
	}
	for trial := 0; trial < 12; trial++ {
		m := []int{3, 5, 6}[trial%3]
		mx := aggInstance(t, randClusterings(rng, m, 20+rng.Intn(60), 2+rng.Intn(6))...)
		checkFurthestMatchesReference(t, "non-dyadic", 1e-9, mx, opaque{mx}, rowOracle{mx})
	}
}

// TestFurthestRowPathProbes: the RowDistancer path charges the counting
// layers exactly what the generic path's Dist calls count, and parallel
// reads charge what one worker charges.
func TestFurthestRowPathProbes(t *testing.T) {
	mx := randomMatrix(50, 5)
	count := func(in Instance, workers int) int64 {
		rec := obs.New()
		furthest(obs.Count(in, rec.Counter("probes")), FurthestOptions{Workers: workers}, 0)
		return rec.Counters()["probes"]
	}
	generic := count(opaque{mx}, 1)
	if rows := count(rowOracle{mx}, 1); rows != generic {
		t.Errorf("%d probes charged on the row path, %d on the generic", rows, generic)
	}
	for _, in := range []Instance{mx, opaque{mx}, rowOracle{mx}} {
		if par := count(in, 2); par != generic {
			t.Errorf("%T: %d probes charged at Workers 2, %d at Workers 1", in, par, generic)
		}
	}
}

// FuzzFurthestIncremental decodes a small dyadic instance from the fuzzer's
// bytes — the number of clusterings, the cluster-count mode, and one label
// per (clustering, object), 0xff meaning missing — and demands the
// reference's labels and cost, bit for bit.
func FuzzFurthestIncremental(f *testing.F) {
	f.Add([]byte{0x01, 0, 1, 0, 1, 2, 2, 0, 1, 0, 1, 2, 3, 0, 1, 0, 1, 2, 2})
	f.Add([]byte{0x12, 0, 0, 1, 1, 0xff, 2, 1, 0, 1, 0, 2, 2})
	f.Add([]byte{0x23, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 1 << (data[0] & 3) // 1, 2, 4, 8 clusterings: dyadic distances
		k := int(data[0]>>2) % 4
		body := data[1:]
		n := len(body) / m
		if n == 0 {
			return
		}
		if n > 40 {
			n = 40
		}
		cs := make([]partition.Labels, m)
		for i := range cs {
			c := make(partition.Labels, n)
			for j := range c {
				if b := body[i*n+j]; b == 0xff {
					c[j] = partition.Missing
				} else {
					c[j] = int(b % 8)
				}
			}
			cs[i] = c
		}
		inst := coinInstance(cs)
		want, wantCost := furthestReference(inst, k)
		got, gotCost := FurthestWithOptions(inst, FurthestOptions{K: k})
		if !equalLabelSlices(got, want) || gotCost != wantCost {
			t.Fatalf("m=%d n=%d K=%d: (%v, %v), reference (%v, %v)", m, n, k, got, gotCost, want, wantCost)
		}
		got, gotCost = furthest(inst, FurthestOptions{K: k, Workers: 2}, 0)
		if !equalLabelSlices(got, want) || gotCost != wantCost {
			t.Fatalf("m=%d n=%d K=%d workers=2: (%v, %v), reference (%v, %v)", m, n, k, got, gotCost, want, wantCost)
		}
	})
}

// reclusterShapedMatrix mimics the singleton recluster SAMPLING hands to
// FURTHEST: m = 6 clusterings of n objects from 32 planted groups, where
// each label is noise (uniform over 34 ids) with probability ½, so few
// objects share a row and the clustering ends with hundreds of clusters.
func reclusterShapedMatrix(n int, seed int64) *Matrix {
	const m, groups = 6, 32
	rng := rand.New(rand.NewSource(seed))
	cs := make([][]uint8, m)
	for i := range cs {
		c := make([]uint8, n)
		for v := range c {
			if rng.Float64() < 0.5 {
				c[v] = uint8(rng.Intn(groups + 2))
			} else {
				c[v] = uint8(v % groups)
			}
		}
		cs[i] = c
	}
	mx := NewMatrix(n)
	for u := 0; u < n; u++ {
		row := mx.Row(u)
		for j := range row {
			sep := 0
			for _, c := range cs {
				if c[u] != c[u+1+j] {
					sep++
				}
			}
			row[j] = float64(sep) / m
		}
	}
	return mx
}

// BenchmarkFurthest runs parameter-free FURTHEST on a recluster-shaped
// instance (3,000 mostly-noise objects, m = 6) and reports the distance
// reads per run through a counting wrapper, on one worker and on
// GOMAXPROCS workers.
func BenchmarkFurthest(b *testing.B) {
	mx := reclusterShapedMatrix(3000, 1)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rec := obs.New()
			inst := obs.Count(mx, rec.Counter("probes"))
			opts := FurthestOptions{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			var k int
			for i := 0; i < b.N; i++ {
				labels, _ := FurthestWithOptions(inst, opts)
				k = labels.K()
			}
			b.ReportMetric(float64(rec.Counters()["probes"])/float64(b.N), "probes/op")
			b.ReportMetric(float64(k), "clusters")
		})
	}
}
