package core

import (
	"math/rand"
	"runtime"
	"testing"

	"clusteragg/internal/partition"
)

// pinAllocs asserts the steady-state allocation count of f. Parallel tests
// and AllocsPerRun don't mix (other goroutines' allocations leak into the
// count), so these tests stay serial.
func pinAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(50, f); got > want {
		t.Errorf("%s: %v allocs/op, want ≤ %v", name, got, want)
	}
}

// TestKernelDistAllocs pins the kernel's per-pair and per-row distance
// paths at zero steady-state allocations: Dist, DistRowTo into a caller
// buffer, and histogram affinities into a caller buffer. These run once
// per object inside the assignment loops, so any allocation here scales
// with n.
func TestKernelDistAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(977))
	p := randMixedProblem(t, rng, 512, 4, 0.1, ProblemOptions{})

	pinAllocs(t, "Dist", 0, func() {
		_ = p.Dist(3, 200)
	})

	targets := make([]int, 64)
	for i := range targets {
		targets[i] = i * 7
	}
	dst := make([]float64, len(targets))
	pinAllocs(t, "DistRowTo", 0, func() {
		p.DistRowTo(9, targets, dst)
	})

	members := [][]int{targets[:20], targets[20:45], targets[45:]}
	hist := p.buildColabelHist(members)
	sizes := clusterSizes(members)
	aff := make([]float64, len(members))
	pinAllocs(t, "affinities", 0, func() {
		_ = affinitiesW(hist, p.lab8, 11, sizes, aff)
	})
}

// TestAssignMemoAllocs pins the twin memo's per-object steady state at
// zero allocations: one lookup of the object's label row plus, on a miss,
// one store. The table itself is allocated once per assignment stripe.
func TestAssignMemoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(983))
	p, err := NewProblem(twinInputs(rng, 512, 4, 3, 0.1), ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	memo := newTwinMemo(p.n)
	v := 0
	pinAllocs(t, "memo lookup+store", 0, func() {
		if slot, _, hit := memoFind(&memo, p.lab8, p.m, v); !hit {
			memo.store(slot, v, int32(v%5)-1)
		}
		v = (v + 1) % p.n
	})
}

// TestPackedUnpackAllocs pins the packed column accessor: unpacking one
// clustering's labels out of the packed block into a caller buffer
// allocates nothing, so materialization reads every clustering through one
// scratch column.
func TestPackedUnpackAllocs(t *testing.T) {
	b := NewPackedColumns(256, 3)
	col := make([]int, 256)
	for ci := 0; ci < 3; ci++ {
		for i := range col {
			if i%17 == 0 {
				col[i] = partition.Missing
			} else {
				col[i] = (i + ci) % 9
			}
		}
		if err := b.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblemPacked(pc, ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make(partition.Labels, 256)
	pinAllocs(t, "column", 0, func() {
		p.column(1, dst)
	})
}

// The pins the Sample allocation tests hold one call to, in bytes per
// object: the figure measured plus 10% headroom.
const (
	// sampleDriverBytesPerObject: 8.94 bytes measured without the
	// singleton recluster.
	sampleDriverBytesPerObject = 9.9
	// sampleReclusterBytesPerObject: 11.29 bytes measured with it.
	sampleReclusterBytesPerObject = 12.4
)

// sampleBytesPerObject returns the bytes one Sample call allocates per
// object on the huge-ladder recipe (m = 6, 32 planted groups, uint8
// labels) at n = 2¹⁸, on one worker so the stripe layout is fixed.
func sampleBytesPerObject(t *testing.T, recluster bool) float64 {
	const n = 1 << 18
	p := benchProblemPacked(t, n, 6, 32)
	run := func() {
		if _, err := p.Sample(MethodFurthest, AggregateOptions{Workers: 1}, SamplingOptions{
			Rand: rand.New(rand.NewSource(7)), noSingletonRecluster: !recluster,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the kernel cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestSampleDriverAllocs pins Sample's bytes per object with the singleton
// recluster off. What is left that scales with n is the 8-byte output
// label per object; the rest is the exact core on the sample, the
// histograms and one twin memo. An n-sized Perm for the sample draw, or a
// renumbering that copies the labels or keeps a table entry per
// provisional label, adds 4–8 bytes per object and fails the pin.
func TestSampleDriverAllocs(t *testing.T) {
	if got := sampleBytesPerObject(t, false); got > sampleDriverBytesPerObject {
		t.Errorf("Sample allocates %.2f bytes per object, want ≤ %v", got, sampleDriverBytesPerObject)
	}
}

// TestSampleReclusterAllocs pins Sample's bytes per object with the
// singleton recluster on. The recluster gathers a few thousand singletons
// and aggregates them on their sub-problem's label kernel; a condensed
// distance matrix over them adds about 230 bytes per object here and
// fails the pin.
func TestSampleReclusterAllocs(t *testing.T) {
	if got := sampleBytesPerObject(t, true); got > sampleReclusterBytesPerObject {
		t.Errorf("Sample allocates %.2f bytes per object, want ≤ %v", got, sampleReclusterBytesPerObject)
	}
}
