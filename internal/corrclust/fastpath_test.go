package corrclust

import (
	"math"
	"math/rand"
	"testing"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// opaque hides a Matrix behind a plain Instance so the generic code paths
// run; it returns the exact same distances, making fast-vs-generic output
// comparisons meaningful to the bit.
type opaque struct{ m *Matrix }

func (o opaque) N() int                { return o.m.N() }
func (o opaque) Dist(u, v int) float64 { return o.m.Dist(u, v) }

// rowOracle exposes a Matrix only through Dist and DistRowTo, the shape of
// the core package's matrix-free label kernel, so the RowDistancer paths run.
type rowOracle struct{ m *Matrix }

func (r rowOracle) N() int                { return r.m.N() }
func (r rowOracle) Dist(u, v int) float64 { return r.m.Dist(u, v) }
func (r rowOracle) DistRowTo(u int, targets []int, dst []float64) {
	for j, v := range targets {
		dst[j] = r.m.Dist(u, v)
	}
}

type view struct {
	name string
	inst Instance
}

// views hides the same matrix behind the three shapes the row reader
// distinguishes: contiguous storage, a bulk row oracle, and a plain Instance.
func views(m *Matrix) []view {
	return []view{{"matrix", m}, {"rows", rowOracle{m}}, {"opaque", opaque{m}}}
}

// randomMatrix draws a dense instance with distances clustered around a few
// planted groups so the algorithms do non-trivial work.
func randomMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n)
	group := make([]int, n)
	for i := range group {
		group[i] = rng.Intn(4)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			var x float64
			if group[u] == group[v] {
				x = 0.3 * rng.Float64()
			} else {
				x = 0.5 + 0.5*rng.Float64()
			}
			m.Set(u, v, x)
		}
	}
	return m
}

func TestRowMatchesDist(t *testing.T) {
	m := randomMatrix(23, 1)
	for u := 0; u < m.N(); u++ {
		row := m.Row(u)
		if len(row) != m.N()-u-1 {
			t.Fatalf("Row(%d) has %d entries, want %d", u, len(row), m.N()-u-1)
		}
		for j, x := range row {
			if x != m.Dist(u, u+1+j) {
				t.Fatalf("Row(%d)[%d] = %v, Dist = %v", u, j, x, m.Dist(u, u+1+j))
			}
		}
	}
}

func TestRowToMatchesDist(t *testing.T) {
	m := randomMatrix(23, 2)
	dst := make([]float64, m.N())
	for u := 0; u < m.N(); u++ {
		row := m.RowTo(u, dst)
		if len(row) != m.N() {
			t.Fatalf("RowTo(%d) has %d entries, want %d", u, len(row), m.N())
		}
		for v, x := range row {
			if x != m.Dist(u, v) {
				t.Fatalf("RowTo(%d)[%d] = %v, Dist = %v", u, v, x, m.Dist(u, v))
			}
		}
	}
}

// TestRowAliasesStorage: Row returns the live storage, so writes through it
// are visible to Dist (the materialization kernel depends on this).
func TestRowAliasesStorage(t *testing.T) {
	m := NewMatrix(5)
	m.Row(1)[2] = 0.75 // pair {1, 4}
	if got := m.Dist(1, 4); got != 0.75 {
		t.Fatalf("Dist(1,4) = %v after writing Row(1)[2], want 0.75", got)
	}
}

type viewCheck struct {
	name string
	run  func(Instance) []float64
}

// viewChecks lists every row-reader consumer as a function from an instance
// to the numbers it produces (labels widened to float64), so one comparison
// covers scalars, matrices and partitions alike.
func viewChecks(t *testing.T, labels partition.Labels) []viewCheck {
	floats := func(l partition.Labels, extra ...float64) []float64 {
		out := make([]float64, 0, len(l)+len(extra))
		for _, c := range l {
			out = append(out, float64(c))
		}
		return append(out, extra...)
	}
	return []viewCheck{
		{"cost", func(in Instance) []float64 { return []float64{Cost(in, labels)} }},
		{"lowerbound", func(in Instance) []float64 { return []float64{LowerBound(in)} }},
		{"materialize", func(in Instance) []float64 { return MatrixFromInstance(in).data }},
		{"localsearch", func(in Instance) []float64 { return floats(LocalSearch(in, LocalSearchOptions{})) }},
		{"balls", func(in Instance) []float64 {
			l, err := Balls(in, RecommendedBallsAlpha)
			if err != nil {
				t.Fatal(err)
			}
			return floats(l)
		}},
		{"furthest", func(in Instance) []float64 { return floats(Furthest(in)) }},
		{"furthest-k3", func(in Instance) []float64 {
			l, c := FurthestWithOptions(in, FurthestOptions{K: 3})
			return floats(l, c)
		}},
		{"furthest-parallel", func(in Instance) []float64 {
			l, c := furthest(in, FurthestOptions{Workers: 3}, 0)
			return floats(l, c)
		}},
		{"agglomerative", func(in Instance) []float64 { return floats(Agglomerative(in)) }},
		{"agglomerative-k4", func(in Instance) []float64 { return floats(AgglomerativeWithOptions(in, AgglomerativeOptions{K: 4})) }},
	}
}

// TestFastPathsBitIdentical runs every row-reader consumer on a Matrix, on
// the same distances behind a RowDistancer, and behind a plain Instance,
// demanding bit-identical output: the paths must only change how the same
// numbers are read.
func TestFastPathsBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := randomMatrix(60, 10+seed)
		rng := rand.New(rand.NewSource(seed))
		labels := make(partition.Labels, m.N())
		for i := range labels {
			labels[i] = rng.Intn(5)
		}
		vs := views(m)
		for _, c := range viewChecks(t, labels) {
			want := c.run(vs[0].inst)
			for _, v := range vs[1:] {
				got := c.run(v.inst)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: %s gave %d values, matrix %d", seed, c.name, v.name, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("seed %d %s: value %d = %v on %s, %v on matrix", seed, c.name, i, got[i], v.name, want[i])
					}
				}
			}
		}
	}
}

// TestFastPathProbeChargeEquivalence: the bulk charges of the matrix and
// row paths must equal the per-call counts of the generic path, so
// dist_probes totals mean the same thing regardless of which path ran.
func TestFastPathProbeChargeEquivalence(t *testing.T) {
	m := randomMatrix(40, 3)
	count := func(in Instance, run func(Instance) []float64) int64 {
		rec := obs.New()
		run(obs.Count(in, rec.Counter("probes")))
		return rec.Counters()["probes"]
	}
	vs := views(m)
	for _, c := range viewChecks(t, partition.Singletons(m.N())) {
		want := count(vs[0].inst, c.run)
		if want == 0 {
			t.Errorf("%s: zero probes charged", c.name)
		}
		for _, v := range vs[1:] {
			if got := count(v.inst, c.run); got != want {
				t.Errorf("%s: %d probes charged on the %s path, %d on the matrix path", c.name, got, v.name, want)
			}
		}
	}
}

// TestMatrixFastUnwrapsCountingLayers: newRowReader must see through stacked
// counting wrappers to a matrix or a row oracle and charge each layer, and
// must leave a plain Instance on the per-pair path, where the layers count
// calls themselves.
func TestMatrixFastUnwrapsCountingLayers(t *testing.T) {
	m := randomMatrix(10, 4)
	for _, v := range views(m) {
		rec := obs.New()
		outer := obs.Count(obs.Count(v.inst, rec.Counter("inner")), rec.Counter("outer"))
		r := newRowReader(outer)
		want := int64(7)
		switch v.name {
		case "matrix":
			if r.mx != m || r.rd != nil {
				t.Fatalf("matrix: reader did not unwrap to the backing matrix")
			}
		case "rows":
			if r.rd == nil || r.mx != nil {
				t.Fatalf("rows: reader did not unwrap to the row oracle")
			}
		default:
			if r.mx != nil || r.rd != nil {
				t.Fatalf("%s: reader invented a bulk path", v.name)
			}
			want = 0
		}
		r.charge(7)
		for _, layer := range []string{"inner", "outer"} {
			if got := rec.Counters()[layer]; got != want {
				t.Errorf("%s: %s counter = %d after charge(7), want %d", v.name, layer, got, want)
			}
		}
	}
}

// TestRowReaderScanAllocs pins the allocations of the O(n²) pair scans:
// none on a matrix, whose row tails alias storage, and a constant number on
// a row oracle (the tail buffer and the identity targets), independent of n.
func TestRowReaderScanAllocs(t *testing.T) {
	rowAllocs := map[string]float64{}
	for _, n := range []int{50, 400} {
		m := randomMatrix(n, 5)
		labels := partition.Singletons(n)
		for _, v := range views(m)[:2] {
			inst := v.inst
			for name, run := range map[string]func(){
				"Cost":       func() { Cost(inst, labels) },
				"LowerBound": func() { LowerBound(inst) },
			} {
				got := testing.AllocsPerRun(5, run)
				if v.name == "matrix" {
					if got != 0 {
						t.Errorf("n=%d %s on a matrix: %v allocations, want 0", n, name, got)
					}
					continue
				}
				if prev, ok := rowAllocs[name]; ok && got != prev {
					t.Errorf("%s on a row oracle: %v allocations at n=%d, %v at n=50", name, got, n, prev)
				}
				if got > 2 {
					t.Errorf("n=%d %s on a row oracle: %v allocations, want at most 2", n, name, got)
				}
				rowAllocs[name] = got
			}
		}
	}
}
