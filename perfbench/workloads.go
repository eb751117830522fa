package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"strconv"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/partition"
)

// input is one workload's generated data. Everything here is built from the
// seed before any timing starts; a job only ever reads it.
type input struct {
	n int
	// cols are the m input clusterings. The objective oracle reads them on
	// every workload; the generated workloads also pack them directly.
	cols []partition.Labels
	// csv, when set, is what the job ingests instead of cols (census-csv).
	csv []byte
	// refD is D(planted truth) from the oracle, the objective_ratio
	// reference on the sample-* workloads (0 elsewhere).
	refD float64
}

// workload is one named benchmark input and the job a user would run on it.
type workload struct {
	name     string
	generate func(seed int64) (*input, error)
	solve    func(p *core.Problem, opts core.AggregateOptions) (partition.Labels, error)
	// objective marks jobs that end with Disagreement + LowerBound, as the
	// CLI and AggregateCSV do. The sample-* jobs never run an O(n²) call.
	objective bool
	// racers marks the BestOf job, whose traced run also times each racer
	// alone.
	racers bool
}

// The census-csv job's constants: its row count and sample size. 1965 is
// the Census runner's rule 4000·n/32561 at n = 16000.
const (
	censusRows       = 16000
	censusSampleSize = 4000 * censusRows / dataset.SyntheticCensusRows
	mushroomRows     = 2000
)

var workloads = []*workload{
	{
		name:      "exact-mushrooms",
		generate:  genMushrooms,
		solve:     solveBestOf,
		objective: true,
		racers:    true,
	},
	{
		name:      "census-csv",
		generate:  genCensus,
		solve:     solveCensus,
		objective: true,
	},
	{
		name:     "sample-200k",
		generate: func(seed int64) (*input, error) { return genPlanted(200_000, seed) },
		solve:    solveSample,
	},
	{
		name:     "sample-3m",
		generate: func(seed int64) (*input, error) { return genPlanted(3_000_000, seed) },
		solve:    solveSample,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// solveBestOf is what `clusteragg -method bestof` runs at n ≤ 4000: the
// five paper methods raced over one materialized matrix.
func solveBestOf(p *core.Problem, opts core.AggregateOptions) (partition.Labels, error) {
	opts.Materialize = true
	labels, _, err := p.BestOf(nil, opts)
	return labels, err
}

// solveCensus is AggregateCSV's SAMPLING call with SampleSeed 0 (seed 1).
func solveCensus(p *core.Problem, opts core.AggregateOptions) (partition.Labels, error) {
	return p.Sample(core.MethodFurthest, opts, core.SamplingOptions{
		SampleSize: censusSampleSize,
		Rand:       rand.New(rand.NewSource(1)),
	})
}

// solveSample is SAMPLING over FURTHEST with default options, so the
// library picks the sample size and the shard count itself.
func solveSample(p *core.Problem, opts core.AggregateOptions) (partition.Labels, error) {
	return p.Sample(core.MethodFurthest, opts, core.SamplingOptions{})
}

// dataSeed is the generator seed of every workload's partitions. How much
// work a job does depends on the partitions themselves (how well SAMPLING's
// sample covers the groups, how large a recluster gets, how AGGLOMERATIVE's
// merges go), and between data seeds that varies severalfold, so the
// partitions are fixed at the seed the paper runners and the huge ladder
// default to. --seed instead draws a renaming of every input clustering's
// values (renameLabels, renameValues): each seed gives different input
// bytes, but the same partitions, so the same work and the same labels.
const dataSeed = 1

// renameLabels relabels each clustering by a random permutation of its
// label values; Missing stays Missing.
func renameLabels(cols []partition.Labels, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, col := range cols {
		perm := rng.Perm(maxLabel(col) + 1)
		for i, l := range col {
			if l != partition.Missing {
				col[i] = perm[l]
			}
		}
	}
}

// genMushrooms draws the Mushrooms stand-in and keeps a deterministic
// 2,000-row subsample, the recipe the Table 1-3 runners use.
func genMushrooms(seed int64) (*input, error) {
	t := dataset.SyntheticMushrooms(dataSeed)
	idx := rand.New(rand.NewSource(dataSeed)).Perm(t.N())[:mushroomRows]
	cols, err := t.Subset(idx).Clusterings()
	if err != nil {
		return nil, err
	}
	renameLabels(cols, seed)
	return &input{n: mushroomRows, cols: cols}, nil
}

// genCensus draws the Census stand-in and encodes it as the CSV a user
// would hand the CLI: header row, numeric and categorical columns, a
// trailing class column, and "?" for missing cells.
func genCensus(seed int64) (*input, error) {
	t := dataset.SyntheticCensus(dataSeed, censusRows)
	cols, err := t.Clusterings()
	if err != nil {
		return nil, err
	}
	renameValues(t, seed)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	record := make([]string, len(t.Cols)+1)
	for i, c := range t.Cols {
		record[i] = c.Name
	}
	record[len(t.Cols)] = "class"
	if err := w.Write(record); err != nil {
		return nil, err
	}
	for row := 0; row < t.N(); row++ {
		for i, c := range t.Cols {
			switch {
			case c.Kind == dataset.Categorical && c.Values[row] == dataset.MissingValue,
				c.Kind == dataset.Numeric && math.IsNaN(c.Floats[row]):
				record[i] = "?"
			case c.Kind == dataset.Categorical:
				record[i] = c.Names[c.Values[row]]
			default:
				record[i] = strconv.FormatFloat(c.Floats[row], 'g', -1, 64)
			}
		}
		record[len(t.Cols)] = t.ClassNames[t.Class[row]]
		if err := w.Write(record); err != nil {
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return &input{n: t.N(), cols: cols, csv: buf.Bytes()}, nil
}

// renameValues permutes the value names of each categorical column, which
// renames the values the CSV holds without changing any partition.
func renameValues(t *dataset.Table, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, c := range t.CategoricalColumns() {
		rng.Shuffle(len(c.Names), func(i, j int) { c.Names[i], c.Names[j] = c.Names[j], c.Names[i] })
	}
}

// The planted recipe of the huge ladder: m noisy copies of a k-group
// clustering, each label replaced by a uniform draw from k+2 values with
// probability 1/10, drawn in the same rng order as the ladder's generator.
const (
	plantedM     = 6
	plantedK     = 32
	plantedNoise = 0.1
)

func genPlanted(n int, seed int64) (*input, error) {
	rng := rand.New(rand.NewSource(dataSeed))
	truth := make(partition.Labels, n)
	for i := range truth {
		truth[i] = i % plantedK
	}
	cols := make([]partition.Labels, plantedM)
	for ci := range cols {
		col := make(partition.Labels, n)
		for i := range col {
			if rng.Float64() < plantedNoise {
				col[i] = rng.Intn(plantedK + 2)
			} else {
				col[i] = truth[i]
			}
		}
		cols[ci] = col
	}
	renameLabels(cols, seed)
	return &input{n: n, cols: cols, refD: objective(cols, truth)}, nil
}

// jobOut is one job's result plus the wall time of each layer call, timed
// from outside the library.
type jobOut struct {
	labels       partition.Labels
	problem      *core.Problem
	d, lb        float64 // Disagreement and LowerBound, when the job evaluates them
	wall         time.Duration
	read, pack   time.Duration
	solve        time.Duration
	disagreement time.Duration
	lowerBound   time.Duration
	// readAlloc and packAlloc are the heap bytes the ingest and pack calls
	// allocated.
	readAlloc, packAlloc uint64
}

// setup is the part of the job that builds the *core.Problem.
func (j *jobOut) setup() time.Duration { return j.read + j.pack }

// run executes one job on in: ingest (census-csv only), pack, solve, and
// the objective evaluation where the workload includes it.
func (w *workload) run(in *input, opts core.AggregateOptions) (*jobOut, error) {
	j := &jobOut{}
	start := time.Now()
	column := func(i int) (partition.Labels, error) { return in.cols[i], nil }
	m := len(in.cols)
	if in.csv != nil {
		a0 := heapAllocs()
		t, err := dataset.ReadCSV(bytes.NewReader(in.csv), dataset.CSVOptions{HasHeader: true, ClassColumn: "class"})
		j.read, j.readAlloc = time.Since(start), heapAllocs()-a0
		if err != nil {
			return nil, fmt.Errorf("read csv: %w", err)
		}
		cats := t.CategoricalColumns()
		column = func(i int) (partition.Labels, error) { return cats[i].Clustering() }
		m = len(cats)
	}

	t0, a0 := time.Now(), heapAllocs()
	p, err := pack(in.n, m, column)
	j.pack, j.packAlloc = time.Since(t0), heapAllocs()-a0
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	j.problem = p

	t0 = time.Now()
	j.labels, err = w.solve(p, opts)
	j.solve = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	if w.objective {
		t0 = time.Now()
		j.d = p.Disagreement(j.labels)
		t1 := time.Now()
		j.lb = p.LowerBound()
		j.disagreement, j.lowerBound = t1.Sub(t0), time.Since(t1)
	}
	j.wall = time.Since(start)
	return j, nil
}

// pack streams m columns into the width-packed label block and builds the
// problem, the way AggregateCSV and the CLI do.
func pack(n, m int, column func(int) (partition.Labels, error)) (*core.Problem, error) {
	b := core.NewPackedColumns(n, m)
	for i := 0; i < m; i++ {
		col, err := column(i)
		if err != nil {
			return nil, err
		}
		if err := b.AppendColumn(col); err != nil {
			return nil, err
		}
	}
	pc, err := b.Build()
	if err != nil {
		return nil, err
	}
	return core.NewProblemPacked(pc, core.ProblemOptions{})
}

// heapAllocs returns the cumulative heap bytes allocated by the process.
// Unlike runtime.ReadMemStats it does not stop the world, so it can bracket
// the layer calls inside a timed job.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
