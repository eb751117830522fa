// Package experiments contains one typed runner per table and figure of the
// paper's Section 5. Each runner builds its workload from the substrate
// packages, executes the aggregation (and baseline) algorithms, and returns
// a result struct whose String method prints rows shaped like the paper's.
//
// Runners accept a Config whose zero value reproduces every experiment at a
// laptop-friendly scale; Full switches to the paper's original sizes where
// they differ (full Mushrooms, 50K–1M scalability sweep).
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/kmeans"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
	"clusteragg/internal/points"
)

// Config controls workload sizes and determinism for all runners.
type Config struct {
	// Seed drives every random choice; the zero value means 1.
	Seed int64
	// Full runs the paper's original sizes (full 8124-row Mushrooms, the
	// 50K–1M scalability sweep). The default uses reduced sizes that keep
	// every experiment under a few seconds.
	Full bool
	// MushroomsRows caps the Mushrooms stand-in via a deterministic
	// subsample for the quadratic-cost algorithms. Zero means 1500 (or the
	// full 8124 when Full is set).
	MushroomsRows int
	// CensusRows sizes the Census stand-in. Zero means 8000 (or the real
	// 32561 when Full is set).
	CensusRows int
	// Quiet suppresses progress output from the longer runners.
	Quiet bool
	// SampleSizes overrides the Figure 5 left/middle sample-size sweep.
	SampleSizes []int
	// ScalabilitySizes overrides the Figure 5 right dataset-size sweep.
	ScalabilitySizes []int
	// HugeSizes overrides the "huge" artifact's object-count sweep.
	// Zero means 200k → 1M → 10M.
	HugeSizes []int
	// HugeCSVRows sizes the "huge" artifact's CSV end-to-end row (planted
	// CSV on disk → aggregate labels, sequential vs streamed ingest).
	// Zero runs the default 1M rows when the default ladder runs, and skips
	// the row when HugeSizes is overridden (tests use small ladders);
	// negative always skips.
	HugeCSVRows int
	// IngestRows sizes the "ingest" artifact's CSV workload. Zero means
	// 40000 (200000 when Full is set).
	IngestRows int
	// Workers caps the worker goroutines of the parallel stages (matrix
	// materialization, BestOf racing, SAMPLING assignment). Zero means
	// GOMAXPROCS; 1 forces sequential execution. Results are identical for
	// every value.
	Workers int
	// Recorder, when non-nil, collects spans and algorithm counters from
	// the aggregation runs inside each experiment (cmd/experiments -report
	// attaches one per artifact). Nil records nothing; results are
	// identical either way.
	Recorder *obs.Recorder
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) mushroomsRows() int {
	if c.MushroomsRows > 0 {
		return c.MushroomsRows
	}
	if c.Full {
		return 8124
	}
	return 1500
}

func (c Config) ingestRows() int {
	if c.IngestRows > 0 {
		return c.IngestRows
	}
	if c.Full {
		return 200_000
	}
	return 40_000
}

func (c Config) censusRows() int {
	if c.CensusRows > 0 {
		return c.CensusRows
	}
	if c.Full {
		return dataset.SyntheticCensusRows
	}
	return 8000
}

// subsample returns table t restricted to a deterministic uniform sample of
// rows (all rows when rows >= t.N()).
func subsample(t *dataset.Table, rows int, seed int64) *dataset.Table {
	if rows >= t.N() {
		return t
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(t.N())[:rows]
	return t.Subset(idx)
}

// tableProblem converts a categorical table into an aggregation problem.
func tableProblem(t *dataset.Table) (*core.Problem, error) {
	cs, err := t.Clusterings()
	if err != nil {
		return nil, err
	}
	return core.NewProblem(cs, core.ProblemOptions{})
}

// kmeansSweep runs k-means for k = kMin..kMax and returns the resulting
// clusterings, the paper's input-generation recipe for Figures 4 and 5.
// Each k runs once from a fresh random initialization (the paper used
// single Matlab runs): restarts would make every low-k run merge the same
// closest pair of true clusters, manufacturing a spurious majority that no
// aggregation could undo.
func kmeansSweep(pts []points.Point, kMin, kMax int, seed int64) ([]partition.Labels, error) {
	var out []partition.Labels
	for k := kMin; k <= kMax; k++ {
		res, err := kmeans.Run(pts, kmeans.Options{
			K:        k,
			Restarts: 1,
			Rand:     rand.New(rand.NewSource(seed + int64(k))),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res.Labels)
	}
	return out, nil
}

// timeIt measures fn's wall-clock duration.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// pct formats a fraction as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
