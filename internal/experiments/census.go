package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/eval"
	"clusteragg/internal/limbo"
)

// CensusResult reproduces the in-text Census experiment of Section 5.2:
// SAMPLING on top of FURTHEST on the Census stand-in, compared against
// LIMBO.
type CensusResult struct {
	N          int
	SampleSize int
	// KFound and Err describe the sampled FURTHEST aggregation (the paper
	// reports 54 clusters at 24% classification error from a 4000-row
	// sample).
	KFound   int
	Err      float64
	Duration time.Duration
	// LimboK and LimboErr describe the LIMBO(k=2, phi=1.0) comparison run
	// (the paper reports 27.6%).
	LimboK   int
	LimboErr float64
	// Profiles describes the largest clusters by their dominant attribute
	// values — the paper's "distinct social groups" observation.
	Profiles []dataset.ClusterProfile
}

// CensusSampling runs the Census experiment. The sample size scales with
// the dataset: the paper's 4000 of 32561 by default becomes 4000·n/32561,
// with a floor of 500.
func CensusSampling(cfg Config) (*CensusResult, error) {
	t := dataset.SyntheticCensus(cfg.seed(), cfg.censusRows())
	problem, err := tableProblem(t)
	if err != nil {
		return nil, err
	}

	sampleSize := 4000 * t.N() / dataset.SyntheticCensusRows
	if sampleSize < 500 {
		sampleSize = 500
	}
	res := &CensusResult{N: t.N(), SampleSize: sampleSize}

	res.Duration, err = timeIt(func() error {
		labels, err := problem.Sample(core.MethodFurthest, core.AggregateOptions{Workers: cfg.Workers, Recorder: cfg.Recorder},
			core.SamplingOptions{
				SampleSize: sampleSize,
				Rand:       rand.New(rand.NewSource(cfg.seed())),
			})
		if err != nil {
			return err
		}
		res.KFound = labels.K()
		if res.Err, err = eval.ClassificationError(labels, t.Class); err != nil {
			return err
		}
		profiles, err := dataset.Describe(t, labels)
		if err != nil {
			return err
		}
		if len(profiles) > 5 {
			profiles = profiles[:5]
		}
		res.Profiles = profiles
		return nil
	})
	if err != nil {
		return nil, err
	}

	limboLabels, err := limbo.Run(t, limbo.Options{K: 2, Phi: 1.0, Recorder: cfg.Recorder})
	if err != nil {
		return nil, err
	}
	res.LimboK = limboLabels.K()
	if res.LimboErr, err = eval.ClassificationError(limboLabels, t.Class); err != nil {
		return nil, err
	}
	return res, nil
}

// String prints the comparison.
func (r *CensusResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Census (n=%d) — Section 5.2 in-text result\n", r.N)
	fmt.Fprintf(&b, "%-28s %6s %8s\n", "algorithm", "k", "E_C")
	fmt.Fprintf(&b, "%-28s %6d %8s   (%.2fs, sample=%d)\n",
		"Sampling+Furthest", r.KFound, pct(r.Err), r.Duration.Seconds(), r.SampleSize)
	fmt.Fprintf(&b, "%-28s %6d %8s\n", "LIMBO(k=2,phi=1.0)", r.LimboK, pct(r.LimboErr))
	if len(r.Profiles) > 0 {
		b.WriteString("largest clusters (dominant attribute values):\n")
		for _, p := range r.Profiles {
			fmt.Fprintf(&b, "  %s\n", p)
		}
	}
	return b.String()
}
