package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/eval"
	"clusteragg/internal/points"
)

// Fig5SamplePoint is one sample-size setting of the Figure 5 left/middle
// panels.
type Fig5SamplePoint struct {
	SampleSize int
	// TimeRatio is time(SAMPLING)/time(full algorithm).
	TimeRatio float64
	// Err is the classification error of the sampled aggregation.
	Err float64
	// KFound is the number of clusters found.
	KFound int
}

// Fig5SamplingResult covers the left (time ratio vs sample size) and middle
// (error vs sample size) panels of Figure 5, run on the Mushrooms stand-in.
type Fig5SamplingResult struct {
	N int
	// FullErr and FullK describe the non-sampling run the ratios compare
	// against.
	FullErr  float64
	FullK    int
	FullTime time.Duration
	Points   []Fig5SamplePoint
}

// Fig5Sampling runs the sampling quality/time trade-off sweep on the
// Mushrooms stand-in with the AGGLOMERATIVE algorithm underneath, as in
// Section 5.3.
func Fig5Sampling(cfg Config) (*Fig5SamplingResult, error) {
	t := subsample(dataset.SyntheticMushrooms(cfg.seed()), cfg.mushroomsRows(), cfg.seed())
	problem, err := tableProblem(t)
	if err != nil {
		return nil, err
	}
	res := &Fig5SamplingResult{N: t.N()}

	res.FullTime, err = timeIt(func() error {
		labels, err := problem.Aggregate(core.MethodAgglomerative, core.AggregateOptions{Materialize: true, Workers: cfg.Workers, Recorder: cfg.Recorder})
		if err != nil {
			return err
		}
		res.FullK = labels.K()
		res.FullErr, err = eval.ClassificationError(labels, t.Class)
		return err
	})
	if err != nil {
		return nil, err
	}

	sizes := cfg.SampleSizes
	if len(sizes) == 0 {
		sizes = []int{100, 200, 400, 800, 1600, 3200}
	}
	for _, s := range sizes {
		if s >= t.N() {
			break
		}
		p := Fig5SamplePoint{SampleSize: s}
		d, err := timeIt(func() error {
			labels, err := problem.Sample(core.MethodAgglomerative, core.AggregateOptions{Workers: cfg.Workers, Recorder: cfg.Recorder},
				core.SamplingOptions{
					SampleSize: s,
					Rand:       rand.New(rand.NewSource(cfg.seed() + int64(s))),
				})
			if err != nil {
				return err
			}
			p.KFound = labels.K()
			p.Err, err = eval.ClassificationError(labels, t.Class)
			return err
		})
		if err != nil {
			return nil, err
		}
		p.TimeRatio = d.Seconds() / res.FullTime.Seconds()
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// String prints the sweep.
func (r *Fig5SamplingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (left, middle) — sampling on Mushrooms (n=%d)\n", r.N)
	fmt.Fprintf(&b, "full run: k=%d E_C=%s time=%.2fs\n", r.FullK, pct(r.FullErr), r.FullTime.Seconds())
	fmt.Fprintf(&b, "%10s %12s %8s %6s\n", "sample", "time-ratio", "E_C", "k")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %12.3f %8s %6d\n", p.SampleSize, p.TimeRatio, pct(p.Err), p.KFound)
	}
	return b.String()
}

// Fig5ScalePoint is one dataset size of the Figure 5 right panel.
type Fig5ScalePoint struct {
	N        int
	Duration time.Duration
	KFound   int
	Err      float64
}

// Fig5ScalabilityResult covers the right panel of Figure 5: SAMPLING
// running time as a function of dataset size.
type Fig5ScalabilityResult struct {
	SampleSize int
	Points     []Fig5ScalePoint
}

// Fig5Scalability reproduces the right panel of Figure 5: five Gaussian
// clusters plus 20% noise at increasing dataset sizes, clustered with
// k-means for k = 2..10 and aggregated with SAMPLING (sample size 1000)
// over FURTHEST. The default sweep uses 20K..200K points; cfg.Full runs
// the paper's 50K..1M.
func Fig5Scalability(cfg Config) (*Fig5ScalabilityResult, error) {
	sizes := cfg.ScalabilitySizes
	if len(sizes) == 0 {
		sizes = []int{20000, 50000, 100000, 200000}
		if cfg.Full {
			sizes = []int{50000, 100000, 500000, 1000000}
		}
	}
	res := &Fig5ScalabilityResult{SampleSize: 1000}
	for _, n := range sizes {
		per := n / 6 // five clusters plus ~20% noise ≈ n total
		data, err := points.GaussianBlobs(cfg.seed(), points.GaussianBlobsOptions{
			K:             5,
			PerCluster:    per,
			NoiseFraction: 0.20,
			MinSeparation: 0.25,
		})
		if err != nil {
			return nil, err
		}
		inputs, err := kmeansSweep(data.Points, 2, 10, cfg.seed())
		if err != nil {
			return nil, err
		}
		problem, err := core.NewProblem(inputs, core.ProblemOptions{})
		if err != nil {
			return nil, err
		}
		p := Fig5ScalePoint{N: data.N()}
		p.Duration, err = timeIt(func() error {
			labels, err := problem.Sample(core.MethodFurthest, core.AggregateOptions{Workers: cfg.Workers, Recorder: cfg.Recorder},
				core.SamplingOptions{
					SampleSize: res.SampleSize,
					Rand:       rand.New(rand.NewSource(cfg.seed())),
				})
			if err != nil {
				return err
			}
			p.KFound = labels.K()
			p.Err, err = eval.ClassificationError(labels, data.Truth)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
		if !cfg.Quiet {
			fmt.Printf("  fig5right: n=%d done in %.2fs (k=%d)\n", p.N, p.Duration.Seconds(), p.KFound)
		}
	}
	return res, nil
}

// String prints the scalability series; the time-per-object column makes
// the linear behaviour visible.
func (r *Fig5ScalabilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (right) — scalability, sample=%d\n", r.SampleSize)
	fmt.Fprintf(&b, "%10s %10s %14s %6s %8s\n", "n", "time(s)", "us-per-object", "k", "E_C")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %10.2f %14.2f %6d %8s\n",
			p.N, p.Duration.Seconds(),
			float64(p.Duration.Microseconds())/float64(p.N), p.KFound, pct(p.Err))
	}
	return b.String()
}
