package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// Method identifies one of the paper's aggregation algorithms.
type Method int

// The aggregation methods of Section 4.
const (
	// MethodBest is BESTCLUSTERING: pick the input clustering with the
	// smallest total disagreement (2(1−1/m)-approximation).
	MethodBest Method = iota
	// MethodBalls is the BALLS algorithm (3-approximation at α = 1/4).
	MethodBalls
	// MethodAgglomerative is the average-linkage AGGLOMERATIVE algorithm.
	MethodAgglomerative
	// MethodFurthest is the furthest-first top-down FURTHEST algorithm.
	MethodFurthest
	// MethodLocalSearch is LOCALSEARCH started from singletons.
	MethodLocalSearch
	// MethodPivot is the randomized pivot extension (see corrclust.Pivot);
	// not one of the paper's five algorithms.
	MethodPivot
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodBest:
		return "BestClustering"
	case MethodBalls:
		return "Balls"
	case MethodAgglomerative:
		return "Agglomerative"
	case MethodFurthest:
		return "Furthest"
	case MethodLocalSearch:
		return "LocalSearch"
	case MethodPivot:
		return "Pivot"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists the paper's five aggregation methods in paper order.
// ExtensionMethods lists the extras implemented beyond the paper.
func Methods() []Method {
	return []Method{MethodBest, MethodBalls, MethodAgglomerative, MethodFurthest, MethodLocalSearch}
}

// ExtensionMethods lists the aggregation methods implemented beyond the
// paper's five (see their doc comments for provenance).
func ExtensionMethods() []Method {
	return []Method{MethodPivot}
}

// Slug returns the lowercase identifier used for the method in counter
// names, span names, and the CLIs ("balls", "localsearch", ...).
func (m Method) Slug() string { return strings.ToLower(m.String()) }

// Alpha returns a pointer to a, for setting AggregateOptions.BallsAlpha
// inline: core.AggregateOptions{BallsAlpha: core.Alpha(0.4)}.
func Alpha(a float64) *float64 { return &a }

// AggregateOptions tunes Aggregate.
type AggregateOptions struct {
	// BallsAlpha is the α parameter of MethodBalls. Nil means
	// corrclust.DefaultBallsAlpha (1/4, the value of Theorem 1); a non-nil
	// pointer is used as given, so an explicit α = 0 — a legal parameter
	// that accepts only zero-distance balls — is distinguishable from
	// "unset". The Alpha helper builds the pointer inline.
	BallsAlpha *float64
	// K, when positive, asks the method to produce exactly K clusters where
	// the method supports it (MethodAgglomerative, MethodFurthest). The
	// other methods remain parameter-free and ignore K. A negative K is
	// rejected with ErrNegativeOption.
	K int
	// Refine applies a LOCALSEARCH post-processing pass to the method's
	// output (Section 4 suggests LOCALSEARCH "can be used ... as a
	// postprocessing step, to improve upon an existing solution").
	Refine bool
	// Materialize precomputes the dense O(n²) distance matrix before
	// running the algorithm, turning each distance probe into an array
	// read; unset, the algorithms read the label kernel. Sample ignores it
	// whenever it samples (a sample size below n): its exact core and
	// singleton recluster always run on the label kernel.
	Materialize bool
	// Workers caps the worker goroutines used by the parallel stages
	// (materialization, BestOf method racing, SAMPLING's
	// assignment pass, FURTHEST's pair scan and capture reads). LOCALSEARCH,
	// standalone and as the Refine pass, always sweeps on one goroutine.
	// Zero means GOMAXPROCS; 1 forces sequential execution. When BestOf
	// races methods on two or more goroutines, each racer runs on one
	// goroutine, so the per-method stages do not start workers of their
	// own. Results are identical for every value. A negative Workers is
	// rejected with ErrNegativeOption.
	Workers int
	// Rand supplies randomness to the randomized MethodPivot. Nil means a
	// deterministic source seeded with 1. The paper's five methods are
	// deterministic and ignore it.
	Rand *rand.Rand
	// Recorder, when non-nil, collects spans and counters for the run:
	// every Dist probe the chosen algorithm makes is counted under
	// "<method>.dist_probes" (through an obs.CountingInstance wrapper, so
	// the algorithms' inner loops are untouched), and each algorithm
	// contributes its own counters (see internal/obs and
	// docs/OBSERVABILITY.md). Nil — the
	// default everywhere — records nothing and changes nothing: results
	// are always identical with and without a Recorder.
	Recorder *obs.Recorder
	// Progress, when non-nil, receives throttled live-progress events from
	// the long-running stages: AGGLOMERATIVE merges, LOCALSEARCH sweeps
	// (standalone and as the Refine pass), and SAMPLING's assignment batches
	// (see Problem.Sample). Build one with obs.NewProgress; the CLIs'
	// -progress flag drives a stderr ticker with it. Like the Recorder it
	// observes and never steers: results are bit-identical with and without
	// it (internal/core/recorder_test.go asserts this for every method and
	// worker count).
	Progress *obs.Progress
}

// counting wraps inst so its Dist probes are counted under name; with a nil
// recorder it returns inst unchanged (zero overhead).
func counting(inst corrclust.Instance, rec *obs.Recorder, name string) corrclust.Instance {
	if rec == nil {
		return inst
	}
	return obs.Count(inst, rec.Counter(name))
}

// EffectiveWorkers resolves a Workers option to the worker count actually
// used: zero or negative means GOMAXPROCS. CLIs use it to report the
// effective value.
func EffectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// check rejects the option values no method can honor.
func (o AggregateOptions) check() error {
	if o.K < 0 {
		return fmt.Errorf("%w: K %d", ErrNegativeOption, o.K)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers %d", ErrNegativeOption, o.Workers)
	}
	return nil
}

// Aggregate runs the chosen aggregation method on the problem and returns
// the aggregate clustering with normalized labels. The whole run carries
// phase/method pprof labels (obs.Do) when profile labels are enabled, so a
// -cpuprofile slices by method with `go tool pprof -tagfocus`; worker
// goroutines spawned inside inherit them.
func (p *Problem) Aggregate(method Method, opts AggregateOptions) (labels partition.Labels, err error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	obs.Do(obs.ProfLabels{Phase: "aggregate", Method: method.Slug()}, func() {
		rec := opts.Recorder
		span := rec.Start("aggregate:" + method.Slug())
		defer span.End()
		var inst corrclust.Instance
		if opts.Materialize {
			ms := rec.Start("materialize")
			inst = p.materialize(rec, opts.Workers)
			ms.End()
		} else {
			// Matrix-free runs probe the Problem's label block directly,
			// with bulk row gathers where the algorithm's inner loop
			// supports them (see corrclust.RowDistancer).
			rec.Event("kernel.width", "bytes", p.width, "n", p.n, "m", p.m)
			inst = p
		}
		labels, err = p.aggregateOn(inst, method, opts, nil)
	})
	return labels, err
}

// aggregateOn is Aggregate against an explicit distance oracle, shared by
// Aggregate and BestOf. When opts.Recorder is set, the oracle is wrapped so
// every probe the algorithm makes lands in "<method>.dist_probes". parent,
// when non-nil, anchors nested spans (the refinement pass) explicitly —
// BestOf's concurrent races pass their method span so the tree does not
// reflect goroutine interleaving.
func (p *Problem) aggregateOn(inst corrclust.Instance, method Method, opts AggregateOptions, parent *obs.Span) (partition.Labels, error) {
	rec := opts.Recorder
	algInst := counting(inst, rec, method.Slug()+".dist_probes")
	var labels partition.Labels
	switch method {
	case MethodBest:
		labels, _, _ = p.bestClustering(rec)
	case MethodBalls:
		alpha := corrclust.DefaultBallsAlpha
		if opts.BallsAlpha != nil {
			alpha = *opts.BallsAlpha
		}
		var err error
		labels, err = corrclust.BallsWithOptions(algInst, corrclust.BallsOptions{Alpha: alpha, Recorder: rec})
		if err != nil {
			return nil, err
		}
	case MethodAgglomerative:
		labels = corrclust.AgglomerativeWithOptions(algInst, corrclust.AgglomerativeOptions{K: opts.K, Recorder: rec, Progress: opts.Progress})
	case MethodFurthest:
		labels, _ = corrclust.FurthestWithOptions(algInst, corrclust.FurthestOptions{K: opts.K, Workers: opts.Workers, Recorder: rec})
	case MethodLocalSearch:
		labels = corrclust.LocalSearch(algInst, corrclust.LocalSearchOptions{Recorder: rec, Progress: opts.Progress})
	case MethodPivot:
		labels = corrclust.PivotWithOptions(algInst, corrclust.PivotOptions{Rand: opts.Rand, Recorder: rec})
	default:
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
	if opts.Refine && method != MethodLocalSearch {
		rs := parent.StartChild("refine")
		if parent == nil {
			rs = rec.Start("refine")
		}
		labels = corrclust.LocalSearch(counting(inst, rec, "refine.dist_probes"), corrclust.LocalSearchOptions{Init: labels, Recorder: rec, Progress: opts.Progress})
		rs.End()
	}
	return labels.Normalize(), nil
}

// BestOf runs every given method (all five paper methods when methods is
// empty) and returns the clustering with the smallest total disagreement
// D(C), together with the method that produced it. Racing the algorithms
// and keeping the best is the natural way to use the framework when
// solution quality matters more than a few extra passes. With Materialize
// the matrix is built once and shared by the racers; otherwise they share
// the label kernel. Each racer is scored with Disagreement's exact O(n·m)
// contingency count, not a pair scan.
//
// The race runs the methods concurrently over the shared oracle, bounded by
// opts.Workers (GOMAXPROCS when zero; 1 forces sequential execution). A
// race on two or more goroutines runs each racer with Workers 1: the
// methods are the parallelism, and FURTHEST's parallel reads inside a
// racer would only compete with the other racers for the same cores. The
// outcome does not depend on scheduling: the winner is selected by D(C)
// with exact ties broken in method order, and each PIVOT entry draws an
// independent deterministic seed, in method order, from opts.Rand before
// the race starts. Every worker count returns the same (labels, method).
func (p *Problem) BestOf(methods []Method, opts AggregateOptions) (partition.Labels, Method, error) {
	if err := opts.check(); err != nil {
		return nil, 0, err
	}
	if len(methods) == 0 {
		methods = Methods()
	}
	rec := opts.Recorder
	span := rec.Start("bestof")
	defer span.End()
	var inst corrclust.Instance = p // the shared oracle unless materialized
	if opts.Materialize {
		ms := rec.Start("materialize")
		inst = p.materialize(rec, opts.Workers)
		ms.End()
		opts.Materialize = false // reuse the shared matrix below
	} else {
		rec.Event("kernel.width", "bytes", p.width, "n", p.n, "m", p.m)
	}

	// Pre-draw one rand per PIVOT entry so concurrent methods never
	// share a stream; drawing in method order keeps the seeds independent
	// of scheduling and worker count.
	rngs := make([]*rand.Rand, len(methods))
	var base *rand.Rand
	for i, method := range methods {
		if method == MethodPivot {
			if base == nil {
				base = opts.Rand
				if base == nil {
					base = rand.New(rand.NewSource(1))
				}
			}
			rngs[i] = rand.New(rand.NewSource(base.Int63()))
		}
	}

	type raced struct {
		labels  partition.Labels
		cost    float64
		elapsed time.Duration
		err     error
	}
	results := make([]raced, len(methods))
	workers := EffectiveWorkers(opts.Workers)
	if workers > len(methods) {
		workers = len(methods)
	}
	racerWorkers := opts.Workers
	if workers > 1 {
		racerWorkers = 1
	}
	run := func(i int, method Method) {
		// Each racer re-labels itself (phase + method): pprof.Do replaces
		// rather than merges, and the goroutine otherwise inherits only the
		// spawner's generic bestof labels.
		obs.Do(obs.ProfLabels{Phase: "bestof", Method: method.Slug(), Worker: strconv.Itoa(i)}, func() {
			mopts := opts
			mopts.Rand = rngs[i] // nil for the deterministic methods, which ignore it
			mopts.Workers = racerWorkers
			start := time.Now()
			msp := span.StartChild("method:" + method.Slug())
			defer msp.End()
			labels, err := p.aggregateOn(inst, method, mopts, msp)
			if err != nil {
				results[i] = raced{err: err}
				return
			}
			results[i] = raced{labels: labels, cost: p.Disagreement(labels), elapsed: time.Since(start)}
		})
	}

	// Each worker takes the next method in order as it frees up, so a slow
	// racer never holds back the methods queued behind it.
	var next atomic.Int64
	stripes("bestof", workers, func(int) {
		for i := int(next.Add(1) - 1); i < len(methods); i = int(next.Add(1) - 1) {
			run(i, methods[i])
		}
	})

	// Deterministic selection: first error in method order wins; otherwise
	// the lowest D(C), ties broken toward the earlier method.
	var best partition.Labels
	var bestMethod Method
	bestCost := 0.0
	for i, method := range methods {
		r := results[i]
		if r.err != nil {
			return nil, 0, r.err
		}
		if best == nil || r.cost < bestCost {
			best, bestMethod, bestCost = r.labels, method, r.cost
		}
	}
	rec.Event("bestof.winner", "method", bestMethod.Slug(), "cost", bestCost, "methods", len(methods))
	if rec != nil {
		// Race trajectory, appended in method order after the race so the
		// points are deterministic regardless of scheduling: each method's
		// D(C) (step = method index) and its elapsed race time
		// (timing-bearing; the ".seconds" suffix keeps benchdiff away).
		costSeries := rec.Series("bestof.cost")
		elapsedSeries := rec.Series("bestof.method.seconds")
		for i := range methods {
			costSeries.Append(int64(i), results[i].cost)
			elapsedSeries.Append(int64(i), results[i].elapsed.Seconds())
		}
	}
	return best, bestMethod, nil
}
