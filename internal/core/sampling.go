package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// assignBatchSize is the number of objects one assignment batch covers: each
// batch lands one observation in the sample.assign.batch.seconds histogram
// and advances the shared progress counter once, so the instrumentation cost
// is amortized across thousands of objects and stays invisible next to the
// per-object evaluation work.
const assignBatchSize = 8192

// reclusterCap bounds the singleton subset the recluster post-pass
// aggregates exactly (materialized): past it the recluster falls back to a
// recursive Sample, keeping the whole pipeline near-linear.
const reclusterCap = 4096

// SamplingOptions configures the SAMPLING wrapper of Section 4.1.
type SamplingOptions struct {
	// SampleSize is the number of objects clustered exactly. Zero selects
	// an automatic size of ceil(20·ln n) (a constant multiple of the
	// O(log n) the paper derives from Chernoff bounds), capped at n.
	SampleSize int
	// Rand is the randomness source for drawing the sample. Nil means a
	// deterministic source seeded with 1.
	Rand *rand.Rand
	// NoSingletonRecluster disables the post-processing round that gathers
	// all singleton clusters and aggregates them again (enabled by default,
	// as in the paper).
	NoSingletonRecluster bool
	// ReferenceAssign forces the assignment phase onto the reference
	// probing path: one Problem.Dist interface call per (object, sample
	// member) pair, O(m·s) per object. The default is the columnar label
	// kernel's histogram assignment, O(m·k) per object (see
	// internal/core/labelkernel.go and docs/PERFORMANCE.md); the two paths
	// produce the same clustering — bit-identical where the distance
	// arithmetic is exact (dyadic instances, and always under
	// MissingAverage with missing values, where the kernel keeps per-pair
	// evaluation) and within float drift otherwise — and the equivalence
	// tests pin it. The reference is kept for validation and benchmarking.
	ReferenceAssign bool
	// Recorder, when non-nil, receives the sampling spans (sample:core,
	// sample:assign, sample:recluster) and sample.* counters, splitting the
	// exact-core work from the linear assignment pass. Nil falls back to
	// the AggregateOptions' Recorder; results never depend on it.
	Recorder *obs.Recorder
}

// Sample runs the SAMPLING algorithm on top of the given aggregation method:
// it aggregates a uniform random sample exactly, assigns every remaining
// object to the sampled cluster (or to a fresh singleton) that minimizes the
// LOCALSEARCH assignment cost, and finally gathers all singleton clusters
// and aggregates them again. Pre- and post-processing are linear in n for a
// fixed sample size.
func (p *Problem) Sample(method Method, aggOpts AggregateOptions, sOpts SamplingOptions) (partition.Labels, error) {
	rec := sOpts.Recorder
	if rec == nil {
		rec = aggOpts.Recorder
	}
	aggOpts.Recorder = rec // inner aggregations record into the same place
	n := p.n
	s := sOpts.SampleSize
	if s == 0 {
		s = autoSampleSize(n)
	}
	if s < 0 {
		return nil, fmt.Errorf("core: negative sample size %d", s)
	}
	if s >= n {
		return p.Aggregate(method, aggOpts)
	}
	rng := sOpts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	span := rec.Start("sample")
	defer span.End()
	rec.Add("sample.size", int64(s))
	rec.Event("sample.plan", "size", s, "n", n, "auto", sOpts.SampleSize == 0)

	sample := rng.Perm(n)[:s]
	sort.Ints(sample)

	coreSpan := rec.Start("sample:core")
	sampleLabels, err := p.subProblem(sample).Aggregate(method, withMaterialize(aggOpts))
	coreSpan.End()
	if err != nil {
		return nil, err
	}

	// Clusters of the sample, holding original object indices.
	k := sampleLabels.K()
	members := make([][]int, k)
	for si, c := range sampleLabels {
		members[c] = append(members[c], sample[si])
	}

	labels := make(partition.Labels, n)
	for i := range labels {
		labels[i] = partition.Missing
	}
	for si, c := range sampleLabels {
		labels[sample[si]] = c
	}

	// Assignment phase: place each non-sampled object into the sampled
	// cluster minimizing d(v, C_i) = M(v,C_i) + Σ_{j≠i}(|C_j| − M(v,C_j)),
	// or into a fresh singleton when that is cheaper — the LOCALSEARCH
	// assignment cost; the refinement passes inside the exact core and the
	// singleton recluster run the incremental LOCALSEARCH kernel with the
	// same aggOpts.Workers cap (see corrclust.LocalSearch). Objects are
	// independent, so the pass streams them on chunked worker stripes
	// (capped by aggOpts.Workers); a fresh singleton takes the provisional
	// label k+v, unique per object regardless of scheduling, and the final
	// Normalize maps every worker count's labeling to the same clustering.
	//
	// The default path is the columnar label kernel's histogram assignment
	// — O(m·k) per object with O(n·m + m·L·k) total memory, no O(n²)
	// anything (see labelkernel.go); sOpts.ReferenceAssign keeps the
	// original probing pass, O(m·s) interface calls per object.
	// Sample membership needs no side table: labels was initialized to
	// Missing everywhere and then set exactly on the sample positions, so
	// labels[v] != Missing identifies the sample — one fewer O(n)
	// allocation, and each assignment stripe only reads positions it owns.
	assignSpan := rec.Start("sample:assign")
	workers := effectiveWorkers(aggOpts.Workers)
	if workers > n {
		workers = n
	}
	if n-s < materializeMinParallel {
		workers = 1
	}
	var assigned, fresh int64
	if sOpts.ReferenceAssign {
		assigned, fresh = p.assignReference(rec, aggOpts.Progress, labels, members, workers)
	} else {
		assigned, fresh = p.assignKernel(rec, aggOpts.Progress, labels, members, workers)
	}
	rec.Add("sample.assigned", assigned)
	rec.Add("sample.fresh_singletons", fresh)
	// Completion event (always delivered): every object has been scanned.
	aggOpts.Progress.Emit(obs.ProgressEvent{Stage: "sample:assign", Done: int64(n), Total: int64(n)})
	assignSpan.End()

	if !sOpts.NoSingletonRecluster {
		rs := rec.Start("sample:recluster")
		err := p.reclusterSingletons(labels, method, aggOpts, rng)
		rs.End()
		if err != nil {
			return nil, err
		}
	}
	return labels.Normalize(), nil
}

// assignReference is the probing assignment pass: every non-sampled object
// evaluates each sample member through one Problem.Dist interface call
// (O(m·s) per object), on modulo worker stripes. Kept as the reference the
// kernel path is pinned against; rec counts each probe individually under
// sample.assign.dist_probes. Each stripe observes its batch latencies in the
// sample.assign.batch.seconds histogram and advances the shared progress
// counter (Done = objects scanned so far across all stripes, Total = n).
func (p *Problem) assignReference(rec *obs.Recorder, progress *obs.Progress, labels partition.Labels, members [][]int, workers int) (assigned, fresh int64) {
	n, k := p.n, len(members)
	var oracle corrclust.Instance = p
	var batchHist *obs.Histogram
	var tpSeries *obs.Series
	if rec != nil {
		oracle = obs.Count(p, rec.Counter("sample.assign.dist_probes"))
		batchHist = rec.Histogram("sample.assign.batch.seconds", nil)
		tpSeries = rec.Series("sample.assign.throughput")
	}
	var done atomic.Int64
	counts := make([][2]int64, workers) // assigned, fresh per stripe
	assignStripe := func(stripe int) {
		mPtr, m := getF64(k)
		defer putF64(mPtr)
		inBatch := 0
		var batchStart time.Time
		if batchHist != nil {
			batchStart = time.Now()
		}
		flush := func() {
			if inBatch == 0 {
				return
			}
			d := done.Add(int64(inBatch))
			if batchHist != nil {
				sec := time.Since(batchStart).Seconds()
				batchHist.Observe(sec)
				// Per-batch throughput (objects/s), stepped by the shared
				// scan position. Timing-bearing, so benchdiff ignores it.
				if sec > 0 {
					tpSeries.Append(d, float64(inBatch)/sec)
				}
				batchStart = time.Now()
			}
			progress.Emit(obs.ProgressEvent{
				Stage: "sample:assign", Done: d, Total: int64(n),
			})
			inBatch = 0
		}
		for v := stripe; v < n; v += workers {
			if labels[v] == partition.Missing {
				var totalAway float64
				for ci := range members {
					m[ci] = 0
					for _, u := range members[ci] {
						m[ci] += oracle.Dist(v, u)
					}
					totalAway += float64(len(members[ci])) - m[ci]
				}
				bestC, bestCost := -1, totalAway // -1 = fresh singleton
				for ci := range members {
					d := m[ci] + totalAway - (float64(len(members[ci])) - m[ci])
					if d < bestCost {
						bestC, bestCost = ci, d
					}
				}
				if bestC == -1 {
					labels[v] = k + v
					counts[stripe][1]++
				} else {
					labels[v] = bestC
					counts[stripe][0]++
				}
			}
			inBatch++
			if inBatch == assignBatchSize {
				flush()
			}
		}
		flush()
	}
	if workers <= 1 {
		assignStripe(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(stripe int) {
				defer wg.Done()
				obs.Do(obs.ProfLabels{Phase: "sample:assign", Worker: strconv.Itoa(stripe)}, func() {
					assignStripe(stripe)
				})
			}(w)
		}
		wg.Wait()
	}
	for _, c := range counts {
		assigned += c[0]
		fresh += c[1]
	}
	return assigned, fresh
}

// assignKernel is the columnar label-kernel assignment pass. The default
// route evaluates M(v, C_c) for all k sample clusters through the co-label
// histograms in one O(m·k) pass per object; under MissingAverage with
// missing labels present — where per-pair vote denominators do not
// decompose per clustering — it evaluates the sample members through the
// kernel's bulk row path instead (still O(m·s) per object, but tight label
// compares rather than interface probes, and bit-identical to the
// reference unconditionally). Objects stream on contiguous chunk stripes;
// the selection loop is the reference's, so the same affinities produce
// the same labels.
//
// Counters: sample.assign.dist_probes is bulk-charged with the
// (n−s)·s probes the reference path would make (the kernel evaluates the
// same object/member pairs, just not one Dist call at a time);
// sample.assign.kernel_cols records the n packed label columns and
// sample.assign.hist_builds the per-clustering histogram builds (0 on the
// row route). Batch latencies land in sample.assign.batch.seconds and the
// shared progress counter ticks once per batch (Done = objects scanned so
// far across all chunks, Total = n).
func (p *Problem) assignKernel(rec *obs.Recorder, progress *obs.Progress, labels partition.Labels, members [][]int, workers int) (assigned, fresh int64) {
	n, k := p.n, len(members)
	lk := p.kernel()
	rec.Add("sample.assign.kernel_cols", int64(n))

	var hist *colabelHist
	var flat []int // row route: sample members flattened in cluster order
	var ends []int // per-cluster segment ends into flat
	sampleSize := 0
	for _, mem := range members {
		sampleSize += len(mem)
	}
	if lk.average && lk.anyMiss {
		flat = make([]int, 0, sampleSize)
		ends = make([]int, 0, k)
		for _, mem := range members {
			flat = append(flat, mem...)
			ends = append(ends, len(flat))
		}
		rec.Add("sample.assign.hist_builds", 0)
	} else {
		hist = lk.buildColabelHist(members)
		rec.Add("sample.assign.hist_builds", int64(lk.m))
	}
	rec.Add("sample.assign.dist_probes", int64(n-sampleSize)*int64(sampleSize))
	var batchHist *obs.Histogram
	var tpSeries *obs.Series
	if rec != nil {
		batchHist = rec.Histogram("sample.assign.batch.seconds", nil)
		tpSeries = rec.Series("sample.assign.throughput")
	}
	var done atomic.Int64

	counts := make([][2]int64, workers) // assigned, fresh per stripe
	assignChunk := func(stripe, lo, hi int) {
		mPtr, m := getF64(k)
		defer putF64(mPtr)
		var buf []float64
		if hist == nil {
			bufPtr, b := getF64(len(flat))
			defer putF64(bufPtr)
			buf = b
		}
		for bLo := lo; bLo < hi; bLo += assignBatchSize {
			bHi := bLo + assignBatchSize
			if bHi > hi {
				bHi = hi
			}
			var batchStart time.Time
			if batchHist != nil {
				batchStart = time.Now()
			}
			for v := bLo; v < bHi; v++ {
				if labels[v] != partition.Missing {
					continue
				}
				if hist != nil {
					hist.affinities(lk, v, m)
				} else {
					lk.DistRowTo(v, flat, buf)
					start := 0
					for ci, end := range ends {
						var s float64
						for _, x := range buf[start:end] {
							s += x
						}
						m[ci] = s
						start = end
					}
				}
				var totalAway float64
				for ci := range members {
					totalAway += float64(len(members[ci])) - m[ci]
				}
				bestC, bestCost := -1, totalAway // -1 = fresh singleton
				for ci := range members {
					d := m[ci] + totalAway - (float64(len(members[ci])) - m[ci])
					if d < bestCost {
						bestC, bestCost = ci, d
					}
				}
				if bestC == -1 {
					labels[v] = k + v
					counts[stripe][1]++
				} else {
					labels[v] = bestC
					counts[stripe][0]++
				}
			}
			d := done.Add(int64(bHi - bLo))
			if batchHist != nil {
				sec := time.Since(batchStart).Seconds()
				batchHist.Observe(sec)
				// Per-batch throughput (objects/s), stepped by the shared
				// scan position. Timing-bearing, so benchdiff ignores it.
				if sec > 0 {
					tpSeries.Append(d, float64(bHi-bLo)/sec)
				}
			}
			progress.Emit(obs.ProgressEvent{
				Stage: "sample:assign", Done: d, Total: int64(n),
			})
		}
	}
	if workers <= 1 {
		assignChunk(0, 0, n)
	} else {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(stripe, lo, hi int) {
				defer wg.Done()
				obs.Do(obs.ProfLabels{Phase: "sample:assign", Worker: strconv.Itoa(stripe)}, func() {
					assignChunk(stripe, lo, hi)
				})
			}(w, lo, hi)
		}
		wg.Wait()
	}
	for _, c := range counts {
		assigned += c[0]
		fresh += c[1]
	}
	return assigned, fresh
}

// autoSampleSize returns ceil(20·ln n), clamped to [1, n].
func autoSampleSize(n int) int {
	if n <= 1 {
		return n
	}
	s := int(math.Ceil(20 * math.Log(float64(n))))
	if s > n {
		s = n
	}
	return s
}

// withMaterialize forces matrix materialization, which is always worthwhile
// on a small sample.
func withMaterialize(o AggregateOptions) AggregateOptions {
	o.Materialize = true
	return o
}

// subProblem restricts the inputs to the given (sorted) object indices:
// packed problems gather the selected label rows into one fresh arena at
// the parent's width (m·width bytes per object instead of 8·m), unpacked
// ones copy the selected labels per clustering.
func (p *Problem) subProblem(idx []int) *Problem {
	s := &Problem{
		n:           len(idx),
		missingP:    p.missingP,
		missingMode: p.missingMode,
		weights:     p.weights,
		totalWeight: p.totalWeight,
	}
	if p.packed != nil {
		s.packed = p.packed.gather(idx)
		return s
	}
	sub := make([]partition.Labels, len(p.clusterings))
	for ci, c := range p.clusterings {
		sc := make(partition.Labels, len(idx))
		for i, obj := range idx {
			sc[i] = c[obj]
		}
		sub[ci] = sc
	}
	s.clusterings = sub
	return s
}

// reclusterSingletons gathers every object currently in a singleton cluster
// and aggregates that subset again, splicing the result back into labels.
// Very large singleton sets are handled by a recursive Sample call so the
// post-processing stays near-linear.
func (p *Problem) reclusterSingletons(labels partition.Labels, method Method, aggOpts AggregateOptions, rng *rand.Rand) error {
	// Every object carries a label here (provisional singletons got k+v), so
	// cluster sizes fit a flat array indexed by label — one bound scan plus
	// 4 bytes per provisional label, instead of the map[int]int whose
	// buckets dominated this pass's allocations at large n. The bound
	// doubles as the splice base below.
	base := 0
	for _, c := range labels {
		if c >= base {
			base = c + 1
		}
	}
	counts := make([]int32, base)
	for _, c := range labels {
		counts[c]++
	}
	nSingle := 0
	for _, c := range counts {
		if c == 1 {
			nSingle++
		}
	}
	if nSingle < 2 {
		return nil
	}
	singles := make([]int, 0, nSingle)
	for i, c := range labels {
		if counts[c] == 1 {
			singles = append(singles, i)
		}
	}
	aggOpts.Recorder.Add("sample.recluster.objects", int64(len(singles)))

	sub := p.subProblem(singles)
	var subLabels partition.Labels
	var err error
	if len(singles) > reclusterCap {
		subLabels, err = sub.Sample(method, aggOpts, SamplingOptions{Rand: rng, NoSingletonRecluster: true})
	} else {
		subLabels, err = sub.Aggregate(method, withMaterialize(aggOpts))
	}
	if err != nil {
		return err
	}
	if rec := aggOpts.Recorder; rec != nil && len(singles) <= reclusterCap {
		// Post-recluster quality: the disagreement cost of the re-aggregated
		// singleton subset on its own sub-problem. Instrumentation-only: an
		// O(|singles|·m) contingency pass. The reclusterCap guard keeps the
		// series to the materialized reclusters, whose points benchdiff
		// compares against the committed reports.
		rec.Series("sample.recluster.cost").Append(int64(len(singles)), sub.Disagreement(subLabels))
	}

	for i, obj := range singles {
		labels[obj] = base + subLabels[i]
	}
	return nil
}
