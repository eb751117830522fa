package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// assignBatchSize is the number of objects one assignment batch covers: each
// batch appends one sample.assign.throughput point and advances the shared
// progress counter once, so the instrumentation cost is amortized across
// thousands of objects and stays invisible next to the per-object
// evaluation work.
const assignBatchSize = 8192

// reclusterCap bounds the singleton subset the recluster post-pass
// aggregates exactly, on its label kernel: past it the recluster recurses
// through Sample, keeping the whole pipeline near-linear.
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

	// noSingletonRecluster disables the post-processing round that gathers
	// all singleton clusters and aggregates them again (run by default, as
	// in the paper); the recluster's own recursion through Sample sets it.
	noSingletonRecluster bool
	// assign, when non-nil, replaces the assignment pass (assignKernel).
	// Tests plug in the probing reference to pin the kernel against it.
	assign assignFunc
}

// assignFunc is the assignment pass's signature: it labels every object
// still Missing in labels from the sample clusters' members, on up to
// workers goroutines, and returns the assigned and fresh-singleton counts.
type assignFunc func(p *Problem, rec *obs.Recorder, progress *obs.Progress, labels partition.Labels, members [][]int, workers int) (assigned, fresh int64)

// Sample runs the SAMPLING algorithm on top of the given aggregation method:
// it aggregates a uniform random sample exactly, assigns every remaining
// object to the sampled cluster (or to a fresh singleton) that minimizes the
// LOCALSEARCH assignment cost, and finally gathers all singleton clusters
// and aggregates them again. Pre- and post-processing are linear in n for a
// fixed sample size, and besides the returned labels they keep no n-sized
// scratch: the sample is drawn in O(s) memory (permPrefix, the same draw
// and rng stream as rand.Perm), and the result is renumbered in place
// through a table of the sample's and the recluster's clusters (renumber).
func (p *Problem) Sample(method Method, aggOpts AggregateOptions, sOpts SamplingOptions) (partition.Labels, error) {
	rec := aggOpts.Recorder
	n := p.n
	s := sOpts.SampleSize
	if s == 0 {
		s = autoSampleSize(n)
	}
	if s < 0 {
		return nil, fmt.Errorf("%w: SampleSize %d", ErrNegativeOption, s)
	}
	if err := aggOpts.check(); err != nil {
		return nil, err
	}
	if s >= n {
		return p.Aggregate(method, aggOpts)
	}
	aggOpts.Materialize = false // the exact stages below read the sub-problem's kernel
	rng := sOpts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	span := rec.Start("sample")
	defer span.End()
	rec.Add("sample.size", int64(s))
	rec.Event("sample.plan", "size", s, "n", n, "auto", sOpts.SampleSize == 0)

	sample := permPrefix(rng, n, s)
	sort.Ints(sample)

	coreSpan := rec.Start("sample:core")
	sampleLabels, err := p.subProblem(sample).Aggregate(method, aggOpts)
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
	// singleton recluster run the incremental LOCALSEARCH kernel (see
	// corrclust.LocalSearch). Objects are independent, so the pass streams
	// them on chunked worker stripes (capped by aggOpts.Workers); a fresh
	// singleton takes the provisional label k+v, unique per object
	// regardless of scheduling, and the final renumbering maps every worker
	// count's labeling to the same clustering.
	//
	// The pass is the columnar label kernel's histogram assignment — O(m·k)
	// per object with O(n·m + m·L·k) total memory, no O(n²) anything (see
	// labelkernel.go).
	// Sample membership needs no side table: labels was initialized to
	// Missing everywhere and then set exactly on the sample positions, so
	// labels[v] != Missing identifies the sample — one fewer O(n)
	// allocation, and each assignment stripe only reads positions it owns.
	assignSpan := rec.Start("sample:assign")
	workers := EffectiveWorkers(aggOpts.Workers)
	if workers > n {
		workers = n
	}
	if n-s < materializeMinParallel {
		workers = 1
	}
	assign := sOpts.assign
	if assign == nil {
		assign = (*Problem).assignKernel
	}
	assigned, fresh := assign(p, rec, aggOpts.Progress, labels, members, workers)
	rec.Add("sample.assigned", assigned)
	rec.Add("sample.fresh_singletons", fresh)
	// Completion event (always delivered): every object has been scanned.
	aggOpts.Progress.Emit(obs.ProgressEvent{Stage: "sample:assign", Done: int64(n), Total: int64(n)})
	assignSpan.End()

	bound := k // labels ≥ k are fresh singletons, one object each
	if !sOpts.noSingletonRecluster {
		rs := rec.Start("sample:recluster")
		var err error
		bound, err = p.reclusterSingletons(labels, k, method, aggOpts, rng)
		rs.End()
		if err != nil {
			return nil, err
		}
	}
	renumber(labels, bound)
	return labels, nil
}

// permPrefix returns rng.Perm(n)[:s] in O(s) memory. It replays Perm's
// inside-out shuffle — for i < n, j := rng.Intn(i+1); m[i] = m[j]; m[j] = i
// — storing only the first s slots. For i ≥ s the move m[i] = m[j] only
// writes a slot past the prefix, and a value never moves back into the
// prefix (it only moves to the current slot i), so the prefix changes only
// through m[j] = i with j < s. Every Intn call is made, in Perm's order, so
// rng ends in the same state as after Perm(n) and the recursive recluster
// Sample that draws from it next sees the same stream.
func permPrefix(rng *rand.Rand, n, s int) []int {
	m := make([]int, s)
	for i := 0; i < s; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	for i := s; i < n; i++ {
		if j := rng.Intn(i + 1); j < s {
			m[j] = i
		}
	}
	return m
}

// renumber rewrites labels in place to 0..k−1 in order of first
// appearance — what partition.Labels.Normalize returns, without its copy
// and its map. Labels below bound go through a dense table, 4 bytes per
// label value; a label ≥ bound must be carried by one object alone, so it
// is always first seen where it stands and takes the next id without a
// lookup. Sample's fresh singletons k+v are such labels, which keeps the
// table at the sample's k clusters plus the recluster's, not at n.
func renumber(labels partition.Labels, bound int) {
	ids := make([]int32, bound) // label → new label + 1; 0 = unseen
	next := 0
	for i, c := range labels {
		switch {
		case c >= bound:
			labels[i] = next
			next++
		case ids[c] == 0:
			ids[c] = int32(next) + 1
			labels[i] = next
			next++
		default:
			labels[i] = int(ids[c]) - 1
		}
	}
}

// assignKernel is the columnar label-kernel assignment pass. The default
// route evaluates M(v, C_c) for all k sample clusters through the co-label
// histograms in one O(m·k) pass per object; under MissingAverage with
// missing labels present — where per-pair vote denominators do not
// decompose per clustering — it evaluates the sample members through the
// kernel's bulk row path instead (still O(m·s) per object, but tight label
// compares rather than interface probes, and bit-identical to per-pair
// probing unconditionally). Objects stream on contiguous chunk stripes.
//
// Either route reads nothing of v but its packed label row, and the sample
// clusters are fixed, so twins — objects with equal rows — always get the
// same decision. Each stripe therefore keeps a bounded twin memo (see
// twinMemo): a repeated row broadcasts its stored decision after O(m)
// hashing and comparing instead of the O(m·k) evaluation. Labels do not
// depend on which rows the memo holds, so they stay bit-identical at every
// worker count, width and missing mode. The tests pin both routes against
// a probing reference pass (one Dist call per object/member pair, plugged
// in through SamplingOptions.assign) that runs the same selection loop, so
// the same affinities produce the same labels.
//
// Counters: sample.assign.dist_probes is bulk-charged with the (n−s)·s
// probes a per-pair probing pass would make (the kernel evaluates the
// same object/member pairs, just not one Dist call at a time — and a twin
// not even that; the charge stays analytic so it does not depend on the
// stripe layout); sample.assign.kernel_cols records the n packed label
// columns and sample.assign.hist_builds the per-clustering histogram
// builds (0 on the row route). Each batch appends its objects per second
// to the sample.assign.throughput series, and the shared progress counter
// ticks once per batch (Done = objects scanned so far across all chunks,
// Total = n).
func (p *Problem) assignKernel(rec *obs.Recorder, progress *obs.Progress, labels partition.Labels, members [][]int, workers int) (assigned, fresh int64) {
	n, k := p.n, len(members)
	rec.Add("sample.assign.kernel_cols", int64(n))

	a := &assignPass{p: p, labels: labels, sizes: make([]float64, k), progress: progress}
	sampleSize := 0
	for c, mem := range members {
		a.sizes[c] = float64(len(mem))
		sampleSize += len(mem)
	}
	if p.average && p.anyMiss {
		a.flat = make([]int, 0, sampleSize)
		a.ends = make([]int, 0, k)
		for _, mem := range members {
			a.flat = append(a.flat, mem...)
			a.ends = append(a.ends, len(a.flat))
		}
		rec.Add("sample.assign.hist_builds", 0)
	} else {
		a.hist = p.buildColabelHist(members)
		rec.Add("sample.assign.hist_builds", int64(p.m))
	}
	rec.Add("sample.assign.dist_probes", int64(n-sampleSize)*int64(sampleSize))
	a.tpSeries = rec.Series("sample.assign.throughput")

	a.counts = make([][2]int64, workers) // assigned, fresh per stripe
	chunk := (n + workers - 1) / workers
	stripes("sample:assign", workers, func(stripe int) {
		lo, hi := min(stripe*chunk, n), min((stripe+1)*chunk, n)
		switch p.width {
		case width8:
			assignStripe(a, p.lab8, stripe, lo, hi)
		default:
			assignStripe(a, p.lab32, stripe, lo, hi)
		}
	})
	for _, c := range a.counts {
		assigned += c[0]
		fresh += c[1]
	}
	return assigned, fresh
}

// assignPass is the state one assignKernel call shares across its stripes.
// Exactly one of hist (histogram route) and flat/ends (row route: sample
// members flattened in cluster order, per-cluster segment ends) is set.
// Each stripe tallies in locals and writes its counts entry once, at its
// end: the entries share a cache line, which per-object increments would
// bounce between the stripes' cores.
type assignPass struct {
	p          *Problem
	labels     partition.Labels
	sizes      []float64 // |C_c| per sample cluster
	hist       *colabelHist
	flat, ends []int
	counts     [][2]int64 // assigned, fresh per stripe
	tpSeries   *obs.Series
	progress   *obs.Progress
	done       atomic.Int64
}

// assignStripe assigns the unsampled objects in [lo, hi) with the stripe's
// own twin memo, generic over the storage width of lab.
func assignStripe[W labelWord](a *assignPass, lab []W, stripe, lo, hi int) {
	n, m, k := a.p.n, a.p.m, len(a.sizes)
	aff := make([]float64, k)
	var buf []float64
	if a.hist == nil {
		buf = make([]float64, len(a.flat))
	}
	memo := newTwinMemo(hi - lo)
	var assigned, fresh int64
	for bLo := lo; bLo < hi; bLo += assignBatchSize {
		bHi := min(bLo+assignBatchSize, hi)
		var batchStart time.Time
		if a.tpSeries != nil {
			batchStart = time.Now()
		}
		for v := bLo; v < bHi; v++ {
			if a.labels[v] != partition.Missing {
				continue
			}
			slot, c, hit := memoFind(&memo, lab, m, v)
			if !hit {
				c = assignDecide(a, lab, v, aff, buf)
				memo.store(slot, v, c)
			}
			if c < 0 {
				a.labels[v] = k + v
				fresh++
			} else {
				a.labels[v] = int(c)
				assigned++
			}
		}
		d := a.done.Add(int64(bHi - bLo))
		if a.tpSeries != nil {
			// Per-batch throughput (objects/s), stepped by the shared
			// scan position. Timing-bearing, so benchdiff ignores it.
			if sec := time.Since(batchStart).Seconds(); sec > 0 {
				a.tpSeries.Append(d, float64(bHi-bLo)/sec)
			}
		}
		a.progress.Emit(obs.ProgressEvent{
			Stage: "sample:assign", Done: d, Total: int64(n),
		})
	}
	a.counts[stripe] = [2]int64{assigned, fresh}
}

// assignDecide evaluates object v against the sample clusters: it returns
// the cluster minimizing d(v, C_i) = M(v,C_i) + Σ_{j≠i}(|C_j| − M(v,C_j)),
// or −1 when a fresh singleton (cost Σ_j (|C_j| − M(v,C_j))) is strictly
// cheaper. aff (length k) and, on the row route, buf (length s) are
// scratch. The histogram route sums totalAway inside its last affinity
// pass, so one pass over aff and the hoisted sizes decides.
func assignDecide[W labelWord](a *assignPass, lab []W, v int, aff, buf []float64) int32 {
	var totalAway float64
	if a.hist != nil {
		totalAway = affinitiesW(a.hist, lab, v, a.sizes, aff)
	} else {
		a.p.DistRowTo(v, a.flat, buf)
		start := 0
		for ci, end := range a.ends {
			var s float64
			for _, x := range buf[start:end] {
				s += x
			}
			aff[ci] = s
			totalAway += a.sizes[ci] - s
			start = end
		}
	}
	best, bestCost := int32(-1), totalAway // -1 = fresh singleton
	for ci, size := range a.sizes {
		d := aff[ci] + totalAway - (size - aff[ci])
		if d < bestCost {
			best, bestCost = int32(ci), d
		}
	}
	return best
}

// assignMemoCap caps one stripe's twin memo, in slots (a power of two):
// 2¹⁴ slots are 128 KiB. A 2¹⁶-slot memo bought only a few percent more
// speed on the 3M-object ladder rung for 1.5 MiB more allocation (see
// docs/PERFORMANCE.md). A variable only so tests can shrink it to reach
// the stop-inserting path.
var assignMemoCap = 1 << 14

// twinMemo is one assignment stripe's memo of decided label rows: an
// open-addressing table keyed by the packed row, hashed and compared in
// place (rowHash, equalRows — the same keying as groupRows), holding a
// representative object and its decision (sample cluster index, or −1 for
// a fresh singleton) per slot. The table has min(assignMemoCap,
// nextPow2(2·stripe objects)) slots, and inserts stop once half of them
// are taken: probe runs stay short, memory stays fixed, and rows decided
// after that are simply evaluated. A hit only replays a decision that
// evaluating the row would reproduce, so which rows the memo holds never
// changes a label.
type twinMemo struct {
	slots []memoSlot
	mask  uint64
	free  int // inserts left before the table stops growing
}

// memoSlot is one twin-memo entry; rep == 0 marks an empty slot.
type memoSlot struct {
	rep int32 // representative object + 1
	dec int32
}

// newTwinMemo sizes a memo for a stripe of the given number of objects.
func newTwinMemo(objects int) twinMemo {
	size := 1
	for size < 2*objects && size < assignMemoCap {
		size <<= 1
	}
	return twinMemo{slots: make([]memoSlot, size), mask: uint64(size - 1), free: size / 2}
}

// memoFind looks up the row of object v. On a hit it returns the decision
// stored for an earlier twin; on a miss it returns the empty slot where
// store may record v's decision. At least half the slots stay empty, so
// the probe always ends.
func memoFind[W labelWord](t *twinMemo, lab []W, m, v int) (slot uint64, dec int32, hit bool) {
	row := lab[v*m : v*m+m]
	for j := rowHash(row) & t.mask; ; j = (j + 1) & t.mask {
		e := t.slots[j]
		if e.rep == 0 {
			return j, 0, false
		}
		if r := int(e.rep - 1); equalRows(lab[r*m:r*m+m], row) {
			return j, e.dec, true
		}
	}
}

// store records v's decision in the empty slot memoFind returned for it,
// unless the memo has stopped inserting.
func (t *twinMemo) store(slot uint64, v int, dec int32) {
	if t.free == 0 {
		return
	}
	t.free--
	t.slots[slot] = memoSlot{rep: int32(v) + 1, dec: dec}
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

// subProblem restricts the inputs to the given (sorted) object indices,
// gathering the selected label rows into one fresh arena at the parent's
// width.
func (p *Problem) subProblem(idx []int) *Problem {
	return p.over(p.gather(idx))
}

// reclusterSingletons gathers every object currently in a singleton cluster
// and aggregates that subset again, splicing the result back into labels.
// labels is Sample's provisional labeling: sample clusters 0..k−1 and
// fresh singletons k+v, each carried by object v alone. Very large
// singleton sets are handled by a recursive Sample call so the
// post-processing stays near-linear. The recluster's labels are spliced in
// at k + label: the singletons they replace held every label ≥ k, so the
// range is free. It returns the bound renumber needs: every label below it
// may repeat, every label at or above it is one object's alone.
func (p *Problem) reclusterSingletons(labels partition.Labels, k int, method Method, aggOpts AggregateOptions, rng *rand.Rand) (bound int, err error) {
	// Fresh singletons are singletons by construction, so only the k
	// sample clusters need a size count: a flat k-entry array, not one
	// entry per provisional label.
	counts := make([]int32, k)
	nSingle := 0
	for _, c := range labels {
		if c < k {
			counts[c]++
		} else {
			nSingle++
		}
	}
	for _, c := range counts {
		if c == 1 {
			nSingle++
		}
	}
	if nSingle < 2 {
		return k, nil
	}
	singles := make([]int, 0, nSingle)
	for i, c := range labels {
		if c >= k || counts[c] == 1 {
			singles = append(singles, i)
		}
	}
	aggOpts.Recorder.Add("sample.recluster.objects", int64(len(singles)))

	sub := p.subProblem(singles)
	var subLabels partition.Labels
	if len(singles) > reclusterCap {
		subLabels, err = sub.Sample(method, aggOpts, SamplingOptions{Rand: rng, noSingletonRecluster: true})
	} else {
		subLabels, err = sub.Aggregate(method, aggOpts)
	}
	if err != nil {
		return 0, err
	}
	if rec := aggOpts.Recorder; rec != nil && len(singles) <= reclusterCap {
		// Post-recluster quality: the disagreement cost of the re-aggregated
		// singleton subset on its own sub-problem. Instrumentation-only: an
		// O(|singles|·m) contingency pass. The reclusterCap guard keeps the
		// series to the exact reclusters, whose points benchdiff compares
		// against the committed reports.
		rec.Series("sample.recluster.cost").Append(int64(len(singles)), sub.Disagreement(subLabels))
	}

	bound = k
	for i, obj := range singles {
		c := k + subLabels[i]
		labels[obj] = c
		bound = max(bound, c+1)
	}
	return bound, nil
}
