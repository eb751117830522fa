package corrclust

import (
	"container/heap"

	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// agglomerativeReference is AGGLOMERATIVE on a lazy candidate heap: it seeds
// every pair (every pair under 1/2 for the parameter-free rule), pushes a
// fresh candidate for every surviving cluster after each merge, and skips
// popped candidates whose clusters have since changed. The valid candidates
// are exactly the live pairs, so it merges in (avg, a, b) order by
// construction. It is the oracle AgglomerativeWithOptions's cached-neighbor
// loop is checked against, and records the same agglomerative.merges
// counter and merge_loss series (plus its own heap_pushes, heap_pops and
// stale_pops). The heap's initial capacity hint is left out; it changed no
// result.
func agglomerativeReference(inst Instance, opts AgglomerativeOptions) partition.Labels {
	n, k := inst.N(), opts.K
	if n == 0 {
		return partition.Labels{}
	}
	if k > n {
		k = n
	}

	state := &mergeState{
		n:       n,
		size:    make([]int, n),
		version: make([]int, n),
		alive:   make([]bool, n),
		total:   make([]float64, n*(n-1)/2),
	}
	for i := 0; i < n; i++ {
		state.size[i] = 1
		state.alive[i] = true
	}

	h := &mergeHeap{}
	push := func(u, v int, x float64) {
		state.total[state.index(u, v)] = x
		// Pairs at distance >= 1/2 cannot trigger a merge while both
		// endpoints are untouched; fresh candidates are pushed whenever a
		// cluster changes, so skipping them here loses nothing.
		if k > 0 || x < 0.5 {
			heap.Push(h, mergeCand{a: u, b: v, avg: x})
			state.pushes++
		}
	}
	r := newRowReader(inst)
	buf := r.tailBuf()
	for u := 0; u < n; u++ {
		for j, x := range r.readTail(u, buf) {
			push(u, u+1+j, x)
		}
	}

	members := make([][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}

	var pops, stale, merges int64
	lossSeries := opts.Recorder.Series("agglomerative.merge_loss")
	labels := partition.Singletons(n)
	clusters := n
	for h.Len() > 0 && clusters > 1 {
		if k > 0 && clusters <= k {
			break // exact-k request satisfied
		}
		cand := heap.Pop(h).(mergeCand)
		pops++
		if !state.alive[cand.a] || !state.alive[cand.b] ||
			state.version[cand.a] != cand.verA || state.version[cand.b] != cand.verB {
			stale++
			continue
		}
		if k == 0 && cand.avg >= 0.5 {
			break // parameter-free stop: no pair below the threshold remains
		}
		state.merge(cand.a, cand.b, h, k)
		merges++
		lossSeries.Append(merges, cand.avg)
		for _, i := range members[cand.b] {
			labels[i] = cand.a
		}
		members[cand.a] = append(members[cand.a], members[cand.b]...)
		members[cand.b] = nil
		clusters--
		opts.Progress.Emit(obs.ProgressEvent{Stage: "agglomerative", Done: merges, Total: int64(n - 1)})
	}
	if rec := opts.Recorder; rec != nil {
		rec.Add("agglomerative.heap_pushes", state.pushes)
		rec.Add("agglomerative.heap_pops", pops)
		rec.Add("agglomerative.stale_pops", stale)
		rec.Add("agglomerative.merges", merges)
	}
	if merges > 0 {
		opts.Progress.Emit(obs.ProgressEvent{Stage: "agglomerative", Done: merges, Total: merges})
	}
	return labels.Normalize()
}

type mergeCand struct {
	a, b       int
	verA, verB int
	avg        float64
}

type mergeHeap []mergeCand

func (h mergeHeap) Len() int      { return len(h) }
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].avg != h[j].avg {
		return h[i].avg < h[j].avg
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}
func (h *mergeHeap) Push(x any) { *h = append(*h, x.(mergeCand)) }
func (h *mergeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type mergeState struct {
	n       int
	size    []int
	version []int
	alive   []bool
	total   []float64 // condensed pairwise total inter-cluster weight
	pushes  int64     // heap pushes, for the agglomerative.heap_pushes counter
}

func (s *mergeState) index(u, v int) int {
	if u > v {
		u, v = v, u
	}
	return u*(2*s.n-u-1)/2 + (v - u - 1)
}

// merge folds cluster b into cluster a and pushes refreshed candidates for
// every surviving cluster against a.
func (s *mergeState) merge(a, b int, h *mergeHeap, k int) {
	s.alive[b] = false
	s.size[a] += s.size[b]
	s.version[a]++
	for c := 0; c < s.n; c++ {
		if !s.alive[c] || c == a {
			continue
		}
		s.total[s.index(a, c)] += s.total[s.index(b, c)]
		avg := s.total[s.index(a, c)] / float64(s.size[a]*s.size[c])
		if k > 0 || avg < 0.5 {
			heap.Push(h, mergeCand{
				a: min(a, c), b: max(a, c),
				verA: s.version[min(a, c)], verB: s.version[max(a, c)],
				avg: avg,
			})
			s.pushes++
		}
	}
}
