package corrclust

import (
	"sort"

	"clusteragg/internal/partition"
)

// This file is the incremental LOCALSEARCH kernel. The reference sweep
// (localSearchReference, a test oracle) rebuilds M(v, C_i) = Σ_{u∈C_i} X_vu
// from a full distance row for every object it visits, so each pass costs
// O(n²). The kernel instead keeps the whole affinity table alive across the
// run:
//
//   - cols[c][u] = M(u, C_c), one n-float column per materialized cluster
//     slot, maintained under moves: when v changes cluster, row X_v· is
//     subtracted from the old cluster's column and added to the new one —
//     O(n) per accepted move instead of O(n) per visited object;
//   - away[v] = (n−1) − Σ_u X_vu, the "totalAway" identity: since every
//     object other than v sits in exactly one cluster,
//     Σ_j (|C_j| − M(v, C_j)) is invariant under moves and never needs
//     recomputing (it is exact up to the one initial row sum);
//   - live is the ascending list of non-empty cluster slots, so evaluating
//     an object is O(k) table reads, not O(slots).
//
// A table-mode sweep therefore costs O(n·k + moves·n). The kernel picks one
// of three modes per sweep, by the shape of the current clustering, but
// evaluates objects with one loop (evaluate) in two of them and builds
// columns with one sum (sumColumns):
//
//   - TABLE mode, once the live cluster count has collapsed under
//     tableWidthFor(n): every column is materialized, evaluation is O(k)
//     reads of maintained state and touches no distances at all. The table
//     is built in one O(n²) pass that adds each object's row to its
//     cluster's column and records the away identity from the same row —
//     the only full-matrix scan the kernel ever makes; refreshColumn is the
//     same pass restricted to one cluster's members.
//   - GROWING mode, for the default all-singletons start (where a full
//     table would be O(n²) memory and stride n columns per evaluation):
//     evaluation gathers v's contiguous row anyway, and a singleton cluster
//     {u} needs no column — M(v, {u}) is just row[u]. Columns materialize
//     lazily, exactly when a cluster first gains its second member (one
//     extra row read), so the table grows with the few real clusters while
//     the shrinking singleton pool stays implicit in the rows. The away
//     identity is recorded per object as a free side effect of the row sum,
//     so the switch to TABLE mode at a later sweep boundary only has to
//     materialize the few surviving singleton columns — there is no
//     separate O(n²) table-build pass. Routing this start through REBUILD
//     mode instead measured about twice as slow (docs/PERFORMANCE.md).
//   - REBUILD mode, for an explicit Init with more than tableWidth
//     multi-member clusters: the reference sweep's per-object M rebuild,
//     verbatim (evaluateRebuild). Instances whose optimum really has
//     k > n/8 clusters simply keep the reference behavior — no regression —
//     and drop into TABLE mode at the first sweep boundary where the count
//     has collapsed. Growing a column per cluster of such an Init instead
//     kept the labels but measured slower, with ~55× the allocation.
//
// Decision logic in all modes mirrors the reference sweep exactly
// (ascending slot order, strict-< tie-breaks, the same epsilon accept
// guard, the same free-slot recycling), so on instances whose distance
// arithmetic is exact — dyadic values, e.g. aggregation over 2^i
// clusterings — the kernel's floats equal the reference's
// reals and the labels are identical. On arbitrary floats the maintained
// columns accumulate drift of a few ulps per delta; the epsilon guard
// absorbs it at accept/reject decisions and refreshColumn rebuilds a column
// exactly after refreshEvery deltas, bounding it globally.
//
// All distance reads go through the row reader's readRowInto, which gathers
// a contiguous matrix row, makes one DistRowTo call on a row oracle, or
// makes the same n−1 Dist calls on any other instance — every path feeds
// the identical kernel arithmetic in the identical order, so results are
// bit-identical and the bulk charges equal the per-call counts.

// lsKernel is the incremental LOCALSEARCH state.
type lsKernel struct {
	rowReader
	n       int
	rowBuf  []float64
	rowFor  int       // object whose row rowBuf currently holds, -1 if none
	rowBuf2 []float64 // second row for pair materialization in growing mode
	mBuf    []float64 // rebuild-mode per-slot affinity scratch

	labels partition.Labels
	size   []int // size[c] = members of slot c (0 = dead)
	free   []int // recycled dead slot ids, LIFO like the reference
	live   []int // non-empty slot ids, ascending

	tableBuilt bool
	growing    bool
	tableWidth int         // live-cluster count at or under which the table completes
	cols       [][]float64 // cols[c][u] = M(u, C_c); nil until materialized
	dirty      []int       // delta updates since the column was last exact
	solo       []int       // growing mode: sole member of an unmaterialized singleton slot, -1 otherwise
	away       []float64   // away[v] = (n-1) - Σ_u X_vu

	refreshEvery int

	moves        int64
	deltaUpdates int64
	refreshes    int64
	improvement  float64 // cumulative accepted objective improvement
}

// tableWidthFor bounds the live-cluster count at which the affinity table is
// fully materialized: wide enough that small instances get the table
// immediately, narrow enough that the table stays O(n·k) with k ≪ n and
// evaluations keep their working set of columns cache-resident.
func tableWidthFor(n int) int {
	w := n / 8
	if w < 64 {
		w = 64
	}
	if w > 1024 {
		w = 1024
	}
	return w
}

// readRow is readRowInto against the kernel's own buffer, memoized on the
// last object gathered: an evaluation followed by the move's column updates
// reads v's row once, not twice. Rows never change, so the cache needs no
// invalidation.
func (k *lsKernel) readRow(v int) []float64 {
	if k.rowFor != v {
		k.readRowInto(v, k.rowBuf)
		k.rowFor = v
	}
	return k.rowBuf
}

// newLSKernel sets up the bookkeeping for the given (normalized) starting
// labels in O(n). No distances are read here: the sweep modes read rows on
// demand, and the affinity table completes lazily at the first sweep
// boundary where the cluster count has collapsed under tableWidth.
func newLSKernel(inst Instance, labels partition.Labels, refreshEvery int) *lsKernel {
	n := inst.N()
	slots := labels.K()
	k := &lsKernel{
		rowReader:    newRowReader(inst),
		n:            n,
		rowBuf:       make([]float64, n),
		rowFor:       -1,
		labels:       labels,
		size:         make([]int, slots),
		live:         make([]int, slots),
		cols:         make([][]float64, slots),
		dirty:        make([]int, slots),
		solo:         make([]int, slots),
		away:         make([]float64, n),
		tableWidth:   tableWidthFor(n),
		refreshEvery: refreshEvery,
	}
	for _, c := range labels {
		k.size[c]++
	}
	// Normalized labels use every id in [0, K), so all slots start live.
	for c := range k.live {
		k.live[c] = c
		k.solo[c] = -1
	}
	// The default all-singletons start (normalized singletons are the
	// identity labeling) enters growing mode when a full table would be too
	// wide; every cluster starts as an implicit singleton.
	if slots == n && n > k.tableWidth {
		k.growing = true
		k.rowBuf2 = make([]float64, n)
		for c := range k.solo {
			k.solo[c] = c
		}
	}
	return k
}

// maybeBuildTable completes the affinity table once the live cluster count
// is small enough for table mode to pay off. Called at sweep boundaries so
// a whole pass runs in a single mode. Coming out of growing mode only the
// surviving unmaterialized singletons need columns (one row read each) and
// the away identity is already recorded; coming out of rebuild mode (or
// before the first sweep of a narrow start) the whole table is built in one
// O(n²) row pass — the only full-matrix scan the kernel ever makes.
func (k *lsKernel) maybeBuildTable() {
	if k.tableBuilt || len(k.live) > k.tableWidth {
		return
	}
	if k.growing {
		// The growing entry condition (live = n > tableWidth) guarantees at
		// least one full growing sweep ran before the count collapsed, so
		// away[] is fully recorded.
		for _, c := range k.live {
			u := k.solo[c]
			if u < 0 {
				continue
			}
			col := k.cols[c]
			if col == nil {
				col = make([]float64, k.n)
				k.cols[c] = col
			}
			copy(col, k.readRow(u))
			k.solo[c] = -1
			k.dirty[c] = 0
		}
		k.growing = false
		k.tableBuilt = true
		return
	}
	for _, c := range k.live {
		if k.cols[c] == nil {
			k.cols[c] = make([]float64, k.n)
		}
	}
	k.sumColumns(-1)
	k.tableBuilt = true
}

// evaluate returns v's best move target (-1 = fresh singleton), the move's
// objective improvement curCost−bestCost, and whether it improves on the
// current assignment by more than epsilon, in table and growing mode. It
// mirrors the reference sweep's decision logic: ascending slot order,
// strict-< best selection, the singleton baseline, the epsilon accept
// guard. In table mode every live solo is −1, so it reads only the
// maintained columns — O(live clusters), no distance access. In growing
// mode v's row is read anyway: an implicit singleton {u}'s affinity is
// row[u], and the away identity falls out of the row sum (recorded for the
// later table completion). The gain is observational (it feeds the
// progress events and the localsearch.improvement gauge); accept/reject
// decisions do not read it, so results are unchanged by its accumulation.
func (k *lsKernel) evaluate(v int) (int, float64, bool) {
	var row []float64
	if !k.tableBuilt {
		row = k.readRow(v)
		var s float64
		for _, x := range row {
			s += x
		}
		k.away[v] = float64(k.n-1) - s
	}
	cur := k.labels[v]
	away := k.away[v]
	best, bestCost := -1, away // -1 = fresh singleton, d = totalAway
	curCost := away
	for _, c := range k.live {
		var m float64
		if u := k.solo[c]; u >= 0 {
			m = row[u]
		} else {
			m = k.cols[c][v]
		}
		sz := k.size[c]
		if c == cur {
			sz--
		}
		d := m + away - (float64(sz) - m)
		if c == cur {
			curCost = d
		}
		if d < bestCost {
			best, bestCost = c, d
		}
	}
	if bestCost >= curCost-lsEpsilon || best == cur {
		return -1, 0, false
	}
	return best, curCost - bestCost, true
}

// evaluateRebuild is the rebuild-mode evaluation: M(v,·) is accumulated from
// v's row into the per-slot scratch mBuf (the reference sweep's inner loop,
// value for value), so it needs no maintained table.
func (k *lsKernel) evaluateRebuild(v int) (int, float64, bool) {
	if cap(k.mBuf) < len(k.size) {
		k.mBuf = make([]float64, len(k.size))
	}
	m := k.mBuf[:len(k.size)]
	for i := range m {
		m[i] = 0
	}
	for u, x := range k.readRow(v) {
		if u != v {
			m[k.labels[u]] += x
		}
	}
	cur := k.labels[v]
	var totalAway float64
	for i := range m {
		sz := k.size[i]
		if i == cur {
			sz--
		}
		totalAway += float64(sz) - m[i]
	}
	best, bestCost := -1, totalAway // -1 = fresh singleton
	curCost := totalAway
	for i := range m {
		sz := k.size[i]
		if i == cur {
			sz--
		}
		d := m[i] + totalAway - (float64(sz) - m[i])
		if i == cur {
			curCost = d
		}
		if d < bestCost {
			best, bestCost = i, d
		}
	}
	if bestCost >= curCost-lsEpsilon || best == cur {
		return -1, 0, false
	}
	return best, curCost - bestCost, true
}

// apply moves v to target (-1 = fresh singleton), maintaining sizes, the
// free and live lists, and the affected affinity columns: one row read,
// O(n) float updates per materialized column. In growing mode a fresh
// singleton stays implicit (no column at all), and a singleton gaining its
// second member materializes its column exactly from the two rows; in table
// mode a fresh singleton's column is assigned outright from the row —
// exact, so its drift counter resets. Columns that exceed refreshEvery
// deltas are rebuilt exactly.
func (k *lsKernel) apply(v, target int) {
	cur := k.labels[v]
	k.size[cur]--
	emptied := k.size[cur] == 0
	if emptied {
		k.free = append(k.free, cur)
		k.removeLive(cur)
	}
	fresh := target == -1
	if fresh {
		if len(k.free) > 0 {
			target = k.free[len(k.free)-1]
			k.free = k.free[:len(k.free)-1]
		} else {
			target = len(k.size)
			k.size = append(k.size, 0)
			k.cols = append(k.cols, nil)
			k.dirty = append(k.dirty, 0)
			k.solo = append(k.solo, -1)
		}
		k.insertLive(target)
	}
	switch {
	case k.tableBuilt:
		row := k.readRow(v)
		if k.cols[target] == nil {
			k.cols[target] = make([]float64, k.n)
		}
		colNew, colOld := k.cols[target], k.cols[cur]
		if fresh {
			// M(u, {v}) = X_uv exactly: assignment, not accumulation.
			copy(colNew, row)
			k.dirty[target] = 0
		} else {
			for u, x := range row {
				colNew[u] += x
			}
			k.dirty[target]++
		}
		for u, x := range row {
			colOld[u] -= x
		}
		k.dirty[cur]++
		k.deltaUpdates += int64(2 * (k.n - 1))
	case k.growing:
		switch {
		case fresh:
			// Back to an implicit singleton: drop any stale column. No row
			// needed — the new cluster stays implicit.
			k.cols[target] = nil
			k.dirty[target] = 0
			k.solo[target] = v
		case k.solo[target] >= 0:
			// The target singleton gains its second member: materialize its
			// column exactly as the sum of the two members' rows.
			col := k.cols[target]
			if col == nil {
				col = make([]float64, k.n)
				k.cols[target] = col
			}
			row := k.readRow(v)
			row2 := k.readRowInto(k.solo[target], k.rowBuf2)
			for u := range col {
				col[u] = row2[u] + row[u]
			}
			k.solo[target] = -1
			k.dirty[target] = 0
		default:
			colNew := k.cols[target]
			for u, x := range k.readRow(v) {
				colNew[u] += x
			}
			k.dirty[target]++
			k.deltaUpdates += int64(k.n - 1)
		}
		if k.solo[cur] == v {
			k.solo[cur] = -1 // v's own implicit singleton just died
		} else if colOld := k.cols[cur]; colOld != nil {
			for u, x := range k.readRow(v) {
				colOld[u] -= x
			}
			k.dirty[cur]++
			k.deltaUpdates += int64(k.n - 1)
		}
	}
	k.size[target]++
	k.labels[v] = target
	k.moves++
	if k.tableBuilt || k.growing {
		if k.cols[target] != nil && k.dirty[target] >= k.refreshEvery {
			k.refreshColumn(target)
		}
		if !emptied && k.cols[cur] != nil && k.dirty[cur] >= k.refreshEvery {
			k.refreshColumn(cur)
		}
	}
}

// refreshColumn rebuilds cols[c] exactly from the distance oracle,
// discarding accumulated float drift: one row read per member, ascending.
func (k *lsKernel) refreshColumn(c int) {
	clear(k.cols[c])
	k.sumColumns(c)
	k.dirty[c] = 0
	k.refreshes++
}

// sumColumns is the one column build: for each object v in ascending order
// it adds v's row to its cluster's column, contiguously. With only < 0 it
// covers every object — the table build, which also records away[v] from
// the same row — and otherwise only the members of cluster only. Each cell
// cols[c][u] thus sums X_vu over c's members in ascending order; X is
// symmetric and the diagonal adds +0, so this equals the per-object sum
// M(u, C_c) the reference sweep forms from u's own row, bit for bit.
func (k *lsKernel) sumColumns(only int) {
	for v, c := range k.labels {
		if only >= 0 && c != only {
			continue
		}
		row := k.readRow(v)
		col := k.cols[c]
		for u, x := range row {
			col[u] += x
		}
		if only < 0 {
			var s float64
			for _, x := range row {
				s += x
			}
			k.away[v] = float64(k.n-1) - s
		}
	}
}

func (k *lsKernel) removeLive(c int) {
	i := sort.SearchInts(k.live, c)
	k.live = append(k.live[:i], k.live[i+1:]...)
}

func (k *lsKernel) insertLive(c int) {
	i := sort.SearchInts(k.live, c)
	k.live = append(k.live, 0)
	copy(k.live[i+1:], k.live[i:])
	k.live[i] = c
}

// sweep is one Gauss–Seidel pass: every object is evaluated against the
// up-to-date state, in whichever mode the kernel is in, and improving moves
// apply immediately. It reports whether any move was applied.
func (k *lsKernel) sweep(onMove func(v, from, to int)) bool {
	k.maybeBuildTable()
	improved := false
	for v := 0; v < k.n; v++ {
		var target int
		var gain float64
		var ok bool
		if k.tableBuilt || k.growing {
			target, gain, ok = k.evaluate(v)
		} else {
			target, gain, ok = k.evaluateRebuild(v)
		}
		if !ok {
			continue
		}
		from := k.labels[v]
		k.apply(v, target)
		k.improvement += gain
		improved = true
		if onMove != nil {
			onMove(v, from, k.labels[v])
		}
	}
	return improved
}
