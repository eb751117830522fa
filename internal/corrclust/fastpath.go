package corrclust

import (
	"clusteragg/internal/obs"
)

// This file holds the one distance reader every pair scan goes through.
// newRowReader looks through obs.CountingInstance layers once and picks the
// cheapest read an instance offers: contiguous *Matrix storage, one bulk
// DistRowTo call on a matrix-free RowDistancer, or one Dist call per pair.
// Every path yields the same values in the same order, so a consumer's
// arithmetic is bit-identical on all three; bulk reads are charged to the
// counting layers in the amount the per-pair path counts call by call, so
// <method>.dist_probes totals do not depend on the path either (see
// docs/PERFORMANCE.md).

// RowDistancer is an Instance that can evaluate one object against many in
// a single call, without a per-pair interface probe: DistRowTo must fill
// dst[j] with exactly Dist(u, targets[j]) (zero on diagonal hits), bit for
// bit, and must be safe for concurrent use with distinct dst buffers. The
// row reader detects it the same way it detects a *Matrix, so the O(n²)
// pair scans (Cost, LowerBound, MatrixFromInstance, AGGLOMERATIVE's initial
// copy, BALLS' weight ordering, FURTHEST's furthest pair) read row tails in
// bulk, and LOCALSEARCH's row gathers, BALLS' ball construction and
// FURTHEST's center rows and cost-change reads evaluate full rows or target
// lists in one call — the matrix-free analogue of the Row/RowTo reads, used
// by core's columnar label kernel to keep large-n pipelines O(n·m) in memory.
type RowDistancer interface {
	Instance
	DistRowTo(u int, targets []int, dst []float64)
}

// rowReader evaluates one object against many through the cheapest path an
// instance offers: matrix storage, one bulk DistRowTo on a matrix-free row
// oracle (both bulk-charged to any counting layers), or one Dist call per
// pair otherwise. Every path fills the same values and charges the same
// number of reads, so a consumer's arithmetic and its dist_probes totals do
// not depend on the path.
type rowReader struct {
	inst   Instance
	mx     *Matrix
	rd     RowDistancer // matrix-free bulk row oracle (nil without one)
	rdIDs  []int        // identity targets for rd gathers
	charge func(int64)  // adds bulk reads to every counting layer unwrapped
}

// newRowReader unwraps inst through obs.CountingInstance layers to a *Matrix
// or a RowDistancer. Without either, reads go through inst itself, whose
// counting layers then count every Dist call on their own.
func newRowReader(inst Instance) rowReader {
	r := rowReader{inst: inst, charge: func(int64) {}}
	var counters []*obs.Counter
	for cur := inst; ; {
		switch v := cur.(type) {
		case *Matrix:
			r.mx = v
		case RowDistancer:
			r.rd, r.rdIDs = v, identity(inst.N())
		case *obs.CountingInstance:
			if next, ok := v.Unwrap().(Instance); ok {
				counters = append(counters, v.ProbeCounter())
				cur = next
				continue
			}
		}
		break
	}
	if (r.mx != nil || r.rd != nil) && len(counters) > 0 {
		r.charge = func(reads int64) {
			for _, c := range counters {
				c.Add(reads)
			}
		}
	}
	return r
}

// tailBuf returns the scratch readTail needs: nil on a matrix, whose tails
// alias storage, an n-float buffer otherwise.
func (r rowReader) tailBuf() []float64 {
	if r.mx != nil {
		return nil
	}
	return make([]float64, r.inst.N())
}

// readTail returns the row tail X_{u,u+1..n−1} that a scan over the pairs
// u < v reads, charging n−1−u reads. On a matrix it aliases Row(u) and buf
// is unused, so callers must not write through the result; otherwise it
// fills and returns buf[:n−1−u], so buf may be the tail's destination.
func (r rowReader) readTail(u int, buf []float64) []float64 {
	return r.readSpan(u, u+1, r.inst.N(), buf)
}

// readSpan is readTail over the columns lo ≤ v < hi of the tail only
// (u < lo ≤ hi ≤ n), charging hi−lo reads, so a scan can walk a long tail
// through a short buffer.
func (r rowReader) readSpan(u, lo, hi int, buf []float64) []float64 {
	switch {
	case r.mx != nil:
		r.charge(int64(hi - lo))
		return r.mx.Row(u)[lo-u-1 : hi-u-1]
	case r.rd != nil:
		buf = buf[:hi-lo]
		r.rd.DistRowTo(u, r.rdIDs[lo:hi], buf)
		r.charge(int64(len(buf)))
	default:
		buf = buf[:hi-lo]
		for j := range buf {
			buf[j] = r.inst.Dist(u, lo+j)
		}
	}
	return buf
}

// readRowInto fills buf[:n] with X_v· and returns it. Safe for concurrent
// use with distinct buffers.
func (r rowReader) readRowInto(v int, buf []float64) []float64 {
	n := r.inst.N()
	switch {
	case r.mx != nil:
		r.mx.RowTo(v, buf)
		r.charge(int64(n - 1))
	case r.rd != nil:
		r.rd.DistRowTo(v, r.rdIDs, buf)
		r.charge(int64(n - 1))
	default:
		for u := 0; u < n; u++ {
			if u == v {
				buf[u] = 0
				continue
			}
			buf[u] = r.inst.Dist(v, u)
		}
	}
	return buf[:n]
}

// readTargetsInto fills buf[j] with X_{v,targets[j]} for targets that
// exclude v, charging len(targets) reads, and returns buf[:len(targets)].
func (r rowReader) readTargetsInto(v int, targets []int, buf []float64) []float64 {
	buf = buf[:len(targets)]
	switch {
	case r.mx != nil:
		for j, u := range targets {
			buf[j] = r.mx.Dist(v, u)
		}
		r.charge(int64(len(targets)))
	case r.rd != nil:
		r.rd.DistRowTo(v, targets, buf)
		r.charge(int64(len(targets)))
	default:
		for j, u := range targets {
			buf[j] = r.inst.Dist(v, u)
		}
	}
	return buf
}

// identity returns the target list [0, 1, ..., n); row consumers slice it
// to address contiguous object ranges without per-row allocations.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
