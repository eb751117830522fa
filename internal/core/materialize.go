package core

import (
	"runtime"

	"clusteragg/internal/corrclust"
	"clusteragg/internal/obs"
)

// This file caches the Problem's distances in a dense matrix: row u's
// tail X_{u,u+1..n−1} is one DistRowTo read, a few lane words per pair and
// a read of the distance table, so the matrix holds Dist bit for bit under
// every option.
//
// Work is split across row-stripe workers: worker w owns rows u ≡ w (mod
// workers), which interleaves long and short row tails. Each row is read
// on its own, so the result is the same for every worker count.

// materializeMinParallel is the matrix size below which the build runs on a
// single stripe (goroutine overhead dominates under it).
const materializeMinParallel = 256

// Matrix materializes the pairwise distances into a dense matrix, running
// on all CPUs for large instances. Algorithms that probe distances many
// times run faster on the materialized form; the cost is O(n²) space and
// one kernel row read per object.
func (p *Problem) Matrix() *corrclust.Matrix {
	return p.materialize(nil, 0)
}

// MatrixWorkers is Matrix with an explicit worker cap (0 means GOMAXPROCS).
func (p *Problem) MatrixWorkers(workers int) *corrclust.Matrix {
	return p.materialize(nil, workers)
}

// materialize builds the matrix on row stripes. rec (may be nil) receives
// the materialize.* counters: cells (stored pairs) and workers (effective
// stripe count). Each recorded build's wall time is its enclosing
// materialize span.
func (p *Problem) materialize(rec *obs.Recorder, workers int) *corrclust.Matrix {
	n := p.n
	mx := corrclust.NewMatrix(n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 || n < materializeMinParallel {
		workers = 1
	}
	rec.Add("materialize.cells", int64(n)*int64(n-1)/2)
	rec.Add("materialize.workers", int64(workers))

	objects := make([]int, n)
	for v := range objects {
		objects[v] = v
	}
	stripes("materialize", workers, func(stripe int) {
		for u := stripe; u < n; u += workers {
			p.DistRowTo(u, objects[u+1:], mx.Row(u))
		}
	})
	return mx
}
