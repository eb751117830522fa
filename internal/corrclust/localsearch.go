package corrclust

import (
	"clusteragg/internal/obs"
	"clusteragg/internal/partition"
)

// LocalSearchOptions configures LocalSearch.
type LocalSearchOptions struct {
	// Init is the starting clustering. When nil, every object starts in its
	// own singleton cluster.
	Init partition.Labels
	// Recorder, when non-nil, receives the localsearch.* counters (sweeps,
	// accepted moves, early convergence, delta updates, column refreshes),
	// the localsearch.clusters / localsearch.improvement gauges updated at
	// every sweep boundary, and the localsearch.{cost,moves,refreshes}
	// convergence series with one point per sweep (cost additionally gets a
	// step-0 point for the starting clustering, anchored by a one-time
	// O(n²) scan); the wall_ns deltas between cost points are the sweep
	// times. Nil records nothing and costs nothing.
	Recorder *obs.Recorder
	// Progress, when non-nil, receives one throttled event per sweep: Done
	// is the sweep number, Total the pass cap, Moves the accepted moves so
	// far, and Improved the cumulative objective improvement over the
	// starting clustering. Progress observes and never steers: labels are
	// bit-identical with and without it.
	Progress *obs.Progress

	// onMove, when non-nil, observes every applied move (object, old
	// cluster slot, new cluster slot), in application order. Test hook.
	onMove func(v, from, to int)
	// refreshEvery, when positive, replaces lsRefreshEvery. Test hook.
	refreshEvery int
	// maxPasses, when positive, replaces DefaultLocalSearchPasses. Test hook.
	maxPasses int
}

// DefaultLocalSearchPasses bounds the number of full passes over the
// objects. The algorithm stops as soon as a pass makes no improving move,
// and convergence is typically reached much earlier.
const DefaultLocalSearchPasses = 100

// lsRefreshEvery is the number of incremental delta updates a cluster's
// affinity column absorbs before it is rebuilt exactly from the distance
// oracle, bounding float drift. The column a move assigns a fresh
// singleton to is rebuilt exactly as a side effect, resetting its drift
// for free.
const lsRefreshEvery = 256

// lsEpsilon is the minimum cost improvement a move must make to be
// accepted, guarding against non-termination from floating-point noise.
const lsEpsilon = 1e-9

// LocalSearch runs the LOCALSEARCH algorithm of Section 4: repeatedly sweep
// the objects and move each one to the cluster (or to a fresh singleton)
// that minimizes its assignment cost
//
//	d(v, C_i) = M(v, C_i) + Σ_{j≠i} (|C_j| − M(v, C_j)),
//
// where M(v, C) = Σ_{u∈C} X_vu, until a full pass makes no improving move.
// It can be used standalone or to post-process the output of another
// algorithm (pass that output as opts.Init).
//
// The implementation is incremental: the affinity table M[v][c] is grown
// during the first sweep (singleton clusters stay implicit in the distance
// rows; a cluster's column materializes when it gains its second member) and
// maintained under moves (an accepted move updates the affected columns in
// O(n)), and Σ_j (|C_j| − M(v,C_j)) collapses to the invariant
// (n−1) − Σ_u X_vu, so once the cluster count has collapsed, evaluating an
// object costs O(k) table reads instead of an O(n) distance scan — a sweep
// is O(n·k + moves·n) rather than O(n²). See localsearch_incremental.go for
// the three sweep modes and when each engages. The package tests keep the
// per-object rebuild as the reference sweep; on instances whose distance
// arithmetic is exact (dyadic values) the two produce identical labels, and
// otherwise they agree to float-drift noise bounded by the periodic column
// refresh (see docs/PERFORMANCE.md).
func LocalSearch(inst Instance, opts LocalSearchOptions) partition.Labels {
	n := inst.N()
	if n == 0 {
		return partition.Labels{}
	}
	maxPasses := opts.maxPasses
	if maxPasses <= 0 {
		maxPasses = DefaultLocalSearchPasses
	}
	refreshEvery := opts.refreshEvery
	if refreshEvery <= 0 {
		refreshEvery = lsRefreshEvery
	}

	var labels partition.Labels
	if opts.Init != nil {
		labels = opts.Init.Normalize()
	} else {
		labels = partition.Singletons(n)
	}

	ker := newLSKernel(inst, labels, refreshEvery)

	// Per-sweep observability: gauges and convergence series, refreshed
	// at sweep boundaries so the report shows the collapsing cluster count
	// and the accumulated improvement, and the cost series' wall_ns deltas
	// give the sweep times. All of it is
	// observational and guarded on rec/Progress, so an uninstrumented run
	// pays only nil checks.
	rec := opts.Recorder
	var costSeries, movesSeries, refreshSeries *obs.Series
	var initialCost float64
	if rec != nil {
		// Convergence series: the disagreement cost after every sweep, plus
		// the accepted-move and delta-refresh cadence. The kernel maintains
		// the cumulative improvement exactly, so one O(n²) scan of the
		// starting clustering anchors the whole trajectory — instrumented
		// runs pay it once, uninstrumented runs never do, and the scan reads
		// nothing but distances, so labels stay bit-identical either way.
		costSeries = rec.Series("localsearch.cost")
		movesSeries = rec.Series("localsearch.moves")
		refreshSeries = rec.Series("localsearch.refreshes")
		initialCost = Cost(inst, ker.labels)
		costSeries.Append(0, initialCost)
	}

	var sweeps int64
	var prevRefreshes int64
	converged := false
	for pass := 0; pass < maxPasses; pass++ {
		sweeps++
		improved := ker.sweep(opts.onMove)
		if rec != nil {
			rec.SetGauge("localsearch.clusters", float64(len(ker.live)))
			rec.SetGauge("localsearch.improvement", ker.improvement)
			costSeries.Append(sweeps, initialCost-ker.improvement)
			movesSeries.Append(sweeps, float64(ker.moves))
			refreshSeries.Append(sweeps, float64(ker.refreshes))
			// Refresh-guard narrative: one event per sweep that tripped the
			// staleness guard. The cadence is a property of the move
			// sequence, so event content is deterministic at a fixed seed.
			if d := ker.refreshes - prevRefreshes; d > 0 {
				rec.Event("localsearch.refresh", "sweep", sweeps, "refreshes", d)
				prevRefreshes = ker.refreshes
			}
		}
		if !improved {
			converged = true
			break
		}
		opts.Progress.Emit(obs.ProgressEvent{
			Stage: "localsearch", Done: sweeps, Total: int64(maxPasses),
			Moves: ker.moves, Improved: ker.improvement,
		})
	}
	if rec != nil {
		rec.Add("localsearch.sweeps", sweeps)
		rec.Add("localsearch.moves", ker.moves)
		rec.Add("localsearch.delta_updates", ker.deltaUpdates)
		rec.Add("localsearch.refreshes", ker.refreshes)
		if converged {
			rec.Add("localsearch.converged_early", 1)
		}
	}
	// The final event reports convergence (or cap exhaustion) with the
	// completed sweep count; Total = Done marks it complete, so the
	// throttle always delivers it.
	opts.Progress.Emit(obs.ProgressEvent{
		Stage: "localsearch", Done: sweeps, Total: sweeps,
		Moves: ker.moves, Improved: ker.improvement,
	})
	return ker.labels.Normalize()
}
