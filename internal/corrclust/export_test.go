package corrclust

import "math"

// LocalSearchOracle exposes the test-only LOCALSEARCH reference sweep to the
// package's external tests.
var LocalSearchOracle = localSearchReference

// LowerBound returns Σ_{u<v} min(X_uv, 1−X_uv), a lower bound on the cost of
// every partition: each pair pays at least the cheaper of its two options.
// It is the pair-scan oracle for the package's tests and example; the
// aggregation problem computes the bound over distinct label rows.
func LowerBound(inst Instance) float64 {
	n, r := inst.N(), newRowReader(inst)
	buf := r.tailBuf()
	var lb float64
	for u := 0; u < n; u++ {
		for _, x := range r.readTail(u, buf) {
			lb += math.Min(x, 1-x)
		}
	}
	return lb
}
