package corrclust

import (
	"testing"

	"clusteragg/internal/obs"
)

// TestAgglomerativeQueueCounters pins the cluster-queue counters on fixed
// instances — heap_pops (examinations of the queue minimum) and stale_pops
// (examinations that rescanned a lower-bound row) — and demands the merge
// count of the lazy-heap reference. A change to the cache-repair rules shows
// up here before it shows up in a benchdiff.
func TestAgglomerativeQueueCounters(t *testing.T) {
	goldens := []struct {
		seed        int64
		k           int
		pops, stale int64
	}{
		{100, 0, 100, 43},
		{100, 4, 98, 42},
		{101, 0, 108, 51},
		{101, 4, 106, 50},
		{102, 0, 99, 42},
		{102, 4, 97, 41},
	}
	for _, g := range goldens {
		m := randomMatrix(60, g.seed)
		rec, ref := obs.New(), obs.New()
		AgglomerativeWithOptions(m, AgglomerativeOptions{K: g.k, Recorder: rec})
		agglomerativeReference(m, AgglomerativeOptions{K: g.k, Recorder: ref})
		c := rec.Counters()
		if c["agglomerative.heap_pops"] != g.pops || c["agglomerative.stale_pops"] != g.stale {
			t.Errorf("seed %d K=%d: heap_pops %d, stale_pops %d; want %d, %d",
				g.seed, g.k, c["agglomerative.heap_pops"], c["agglomerative.stale_pops"], g.pops, g.stale)
		}
		if got, want := c["agglomerative.merges"], ref.Counters()["agglomerative.merges"]; got != want {
			t.Errorf("seed %d K=%d: %d merges, reference %d", g.seed, g.k, got, want)
		}
		if _, ok := c["agglomerative.heap_pushes"]; ok {
			t.Errorf("seed %d K=%d: retired counter agglomerative.heap_pushes recorded", g.seed, g.k)
		}
	}
}
