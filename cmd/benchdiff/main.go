// Command benchdiff compares two bench reports and exits nonzero when the
// current report regresses against the baseline. It is the regression gate
// behind `make benchdiff`: regenerate the bench report, diff it against the
// committed BENCH_experiments.json, and fail the build when a counter,
// objective value, or wall-time budget moved.
//
// Usage:
//
//	benchdiff [flags] <baseline.json> <current.json>
//
// Both inputs may be a BenchReport (cmd/experiments -report: one RunReport
// per artifact) or a single RunReport (clusteragg -report). Schema versions
// 1 through 6 all parse; sections a version lacks (gauges, series, alloc,
// events) are diffed only when present on both sides, and the histograms
// section of versions 2–5 is not read.
//
// What is compared, per artifact matched by name:
//
//   - counters: exact by default (-counter-tol loosens to a relative
//     tolerance). The algorithms are deterministic at a fixed seed, so any
//     drift in heap pushes, moves, or distance probes is a behavior change —
//     flagged even when it looks like an improvement, because it was not
//     reviewed as one. A counter present in the baseline but missing from
//     the current run is a regression; a new counter is a note.
//   - cost and headline metrics: relative tolerance -metric-tol.
//   - gauges: same treatment as metrics (schema 2 both sides).
//   - series (schema 3): the final point's value — the converged endpoint
//     of the trajectory, deterministic at a fixed seed — under -metric-tol.
//     Intermediate points and wall_ns components are never compared: the
//     former shift with downsampling cadence, the latter with the machine.
//   - wall time: current must stay under baseline × -wall-ratio (generous
//     by default — wall clock is the one machine-dependent axis that cannot
//     be pinned exactly; 0 disables).
//   - events (schema 5): the structured event log, compared as a sorted
//     multiset of (level, msg, attrs) projections. Events carry only
//     deterministic attributes (sizes, counts, decisions), so an event that
//     disappears is a regression and a new one is a note; seq and wall_ns
//     are never compared (ordering races under parallel method racing, and
//     timestamps are the machine's). A ring that overflowed (dropped > 0)
//     on either side downgrades the whole comparison to a note — the
//     retained window is no longer a complete multiset.
//   - allocated bytes (schema 4): the artifact's alloc.bytes — and any
//     metric named *alloc_bytes, e.g. the huge ladder's per-size points —
//     must stay under baseline × -alloc-ratio (0 disables). Allocation
//     totals are deterministic at a fixed seed but shift with Go runtime
//     versions and pool warm-up, so they get a ratio budget rather than
//     the exact treatment counters receive; only growth regresses, and a
//     drop is reported as a note so intentional diets refresh the
//     baseline. Mallocs and peak_heap_bytes are informational only.
//
// Names matching -ignore are skipped entirely. The default pattern drops
// the known machine-dependent series: *.workers counters (resolved
// GOMAXPROCS), every timing-derived metric (seconds, time_ratio,
// linearity_ratio, throughput suffixes — including the timing-bearing
// convergence series), and the runtime.* gauges from the RuntimeSampler
// (heap, goroutines, GC — all runtime-state-dependent).
// The same pattern is applied to event msg names.
//
// Exit status: 0 clean, 1 regression, 2 usage or unreadable input.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"

	"clusteragg/internal/obs"
)

// defaultIgnore matches the counter/metric names whose values depend on the
// machine (worker count, timing, GC pacing) rather than on the algorithms.
// The alloc section (total bytes) is gated separately by -alloc-ratio.
const defaultIgnore = `\.workers$|seconds$|time_ratio$|linearity_ratio$|throughput$|^runtime\.`

// defaultWallRatio is deliberately generous: the baseline may come from a
// different machine, and wall time is the one compared axis that legitimately
// varies. Four-fold is far outside scheduling noise while still catching a
// complexity-class slip.
const defaultWallRatio = 4.0

// defaultAllocRatio bounds allocated-byte growth per artifact. Allocation
// totals are much more stable than wall time (they do not depend on the
// machine's speed) but not byte-exact across Go runtime versions or pool
// warm-up states, so the budget is tighter than wall time's yet still a
// ratio: 1.5× catches a copied-again label path or a dropped pool while
// tolerating runtime drift.
const defaultAllocRatio = 1.5

type options struct {
	wallRatio  float64
	allocRatio float64
	counterTol float64
	metricTol  float64
	ignore     *regexp.Regexp
	verbose    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		o         options
		ignoreStr string
	)
	fs.Float64Var(&o.wallRatio, "wall-ratio", defaultWallRatio, "fail when an artifact's wall time exceeds baseline×ratio (0 disables)")
	fs.Float64Var(&o.allocRatio, "alloc-ratio", defaultAllocRatio, "fail when an artifact's allocated bytes exceed baseline×ratio (0 disables)")
	fs.Float64Var(&o.counterTol, "counter-tol", 0, "relative tolerance for counter deltas (0 = exact match)")
	fs.Float64Var(&o.metricTol, "metric-tol", 1e-9, "relative tolerance for cost/metric/gauge deltas")
	fs.StringVar(&ignoreStr, "ignore", defaultIgnore, "regexp of counter/metric names to skip")
	fs.BoolVar(&o.verbose, "v", false, "print matching values too, not only deltas")
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: benchdiff [flags] <baseline.json> <current.json>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	if ignoreStr != "" {
		re, err := regexp.Compile(ignoreStr)
		if err != nil {
			fmt.Fprintf(errw, "benchdiff: -ignore: %v\n", err)
			return 2
		}
		o.ignore = re
	}

	base, err := obs.ReadReportFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(errw, "benchdiff: baseline: %v\n", err)
		return 2
	}
	cur, err := obs.ReadReportFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(errw, "benchdiff: current: %v\n", err)
		return 2
	}

	d := &differ{opts: o, out: out}
	d.diff(base, cur)
	fmt.Fprintf(out, "benchdiff: %d artifacts compared, %d regressions, %d notes\n",
		d.compared, d.regressions, d.notes)
	if d.regressions > 0 {
		return 1
	}
	return 0
}

type differ struct {
	opts        options
	out         io.Writer
	compared    int
	regressions int
	notes       int
}

func (d *differ) regress(artifact, format string, args ...any) {
	d.regressions++
	fmt.Fprintf(d.out, "REGRESSION %s: %s\n", artifact, fmt.Sprintf(format, args...))
}

func (d *differ) note(artifact, format string, args ...any) {
	d.notes++
	fmt.Fprintf(d.out, "NOTE %s: %s\n", artifact, fmt.Sprintf(format, args...))
}

func (d *differ) ignored(name string) bool {
	return d.opts.ignore != nil && d.opts.ignore.MatchString(name)
}

func (d *differ) diff(base, cur obs.BenchReport) {
	if base.Config != cur.Config && base.Config != "" && cur.Config != "" {
		d.note("(report)", "config differs: %q vs %q", base.Config, cur.Config)
	}
	curByName := make(map[string]obs.RunReport, len(cur.Artifacts))
	for _, a := range cur.Artifacts {
		curByName[a.Name] = a
	}
	seen := make(map[string]bool, len(base.Artifacts))
	for _, b := range base.Artifacts {
		seen[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			d.regress(b.Name, "artifact missing from current report")
			continue
		}
		d.compared++
		d.diffArtifact(b, c)
	}
	for _, c := range cur.Artifacts {
		if !seen[c.Name] {
			d.note(c.Name, "new artifact (no baseline)")
		}
	}
}

func (d *differ) diffArtifact(base, cur obs.RunReport) {
	name := base.Name

	// Counters: deterministic at a fixed seed, so exact by default.
	for _, k := range sortedKeys(base.Counters) {
		if d.ignored(k) {
			continue
		}
		bv := base.Counters[k]
		cv, ok := cur.Counters[k]
		if !ok {
			d.regress(name, "counter %s removed (was %d)", k, bv)
			continue
		}
		if bv == cv {
			if d.opts.verbose {
				fmt.Fprintf(d.out, "ok %s: counter %s = %d\n", name, k, bv)
			}
			continue
		}
		if relDelta(float64(bv), float64(cv)) <= d.opts.counterTol {
			continue
		}
		d.regress(name, "counter %s %d -> %d (%+d)", k, bv, cv, cv-bv)
	}
	for _, k := range sortedKeys(cur.Counters) {
		if _, ok := base.Counters[k]; !ok && !d.ignored(k) {
			d.note(name, "counter %s added (%d)", k, cur.Counters[k])
		}
	}

	// Objective value: any drift beyond float tolerance is a behavior
	// change, improvement or not.
	if !d.ignored("cost") && relDelta(base.Cost, cur.Cost) > d.opts.metricTol {
		d.regress(name, "cost %g -> %g", base.Cost, cur.Cost)
	}

	d.diffFloats(name, "metric", base.Metrics, cur.Metrics)
	d.diffFloats(name, "gauge", base.Gauges, cur.Gauges)
	d.diffSeries(name, base.Series, cur.Series)

	if d.opts.wallRatio > 0 && base.WallNS > 0 && cur.WallNS > int64(float64(base.WallNS)*d.opts.wallRatio) {
		d.regress(name, "wall time %.3fs -> %.3fs (over %.1fx budget)",
			float64(base.WallNS)/1e9, float64(cur.WallNS)/1e9, d.opts.wallRatio)
	}

	d.diffAlloc(name, base.Alloc, cur.Alloc)
	d.diffEvents(name, base.Events, cur.Events)
}

// diffEvents compares the structured event logs as multisets of
// (level, msg, attrs) projections. seq and wall_ns are deliberately outside
// the projection: emission order races under parallel method racing and
// timestamps belong to the machine, while the projected attributes carry
// only deterministic decisions (sizes, counts, chosen widths). A section on
// one side only is a note — schema upgrades must not fail the gate — and an
// overflowed ring on either side makes the retained window an incomplete
// multiset, so the comparison downgrades to a note as well.
func (d *differ) diffEvents(name string, base, cur *obs.EventsSnapshot) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil:
		d.note(name, "event log added (%d events)", cur.Count)
		return
	case cur == nil:
		d.note(name, "event log removed (baseline had %d events)", base.Count)
		return
	}
	if base.Dropped > 0 || cur.Dropped > 0 {
		d.note(name, "event ring overflowed (dropped %d baseline, %d current) — events not compared",
			base.Dropped, cur.Dropped)
		return
	}
	bk := d.eventCounts(base)
	ck := d.eventCounts(cur)
	clean := true
	for _, k := range sortedKeys(bk) {
		if n := bk[k] - ck[k]; n > 0 {
			d.regress(name, "event %q ×%d removed", k, n)
			clean = false
		}
	}
	for _, k := range sortedKeys(ck) {
		if n := ck[k] - bk[k]; n > 0 {
			d.note(name, "event %q ×%d added", k, n)
			clean = false
		}
	}
	if clean && d.opts.verbose {
		fmt.Fprintf(d.out, "ok %s: %d events match\n", name, cur.Count)
	}
}

// eventCounts projects the retained entries onto deterministic keys and
// counts multiplicities, skipping msg names matched by -ignore.
func (d *differ) eventCounts(s *obs.EventsSnapshot) map[string]int {
	m := make(map[string]int, len(s.Entries))
	for _, e := range s.Entries {
		if d.ignored(e.Msg) {
			continue
		}
		parts := make([]string, 0, len(e.Attrs))
		for _, k := range sortedKeys(e.Attrs) {
			parts = append(parts, k+"="+e.Attrs[k])
		}
		m[e.Level+" "+e.Msg+" "+strings.Join(parts, " ")]++
	}
	return m
}

// diffAlloc gates the artifact's allocated bytes under the alloc-ratio
// budget. A section present on only one side is a note, not a regression —
// schema upgrades and untracked runs should not fail the gate; once both
// sides carry telemetry, growth past the budget does. Mallocs and peak
// heap are informational, never gated.
func (d *differ) diffAlloc(name string, base, cur *obs.AllocStats) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil:
		d.note(name, "alloc telemetry added (%d bytes, %d mallocs)", cur.Bytes, cur.Mallocs)
		return
	case cur == nil:
		d.note(name, "alloc telemetry removed (baseline had %d bytes)", base.Bytes)
		return
	}
	if d.opts.allocRatio <= 0 {
		return
	}
	ratio := obs.AllocRatio(cur.Bytes, base.Bytes)
	switch {
	case ratio > d.opts.allocRatio:
		d.regress(name, "allocated bytes %d -> %d (%.2fx, over %.2fx budget)",
			base.Bytes, cur.Bytes, ratio, d.opts.allocRatio)
	case ratio < 1/d.opts.allocRatio:
		d.note(name, "allocated bytes %d -> %d (%.2fx) — consider refreshing the baseline",
			base.Bytes, cur.Bytes, ratio)
	case d.opts.verbose:
		fmt.Fprintf(d.out, "ok %s: allocated bytes %d -> %d (%.2fx)\n", name, base.Bytes, cur.Bytes, ratio)
	}
}

// diffFloats compares a float-valued series (headline metrics, gauges) with
// the relative metric tolerance. Names ending in alloc_bytes carry
// allocation totals (the huge ladder's per-size points, the peak-heap
// gauge's byte scale) and get the alloc-ratio budget instead: growth past
// it regresses, anything under it passes.
func (d *differ) diffFloats(name, kind string, base, cur map[string]float64) {
	for _, k := range sortedKeys(base) {
		if d.ignored(k) {
			continue
		}
		bv := base[k]
		cv, ok := cur[k]
		if !ok {
			d.regress(name, "%s %s removed (was %g)", kind, k, bv)
			continue
		}
		if strings.HasSuffix(k, "alloc_bytes") {
			if d.opts.allocRatio > 0 && bv > 0 && cv > bv*d.opts.allocRatio {
				d.regress(name, "%s %s %g -> %g (%.2fx, over %.2fx budget)",
					kind, k, bv, cv, cv/bv, d.opts.allocRatio)
			} else if d.opts.verbose {
				fmt.Fprintf(d.out, "ok %s: %s %s = %g\n", name, kind, k, cv)
			}
			continue
		}
		if relDelta(bv, cv) <= d.opts.metricTol {
			if d.opts.verbose {
				fmt.Fprintf(d.out, "ok %s: %s %s = %g\n", name, kind, k, cv)
			}
			continue
		}
		d.regress(name, "%s %s %g -> %g", kind, k, bv, cv)
	}
	for _, k := range sortedKeys(cur) {
		if _, ok := base[k]; !ok && !d.ignored(k) {
			d.note(name, "%s %s added (%g)", kind, k, cur[k])
		}
	}
}

// diffSeries compares convergence trajectories by their final value only:
// the endpoint is the converged objective, deterministic at a fixed seed,
// while intermediate points shift with downsampling cadence and wall_ns
// with the machine, so neither is gated on.
func (d *differ) diffSeries(name string, base, cur map[string]obs.SeriesSnapshot) {
	for _, k := range sortedKeys(base) {
		if d.ignored(k) {
			continue
		}
		bs := base[k]
		cs, ok := cur[k]
		if !ok {
			d.regress(name, "series %s removed (had %d points)", k, len(bs.Points))
			continue
		}
		bv, bok := seriesFinal(bs)
		if !bok {
			continue
		}
		cv, cok := seriesFinal(cs)
		if !cok {
			d.regress(name, "series %s has no points (baseline final %g)", k, bv)
			continue
		}
		if relDelta(bv, cv) <= d.opts.metricTol {
			if d.opts.verbose {
				fmt.Fprintf(d.out, "ok %s: series %s final = %g\n", name, k, cv)
			}
			continue
		}
		d.regress(name, "series %s final %g -> %g", k, bv, cv)
	}
	for _, k := range sortedKeys(cur) {
		if _, ok := base[k]; !ok && !d.ignored(k) {
			d.note(name, "series %s added (%d points)", k, len(cur[k].Points))
		}
	}
}

// seriesFinal is the value of the trajectory's last retained point.
func seriesFinal(ss obs.SeriesSnapshot) (float64, bool) {
	if len(ss.Points) == 0 {
		return 0, false
	}
	return ss.Points[len(ss.Points)-1].Value, true
}

// relDelta is the relative deviation of cur from base, falling back to the
// absolute deviation when the baseline is zero.
func relDelta(base, cur float64) float64 {
	if base == cur {
		return 0
	}
	den := math.Abs(base)
	if den == 0 {
		den = 1
	}
	return math.Abs(cur-base) / den
}

// sortedKeys returns the map's keys in ascending order, for deterministic
// output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
