package experiments

import (
	"fmt"
	"strings"

	"clusteragg/internal/core"
	"clusteragg/internal/corrclust"
	"clusteragg/internal/dataset"
	"clusteragg/internal/eval"
	"clusteragg/internal/limbo"
	"clusteragg/internal/partition"
	"clusteragg/internal/rock"
)

// TableRow is one row of Table 2 or Table 3: an algorithm, the number of
// clusters it produced, its classification error E_C, and its disagreement
// error E_D (unordered-pair scale; the paper's ordered-pair numbers are
// exactly twice these).
type TableRow struct {
	Name string
	K    int
	EC   float64
	ED   float64
	// HasEC is false for rows that only report E_D (the lower bound).
	HasEC bool
	// Labels is the clustering behind the row (nil for the lower bound).
	Labels partition.Labels
}

// CatTableResult is a Table 2 / Table 3 style result on a categorical
// dataset.
type CatTableResult struct {
	Dataset string
	N, M    int
	Rows    []TableRow
}

// String prints the table in the paper's layout.
func (r *CatTableResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, m=%d attributes)\n", r.Dataset, r.N, r.M)
	fmt.Fprintf(&b, "%-24s %4s %8s %12s\n", "algorithm", "k", "E_C", "E_D")
	for _, row := range r.Rows {
		ec := "-"
		if row.HasEC {
			ec = pct(row.EC)
		}
		k := "-"
		if row.K > 0 {
			k = fmt.Sprintf("%d", row.K)
		}
		fmt.Fprintf(&b, "%-24s %4s %8s %12.0f\n", row.Name, k, ec, row.ED)
	}
	return b.String()
}

// catTable runs the shared Table 2/3 protocol on a categorical table: class
// labels and lower bound first, then the five aggregation algorithms, then
// ROCK and LIMBO at the requested parameter settings.
func catTable(t *dataset.Table, cfg Config, rockRuns []rock.Options, limboRuns []limbo.Options) (*CatTableResult, error) {
	rec := cfg.Recorder
	problem, err := tableProblem(t)
	if err != nil {
		return nil, err
	}
	matrix := problem.MatrixWorkers(cfg.Workers)
	res := &CatTableResult{Dataset: t.Name, N: t.N(), M: problem.M()}

	// Every row's E_D lands in the quality series as its ratio over the
	// table's lower bound (step = row index), so a report shows at a glance
	// how far each algorithm sits from optimal — the approximation-quality
	// axis ROADMAP #4 asks for. The lower bound is computed below anyway;
	// the series costs nothing extra.
	lbED := problem.LowerBound()
	qualitySeries := rec.Series("cost_over_lower_bound")

	addLabeled := func(name string, labels partition.Labels) error {
		ec, err := eval.ClassificationError(labels, t.Class)
		if err != nil {
			return fmt.Errorf("experiments: %s row %s: %w", t.Name, name, err)
		}
		ed := problem.Disagreement(labels)
		res.Rows = append(res.Rows, TableRow{
			Name: name, K: labels.K(), EC: ec, HasEC: true,
			ED: ed, Labels: labels,
		})
		if lbED > 0 {
			qualitySeries.Append(int64(len(res.Rows)-1), ed/lbED)
		}
		return nil
	}

	// Class labels row: the dataset's own classes used as a clustering.
	if err := addLabeled("Class labels", t.Class); err != nil {
		return nil, err
	}
	// Lower bound row.
	res.Rows = append(res.Rows, TableRow{Name: "Lower bound", ED: lbED})

	type aggRun struct {
		name   string
		method core.Method
		opts   core.AggregateOptions
	}
	runs := []aggRun{
		{"BestClustering", core.MethodBest, core.AggregateOptions{}},
		{"Agglomerative", core.MethodAgglomerative, core.AggregateOptions{}},
		{"Furthest", core.MethodFurthest, core.AggregateOptions{}},
		{fmt.Sprintf("Balls(a=%.1f)", corrclust.RecommendedBallsAlpha),
			core.MethodBalls, core.AggregateOptions{BallsAlpha: core.Alpha(corrclust.RecommendedBallsAlpha)}},
		{"LocalSearch", core.MethodLocalSearch, core.AggregateOptions{}},
	}
	for _, r := range runs {
		r.opts.Materialize = false // reuse the matrix built above instead
		r.opts.Workers = cfg.Workers
		r.opts.Recorder = rec
		labels, err := aggregateOnMatrix(problem, matrix, r.method, r.opts)
		if err != nil {
			return nil, err
		}
		if err := addLabeled(r.name, labels); err != nil {
			return nil, err
		}
	}

	for _, ro := range rockRuns {
		labels, err := rock.Run(t, ro)
		if err != nil {
			return nil, fmt.Errorf("experiments: rock on %s: %w", t.Name, err)
		}
		if err := addLabeled(fmt.Sprintf("ROCK(k=%d,t=%.2f)", ro.K, ro.Theta), labels); err != nil {
			return nil, err
		}
	}
	for _, lo := range limboRuns {
		lo.Recorder = rec
		labels, err := limbo.Run(t, lo)
		if err != nil {
			return nil, fmt.Errorf("experiments: limbo on %s: %w", t.Name, err)
		}
		if err := addLabeled(fmt.Sprintf("LIMBO(k=%d,phi=%.1f)", lo.K, lo.Phi), labels); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// aggregateOnMatrix runs an aggregation method against a pre-materialized
// distance matrix, avoiding repeated O(m·n²) matrix builds across rows.
func aggregateOnMatrix(p *core.Problem, m *corrclust.Matrix, method core.Method, opts core.AggregateOptions) (partition.Labels, error) {
	switch method {
	case core.MethodBest:
		labels, _, _ := p.BestClustering()
		return labels, nil
	case core.MethodBalls:
		alpha := corrclust.DefaultBallsAlpha
		if opts.BallsAlpha != nil {
			alpha = *opts.BallsAlpha
		}
		return corrclust.BallsWithOptions(m, corrclust.BallsOptions{Alpha: alpha, Recorder: opts.Recorder})
	case core.MethodAgglomerative:
		return corrclust.AgglomerativeWithOptions(m, corrclust.AgglomerativeOptions{K: opts.K, Recorder: opts.Recorder}), nil
	case core.MethodFurthest:
		labels, _ := corrclust.FurthestWithOptions(m, corrclust.FurthestOptions{K: opts.K, Recorder: opts.Recorder})
		return labels, nil
	case core.MethodLocalSearch:
		return corrclust.LocalSearch(m, corrclust.LocalSearchOptions{Recorder: opts.Recorder}), nil
	default:
		return nil, fmt.Errorf("experiments: unknown method %v", method)
	}
}

// Table2Votes reproduces Table 2 on the Votes stand-in (435 rows, 16
// binary attributes, 288 missing values). ROCK's θ is calibrated to the
// stand-in (θ = 0.50 plays the role the Guha et al. value 0.73 plays on the
// real file: the largest θ at which the two parties stay linked).
func Table2Votes(cfg Config) (*CatTableResult, error) {
	t := dataset.SyntheticVotes(cfg.seed())
	return catTable(t, cfg,
		[]rock.Options{{K: 2, Theta: 0.50}},
		[]limbo.Options{{K: 2, Phi: 0.0}},
	)
}

// Table3Mushrooms reproduces Table 3 on the Mushrooms stand-in. The default
// configuration runs on a deterministic 1500-row subsample (the quadratic
// algorithms dominate otherwise); cfg.Full uses all 8124 rows as the paper
// does.
func Table3Mushrooms(cfg Config) (*CatTableResult, error) {
	// ROCK's θ = 0.60 is the stand-in's analogue of the paper's 0.8 (see
	// Table2Votes); LIMBO keeps the paper's φ = 0.3.
	t := subsample(dataset.SyntheticMushrooms(cfg.seed()), cfg.mushroomsRows(), cfg.seed())
	return catTable(t, cfg,
		[]rock.Options{{K: 2, Theta: 0.6}, {K: 7, Theta: 0.6}, {K: 9, Theta: 0.6}},
		[]limbo.Options{{K: 2, Phi: 0.3}, {K: 7, Phi: 0.3}, {K: 9, Phi: 0.3}},
	)
}

// Table1Result is the confusion matrix of the AGGLOMERATIVE aggregate on
// Mushrooms (the paper's Table 1).
type Table1Result struct {
	Confusion  *eval.ConfusionMatrix
	ClassNames []string
	K          int
	Err        float64
}

// Table1Confusion reproduces Table 1: cluster the Mushrooms stand-in with
// the AGGLOMERATIVE aggregation and cross-tabulate clusters against the
// edible/poisonous classes.
func Table1Confusion(cfg Config) (*Table1Result, error) {
	t := subsample(dataset.SyntheticMushrooms(cfg.seed()), cfg.mushroomsRows(), cfg.seed())
	problem, err := tableProblem(t)
	if err != nil {
		return nil, err
	}
	agg, err := problem.Aggregate(core.MethodAgglomerative, core.AggregateOptions{Materialize: true, Workers: cfg.Workers, Recorder: cfg.Recorder})
	if err != nil {
		return nil, err
	}
	conf, err := eval.Confusion(agg, t.Class)
	if err != nil {
		return nil, err
	}
	ec, err := eval.ClassificationError(agg, t.Class)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Confusion: conf, ClassNames: t.ClassNames, K: agg.K(), Err: ec}, nil
}

// String prints the class × cluster confusion matrix like Table 1.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — Agglomerative on Mushrooms: %d clusters, E_C = %s\n", r.K, pct(r.Err))
	fmt.Fprintf(&b, "%-12s", "")
	for i := range r.Confusion.ClusterSizes {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("c%d", i+1))
	}
	b.WriteByte('\n')
	for j, name := range r.ClassNames {
		fmt.Fprintf(&b, "%-12s", name)
		for i := range r.Confusion.ClusterSizes {
			v := 0
			if j < len(r.Confusion.Counts[i]) {
				v = r.Confusion.Counts[i][j]
			}
			fmt.Fprintf(&b, "%8d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
