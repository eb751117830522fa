package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"clusteragg/internal/core"
	"clusteragg/internal/dataset"
	"clusteragg/internal/ensemble"
	"clusteragg/internal/eval"
	"clusteragg/internal/partition"
)

// EnsembleRow is one method's result in the ensemble comparison.
type EnsembleRow struct {
	Name string
	K    int
	EC   float64
	ED   float64
	// NeedsK marks methods that had to be told the cluster count, the key
	// practical difference from the paper's parameter-free aggregators.
	NeedsK bool
}

// EnsembleResult is the extension experiment comparing the paper's
// aggregation algorithms against the consensus-clustering methods of the
// related work (Section 6) on one dataset.
type EnsembleResult struct {
	Dataset string
	N, M    int
	KGiven  int
	Rows    []EnsembleRow
}

// EnsembleComparison runs the paper's parameter-free aggregators and the
// related-work consensus methods (evidence accumulation, CSPA, MCLA, EM —
// all given the true class count) on the Votes and Mushrooms stand-ins.
// This experiment extends the paper: Section 6 discusses these methods but
// never measures them.
func EnsembleComparison(cfg Config) ([]*EnsembleResult, error) {
	votes := dataset.SyntheticVotes(cfg.seed())
	mush := subsample(dataset.SyntheticMushrooms(cfg.seed()), cfg.mushroomsRows(), cfg.seed())
	var out []*EnsembleResult
	for _, tc := range []struct {
		t      *dataset.Table
		kGiven int
	}{{votes, 2}, {mush, 8}} {
		res, err := ensembleOn(tc.t, cfg, tc.kGiven, cfg.seed())
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func ensembleOn(t *dataset.Table, cfg Config, kGiven int, seed int64) (*EnsembleResult, error) {
	rec := cfg.Recorder
	clusterings, err := t.Clusterings()
	if err != nil {
		return nil, err
	}
	problem, err := core.NewProblem(clusterings, core.ProblemOptions{})
	if err != nil {
		return nil, err
	}
	matrix := problem.MatrixWorkers(cfg.Workers)
	res := &EnsembleResult{Dataset: t.Name, N: t.N(), M: problem.M(), KGiven: kGiven}

	add := func(name string, labels partition.Labels, needsK bool) error {
		ec, err := eval.ClassificationError(labels, t.Class)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, EnsembleRow{
			Name: name, K: labels.K(), EC: ec, NeedsK: needsK,
			ED: problem.Disagreement(labels),
		})
		return nil
	}

	// The paper's parameter-free methods.
	for _, method := range []core.Method{core.MethodAgglomerative, core.MethodFurthest, core.MethodLocalSearch} {
		labels, err := aggregateOnMatrix(problem, matrix, method, core.AggregateOptions{Workers: cfg.Workers, Recorder: rec})
		if err != nil {
			return nil, err
		}
		if err := add(method.String(), labels, false); err != nil {
			return nil, err
		}
	}

	// Related-work methods, given the reference k.
	eac, err := ensemble.EvidenceAccumulation(clusterings, kGiven)
	if err != nil {
		return nil, err
	}
	if err := add(fmt.Sprintf("EAC(k=%d)", kGiven), eac, true); err != nil {
		return nil, err
	}
	eacAuto, err := ensemble.EvidenceAccumulation(clusterings, 0)
	if err != nil {
		return nil, err
	}
	if err := add("EAC(lifetime)", eacAuto, false); err != nil {
		return nil, err
	}
	cspa, err := ensemble.CSPA(clusterings, kGiven)
	if err != nil {
		return nil, err
	}
	if err := add(fmt.Sprintf("CSPA(k=%d)", kGiven), cspa, true); err != nil {
		return nil, err
	}
	mcla, err := ensemble.MCLA(clusterings, kGiven)
	if err != nil {
		return nil, err
	}
	if err := add(fmt.Sprintf("MCLA(k=%d)", kGiven), mcla, true); err != nil {
		return nil, err
	}
	em, err := ensemble.EMConsensus(clusterings, ensemble.EMOptions{
		K: kGiven, Rand: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	if err := add(fmt.Sprintf("EM(k=%d)", kGiven), em, true); err != nil {
		return nil, err
	}
	vote, err := ensemble.Voting(clusterings, kGiven)
	if err != nil {
		return nil, err
	}
	if err := add(fmt.Sprintf("Voting(k=%d)", kGiven), vote, true); err != nil {
		return nil, err
	}
	return res, nil
}

// String prints the comparison table.
func (r *EnsembleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, m=%d attributes; reference k=%d)\n", r.Dataset, r.N, r.M, r.KGiven)
	fmt.Fprintf(&b, "%-18s %4s %8s %12s %8s\n", "method", "k", "E_C", "E_D", "needs-k")
	for _, row := range r.Rows {
		needs := ""
		if row.NeedsK {
			needs = "yes"
		}
		fmt.Fprintf(&b, "%-18s %4d %8s %12.0f %8s\n", row.Name, row.K, pct(row.EC), row.ED, needs)
	}
	return b.String()
}
