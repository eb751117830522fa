package experiments

import (
	"strings"
	"testing"

	"clusteragg/internal/dataset"
)

// subsampleTestTable is a small table for exercising the subsample helper.
func subsampleTestTable() *dataset.Table {
	return dataset.SyntheticVotes(5).Subset([]int{0, 1, 2, 3, 4, 5, 6, 7})
}

// fastCfg keeps every experiment test under a second or two.
func fastCfg() Config {
	return Config{
		Seed:             1,
		MushroomsRows:    400,
		CensusRows:       1200,
		Quiet:            true,
		SampleSizes:      []int{50, 150},
		ScalabilitySizes: []int{1500, 3000},
	}
}

func TestFig3Robustness(t *testing.T) {
	res, err := Fig3Robustness(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inputs) != 5 {
		t.Fatalf("%d inputs, want 5 (4 linkages + k-means)", len(res.Inputs))
	}
	// The headline claim: the aggregate is at least as good as the median
	// input and close to the best one.
	better := 0
	best := 1.0
	for _, in := range res.Inputs {
		if res.Aggregate.Err <= in.Err+1e-9 {
			better++
		}
		if in.Err < best {
			best = in.Err
		}
	}
	if better < 3 {
		t.Errorf("aggregate error %v beats only %d of 5 inputs", res.Aggregate.Err, better)
	}
	if res.Aggregate.Err > best+0.10 {
		t.Errorf("aggregate error %v more than 10pp above best input %v", res.Aggregate.Err, best)
	}
	out := res.String()
	for _, want := range []string{"single linkage", "k-means", "aggregation"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4CorrectClusters(t *testing.T) {
	res, err := Fig4CorrectClusters(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 3 {
		t.Fatalf("%d cases, want 3", len(res.Cases))
	}
	for _, c := range res.Cases {
		if c.MainClusters != c.KTrue {
			t.Errorf("k*=%d: found %d main clusters", c.KTrue, c.MainClusters)
		}
		if c.Err > 0.10 {
			t.Errorf("k*=%d: classification error %v", c.KTrue, c.Err)
		}
		// The paper's claim: the extra small clusters contain only noise.
		if c.SmallClusterNoisePurity < 0.8 {
			t.Errorf("k*=%d: small clusters only %v noise", c.KTrue, c.SmallClusterNoisePurity)
		}
	}
	if !strings.Contains(res.String(), "k-true") {
		t.Error("missing header in output")
	}
}

func TestTable1Confusion(t *testing.T) {
	res, err := Table1Confusion(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 {
		t.Errorf("only %d clusters", res.K)
	}
	total := 0
	for _, row := range res.Confusion.Counts {
		for _, v := range row {
			total += v
		}
	}
	if total != 400 {
		t.Errorf("confusion total %d, want 400", total)
	}
	if res.Err > 0.35 {
		t.Errorf("E_C = %v, too impure", res.Err)
	}
	out := res.String()
	if !strings.Contains(out, "edible") || !strings.Contains(out, "poisonous") {
		t.Errorf("missing class names:\n%s", out)
	}
}

func TestTable2Votes(t *testing.T) {
	res, err := Table2Votes(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertCatTableShape(t, res, 435)
	// Votes-specific claims: the parameter-free aggregators should settle
	// near 2 clusters and E_C in the low teens.
	for _, row := range res.Rows {
		switch row.Name {
		case "Agglomerative", "Furthest", "LocalSearch":
			if row.K < 2 || row.K > 6 {
				t.Errorf("%s found k=%d, want near 2", row.Name, row.K)
			}
			if row.EC > 0.30 {
				t.Errorf("%s E_C = %v", row.Name, row.EC)
			}
		}
	}
}

func TestTable3Mushrooms(t *testing.T) {
	res, err := Table3Mushrooms(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	assertCatTableShape(t, res, 400)
}

// assertCatTableShape validates the invariants shared by Tables 2 and 3:
// the row set, the lower bound lower-bounding every E_D, and LOCALSEARCH
// being the best aggregator.
func assertCatTableShape(t *testing.T, res *CatTableResult, wantN int) {
	t.Helper()
	if res.N != wantN {
		t.Errorf("N = %d, want %d", res.N, wantN)
	}
	byName := map[string]TableRow{}
	var lower float64
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.Name == "Lower bound" {
			lower = row.ED
		}
	}
	for _, want := range []string{"Class labels", "Lower bound", "BestClustering",
		"Agglomerative", "Furthest", "LocalSearch"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing row %q (have %v)", want, res.Rows)
		}
	}
	for _, row := range res.Rows {
		if row.Name == "Lower bound" {
			continue
		}
		if row.ED < lower-1e-6 {
			t.Errorf("row %s E_D %v below lower bound %v", row.Name, row.ED, lower)
		}
	}
	// LocalSearch should achieve the lowest E_D among the aggregators, as
	// in the paper.
	ls := byName["LocalSearch"].ED
	for _, name := range []string{"BestClustering", "Agglomerative", "Furthest"} {
		if ls > byName[name].ED+1e-6 {
			t.Errorf("LocalSearch E_D %v worse than %s %v", ls, name, byName[name].ED)
		}
	}
	if !strings.Contains(res.String(), "Lower bound") {
		t.Error("String output missing lower bound row")
	}
}

func TestCensusSampling(t *testing.T) {
	res, err := CensusSampling(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.KFound < 5 {
		t.Errorf("census aggregation found only %d clusters", res.KFound)
	}
	if res.Err > 0.45 {
		t.Errorf("census E_C = %v", res.Err)
	}
	if res.LimboK != 2 {
		t.Errorf("limbo k = %d, want 2", res.LimboK)
	}
	if !strings.Contains(res.String(), "Sampling+Furthest") {
		t.Error("missing row in output")
	}
}

func TestFig5Sampling(t *testing.T) {
	res, err := Fig5Sampling(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d sweep points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.TimeRatio <= 0 {
			t.Errorf("sample %d: non-positive time ratio", p.SampleSize)
		}
		if p.KFound < 1 {
			t.Errorf("sample %d: no clusters", p.SampleSize)
		}
	}
	if !strings.Contains(res.String(), "time-ratio") {
		t.Error("missing header")
	}
}

func TestFig5Scalability(t *testing.T) {
	res, err := Fig5Scalability(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	small, large := res.Points[0], res.Points[1]
	if large.N <= small.N {
		t.Fatal("sizes not increasing")
	}
	// Linearity at this scale is noisy; just require sane outputs and that
	// doubling n does not blow time up by more than ~8x.
	if small.Duration > 0 && large.Duration.Seconds() > 8*small.Duration.Seconds()+0.5 {
		t.Errorf("time grew superlinearly: %v -> %v", small.Duration, large.Duration)
	}
	if !strings.Contains(res.String(), "us-per-object") {
		t.Error("missing header")
	}
}

func TestEnsembleComparison(t *testing.T) {
	results, err := EnsembleComparison(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d datasets, want 2", len(results))
	}
	for _, res := range results {
		if len(res.Rows) != 9 {
			t.Fatalf("%s: %d rows, want 9", res.Dataset, len(res.Rows))
		}
		// The paper's aggregators directly optimize E_D, so no consensus
		// method should beat the best aggregator on it.
		bestAgg := res.Rows[0].ED
		for _, row := range res.Rows[:3] {
			if row.ED < bestAgg {
				bestAgg = row.ED
			}
		}
		for _, row := range res.Rows[3:] {
			if row.ED < bestAgg-1e-6 {
				t.Errorf("%s: %s E_D %v beats best aggregator %v",
					res.Dataset, row.Name, row.ED, bestAgg)
			}
		}
		if !strings.Contains(res.String(), "needs-k") {
			t.Error("missing header")
		}
	}
}

func TestMissingValueSweep(t *testing.T) {
	res, err := MissingValueSweep(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("%d sweep points, want 6", len(res.Points))
	}
	// The base Votes table already carries 288 missing cells, so even the
	// 0% sweep point exercises both models; the claim under test is
	// graceful degradation at every fraction up to 50%.
	for _, p := range res.Points {
		if p.CoinErr > 0.30 {
			t.Errorf("coin model E_C %v at %.0f%% missing", p.CoinErr, 100*p.Fraction)
		}
		if p.CoinK < 1 || p.AvgK < 1 {
			t.Errorf("degenerate k at %.0f%% missing: %+v", 100*p.Fraction, p)
		}
	}
	if !strings.Contains(res.String(), "coin-E_C") {
		t.Error("missing header")
	}
}

// TestIngestThroughput runs the artifact at two sizes; the label-equality
// check across the sequential, parallel, and streamed modes inside
// IngestThroughput is the real assertion.
func TestIngestThroughput(t *testing.T) {
	for _, rows := range []int{3000, 20_000} {
		cfg := fastCfg()
		cfg.IngestRows = rows
		res, err := IngestThroughput(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != rows || res.Attrs != 6 {
			t.Errorf("rows/attrs = %d/%d, want %d/6", res.Rows, res.Attrs, rows)
		}
		if res.Bytes <= 0 {
			t.Error("no bytes measured")
		}
		if res.Clusters < 2 {
			t.Errorf("clusters = %d", res.Clusters)
		}
		// 10% noise over a strong planted structure: the aggregate should
		// all but recover the truth.
		if res.Rand < 0.9 {
			t.Errorf("n=%d: Rand index vs planted truth = %v", rows, res.Rand)
		}
		if !strings.Contains(res.String(), "streamed") {
			t.Error("missing mode row in output")
		}
	}
}

// TestHugeObjective: every rung of the huge ladder reports the objective
// of its result and the lower bound, with 0 < LowerBound ≤ Disagreement,
// timed apart from the rung's Duration.
func TestHugeObjective(t *testing.T) {
	cfg := fastCfg()
	cfg.HugeSizes = []int{3000, 6000}
	res, err := HugeScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if !(p.LowerBound > 0 && p.LowerBound <= p.Disagreement) {
			t.Errorf("n=%d: lower bound %v, disagreement %v", p.N, p.LowerBound, p.Disagreement)
		}
		if p.ObjectiveDuration <= 0 {
			t.Errorf("n=%d: objective not timed", p.N)
		}
	}
	if !strings.Contains(res.String(), "D/LB") {
		t.Error("String output missing the objective columns")
	}
}

func TestHugeCSVPoint(t *testing.T) {
	cfg := fastCfg()
	cfg.HugeSizes = []int{5000}
	cfg.HugeCSVRows = 4000
	res, err := HugeScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.CSV
	if c == nil {
		t.Fatal("CSV point missing")
	}
	if c.N != 4000 || c.Bytes <= 0 {
		t.Errorf("csv point n/bytes = %d/%d", c.N, c.Bytes)
	}
	if c.Rand < 0.9 {
		t.Errorf("csv Rand index = %v", c.Rand)
	}
	if c.AllocBytes == 0 {
		t.Error("csv alloc not measured")
	}
	if !strings.Contains(res.String(), "CSV end-to-end") {
		t.Error("String output missing the CSV row")
	}
	// Overridden ladder without an explicit CSV size skips the row (keeps
	// small-test ladders from paying a 1M-row generation).
	cfg.HugeCSVRows = 0
	res, err = HugeScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV != nil {
		t.Error("CSV point should be skipped when HugeSizes is overridden without HugeCSVRows")
	}
}

func TestSubsample(t *testing.T) {
	tab := subsampleTestTable()
	if got := subsample(tab, 1000, 1); got != tab {
		t.Error("oversized subsample should return the table unchanged")
	}
	small := subsample(tab, 3, 1)
	if small.N() != 3 {
		t.Errorf("subsample N = %d, want 3", small.N())
	}
	// Deterministic for a fixed seed.
	again := subsample(tab, 3, 1)
	for i := range small.Class {
		if small.Class[i] != again.Class[i] {
			t.Fatal("subsample not deterministic")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	if cfg.seed() != 1 {
		t.Errorf("default seed = %d", cfg.seed())
	}
	if cfg.mushroomsRows() != 1500 {
		t.Errorf("default mushrooms rows = %d", cfg.mushroomsRows())
	}
	if cfg.censusRows() != 8000 {
		t.Errorf("default census rows = %d", cfg.censusRows())
	}
	cfg.Full = true
	if cfg.mushroomsRows() != 8124 || cfg.censusRows() != 32561 {
		t.Error("full sizes wrong")
	}
}
