// Benchmarks regenerating every table and figure of the paper's Section 5.
// Each benchmark runs the corresponding experiment runner and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's rows/series (at reduced default scale; run the
// cmd/experiments binary with -full for the paper's original sizes).
// The first iteration of each benchmark logs the full table text.
package clusteragg_test

import (
	"strings"
	"testing"

	"clusteragg"
	"clusteragg/internal/experiments"
)

func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:  1,
		Quiet: true,
		// Sizes chosen so a full -bench=. run finishes in a couple of
		// minutes while preserving every reported shape.
		MushroomsRows:    800,
		CensusRows:       4000,
		SampleSizes:      []int{100, 200, 400},
		ScalabilitySizes: []int{10000, 20000, 40000},
	}
}

// BenchmarkFig3Robustness regenerates Figure 3: five vanilla clusterings of
// the seven-cluster scene and their aggregation. Metrics: the aggregate's
// classification error and the best input's, in percent.
func BenchmarkFig3Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3Robustness(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			best := 1.0
			for _, in := range res.Inputs {
				if in.Err < best {
					best = in.Err
				}
			}
			b.ReportMetric(100*res.Aggregate.Err, "agg-err-%")
			b.ReportMetric(100*best, "best-input-err-%")
		}
	}
}

// BenchmarkFig4CorrectClusters regenerates Figure 4: recovering k* and the
// outliers from k-means sweeps. Metrics: main clusters found at k*=7 and
// the worst classification error across the three cases.
func BenchmarkFig4CorrectClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4CorrectClusters(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			worst := 0.0
			for _, c := range res.Cases {
				if c.Err > worst {
					worst = c.Err
				}
			}
			b.ReportMetric(float64(res.Cases[2].MainClusters), "main-clusters-k7")
			b.ReportMetric(100*worst, "worst-err-%")
		}
	}
}

// BenchmarkTable1Confusion regenerates Table 1: the confusion matrix of the
// AGGLOMERATIVE aggregate on Mushrooms. Metrics: clusters found and E_C.
func BenchmarkTable1Confusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1Confusion(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(float64(res.K), "clusters")
			b.ReportMetric(100*res.Err, "err-%")
		}
	}
}

func reportCatTable(b *testing.B, res *experiments.CatTableResult) {
	b.Helper()
	b.Log("\n" + res.String())
	for _, row := range res.Rows {
		switch row.Name {
		case "LocalSearch":
			b.ReportMetric(100*row.EC, "localsearch-err-%")
			b.ReportMetric(row.ED, "localsearch-ED")
		case "Lower bound":
			b.ReportMetric(row.ED, "lower-bound-ED")
		case "Agglomerative":
			b.ReportMetric(float64(row.K), "agglomerative-k")
		}
	}
}

// BenchmarkTable2Votes regenerates Table 2 (Votes: class labels, lower
// bound, the five aggregators, ROCK, LIMBO).
func BenchmarkTable2Votes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2Votes(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCatTable(b, res)
		}
	}
}

// BenchmarkTable3Mushrooms regenerates Table 3 (Mushrooms, same layout,
// ROCK and LIMBO at several k).
func BenchmarkTable3Mushrooms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3Mushrooms(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCatTable(b, res)
		}
	}
}

// BenchmarkCensusSampling regenerates the Section 5.2 in-text Census
// result: SAMPLING+FURTHEST vs LIMBO. Metrics: clusters found and E_C.
func BenchmarkCensusSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CensusSampling(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			b.ReportMetric(float64(res.KFound), "clusters")
			b.ReportMetric(100*res.Err, "err-%")
			b.ReportMetric(100*res.LimboErr, "limbo-err-%")
		}
	}
}

// BenchmarkFig5SamplingTime regenerates the left panel of Figure 5: the
// running-time ratio of SAMPLING to the exact algorithm as the sample
// grows. Metric: the ratio at the largest sample size.
func BenchmarkFig5SamplingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Sampling(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			last := res.Points[len(res.Points)-1]
			b.ReportMetric(last.TimeRatio, "time-ratio-largest-sample")
		}
	}
}

// BenchmarkFig5SamplingError regenerates the middle panel of Figure 5: the
// classification error of SAMPLING converging to the exact algorithm's.
// Metrics: the exact error and the error at the largest sample size.
func BenchmarkFig5SamplingError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Sampling(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			last := res.Points[len(res.Points)-1]
			b.ReportMetric(100*res.FullErr, "full-err-%")
			b.ReportMetric(100*last.Err, "sampled-err-%")
		}
	}
}

// BenchmarkEnsembleComparison runs the extension experiment pitting the
// paper's parameter-free aggregators against the Section 6 related-work
// consensus methods (EAC, CSPA, MCLA, EM) on Votes and Mushrooms. Metrics:
// the best aggregator E_D and the best consensus-method E_D on Votes.
func BenchmarkEnsembleComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.EnsembleComparison(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, res := range results {
				b.Log("\n" + res.String())
			}
			votes := results[0]
			bestAgg, bestOther := votes.Rows[0].ED, -1.0
			for _, row := range votes.Rows[:3] {
				if row.ED < bestAgg {
					bestAgg = row.ED
				}
			}
			for _, row := range votes.Rows[3:] {
				if bestOther < 0 || row.ED < bestOther {
					bestOther = row.ED
				}
			}
			b.ReportMetric(bestAgg, "best-aggregator-ED")
			b.ReportMetric(bestOther, "best-consensus-ED")
		}
	}
}

// BenchmarkMissingValueSweep runs the extension experiment blanking ever
// more cells of the Votes stand-in and aggregating under both Section 2
// missing-value models. Metric: coin-model E_C at 50% missing cells.
func BenchmarkMissingValueSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MissingValueSweep(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			last := res.Points[len(res.Points)-1]
			b.ReportMetric(100*last.CoinErr, "coin-err-at-50pct")
			b.ReportMetric(100*last.AvgErr, "avg-err-at-50pct")
		}
	}
}

// BenchmarkIngestThroughput runs the "ingest" artifact: CSV bytes →
// aggregate labels in the two ingest modes (through a Table, and streamed
// into the packed label block), with the runner verifying the modes agree
// label for label. Metrics: per-mode MB/s — see docs/PERFORMANCE.md's
// Ingest section.
func BenchmarkIngestThroughput(b *testing.B) {
	cfg := benchCfg()
	cfg.IngestRows = 20_000
	for i := 0; i < b.N; i++ {
		res, err := experiments.IngestThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			mb := float64(res.Bytes) / (1 << 20)
			b.ReportMetric(mb/res.Seq.Seconds(), "table-MB/s")
			b.ReportMetric(mb/res.Streamed.Seconds(), "streamed-MB/s")
		}
	}
}

// BenchmarkAggregateCSV measures the public facade end to end — CSV bytes
// in, rows streamed into the packed block, labels plus objective out.
func BenchmarkAggregateCSV(b *testing.B) {
	data := pipelineCSV(8000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := clusteragg.AggregateCSV(strings.NewReader(data), clusteragg.CSVOptions{
			HasHeader:   true,
			ClassColumn: "class",
			Method:      clusteragg.MethodFurthest,
			SampleSize:  400,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != 8000 {
			b.Fatalf("rows = %d", res.Rows)
		}
	}
}

// BenchmarkFig5Scalability regenerates the right panel of Figure 5: SAMPLING
// wall time as the dataset grows (linear in n). Metric: the ratio of
// per-object time at the largest vs smallest size (≈1 means linear).
func BenchmarkFig5Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Scalability(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
			first, last := res.Points[0], res.Points[len(res.Points)-1]
			perObjFirst := first.Duration.Seconds() / float64(first.N)
			perObjLast := last.Duration.Seconds() / float64(last.N)
			if perObjFirst > 0 {
				b.ReportMetric(perObjLast/perObjFirst, "linearity-ratio")
			}
		}
	}
}
