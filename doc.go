// Package clusteragg is a from-scratch Go reproduction of "Clustering
// Aggregation" (Gionis, Mannila, Tsaparas; ICDE 2005): given m clusterings
// of the same objects, find the clustering minimizing the total number of
// pairwise disagreements with the inputs.
//
// The implementation lives under internal/:
//
//   - internal/core — the aggregation framework (Problem, the five
//     algorithms, the SAMPLING scaler, missing-value handling)
//   - internal/corrclust — correlation clustering (instances, cost, lower
//     bound, BALLS/AGGLOMERATIVE/FURTHEST/LOCALSEARCH, brute force)
//   - internal/partition — clusterings as label vectors, Mirkin distance
//   - internal/kmeans, internal/linkage — vanilla clusterers used as input
//     generators
//   - internal/rock, internal/limbo — the categorical baselines of the
//     paper's evaluation
//   - internal/ensemble — the related-work consensus methods of Section 6
//     (evidence accumulation, CSPA, MCLA, EM, voting)
//   - internal/hetero, internal/vkmeans — heterogeneous-table support and
//     the d-dimensional k-means engine behind it
//   - internal/dataset, internal/points — categorical tables (CSV + UCI
//     stand-in generators) and 2-D point scenes
//   - internal/eval, internal/experiments — metrics and one runner per
//     table/figure of the paper
//
// The benchmarks in bench_test.go regenerate every table and figure; the
// binaries under cmd/ expose the same runners (cmd/experiments) and a
// general CSV clustering tool (cmd/clusteragg). See README.md, DESIGN.md
// and EXPERIMENTS.md.
//
// The root package itself is the public facade (clusteragg.go): NewProblem,
// the Method constants, ReadCSV and AggregateCSV, and the Labels/Distance
// primitives, all re-exported from internal/ so downstream modules need one
// import.
package clusteragg
