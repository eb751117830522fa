package core_test

import (
	"fmt"
	"log"

	"clusteragg/internal/core"
	"clusteragg/internal/partition"
)

// The worked example of the paper's Figure 1: three clusterings of six
// objects aggregate into {{v1,v3},{v2,v4},{v5,v6}} with 5 disagreements.
func ExampleProblem_Aggregate() {
	problem, err := core.NewProblem([]partition.Labels{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 0, 1, 2, 3},
		{0, 1, 0, 1, 2, 2},
	}, core.ProblemOptions{})
	if err != nil {
		log.Fatal(err)
	}
	labels, err := problem.Aggregate(core.MethodAgglomerative, core.AggregateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(labels, problem.Disagreement(labels))
	// Output: [0 1 0 1 2 2] 5
}

// X_uv is the fraction of input clusterings separating the pair; the
// missing-value coin model contributes ½ for inputs with no opinion.
func ExampleProblem_Dist() {
	problem, err := core.NewProblem([]partition.Labels{
		{0, 0},
		{0, 1},
		{0, partition.Missing},
	}, core.ProblemOptions{}) // the coin model: p = 1/2
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(problem.Dist(0, 1))
	// Output: 0.5
}

// BestClustering picks the input with the least total disagreement — the
// trivial 2(1−1/m)-approximation.
func ExampleProblem_BestClustering() {
	problem, err := core.NewProblem([]partition.Labels{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 0, 1, 2, 3},
		{0, 1, 0, 1, 2, 2},
	}, core.ProblemOptions{})
	if err != nil {
		log.Fatal(err)
	}
	_, index, disagreement := problem.BestClustering()
	fmt.Println(index, disagreement)
	// Output: 2 5
}
