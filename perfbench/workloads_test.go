package main

import (
	"bytes"
	"slices"
	"testing"
)

// TestSeedRenamesOnly pins the seed contract: another seed gives other input
// bytes over the same partitions.
func TestSeedRenamesOnly(t *testing.T) {
	gens := map[string]func(int64) (*input, error){
		"exact-mushrooms": genMushrooms,
		"census-csv":      genCensus,
		"planted":         func(seed int64) (*input, error) { return genPlanted(5000, seed) },
	}
	for name, gen := range gens {
		a, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(2)
		if err != nil {
			t.Fatal(err)
		}
		renamed := a.csv != nil && !bytes.Equal(a.csv, b.csv)
		for i := range a.cols {
			if !slices.Equal(a.cols[i].Normalize(), b.cols[i].Normalize()) {
				t.Errorf("%s: seeds 1 and 2 give different partitions for input %d", name, i)
			}
			renamed = renamed || !slices.Equal(a.cols[i], b.cols[i])
		}
		if !renamed {
			t.Errorf("%s: seeds 1 and 2 give identical inputs", name)
		}
		if a.refD != b.refD {
			t.Errorf("%s: reference objective %v vs %v", name, a.refD, b.refD)
		}
	}
}
