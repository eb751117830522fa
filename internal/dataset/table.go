// Package dataset models categorical data tables and turns them into
// clustering-aggregation inputs: each categorical attribute induces one
// clustering of the rows (one cluster per distinct value, missing values
// mapped to partition.Missing), exactly as in Section 2 of the paper.
//
// The package ships CSV loading for real datasets (e.g. the UCI Votes,
// Mushrooms and Census files the paper uses) and deterministic synthetic
// generators that reproduce each dataset's schema, size, class mixture and
// missing-value count, so the experiments run without external files.
package dataset

import (
	"fmt"

	"clusteragg/internal/partition"
)

// Kind is the type of a column.
type Kind int

const (
	// Categorical columns hold interned string values.
	Categorical Kind = iota
	// Numeric columns hold float64 values.
	Numeric
)

// MissingValue marks a missing categorical entry in a Column's Values.
const MissingValue = -1

// Column is one attribute of a table.
type Column struct {
	Name string
	Kind Kind
	// Values holds the interned value id per row for Categorical columns
	// (MissingValue marks a missing entry). Nil for Numeric columns.
	Values []int
	// Names maps value ids to the original strings for Categorical columns.
	Names []string
	// Floats holds per-row values for Numeric columns (NaN marks a missing
	// entry). Nil for Categorical columns.
	Floats []float64
}

// Cardinality returns the number of distinct non-missing values of a
// categorical column, or 0 for numeric columns.
func (c *Column) Cardinality() int {
	if c.Kind != Categorical {
		return 0
	}
	return len(c.Names)
}

// MissingCount returns the number of missing entries in the column.
func (c *Column) MissingCount() int {
	n := 0
	if c.Kind == Categorical {
		for _, v := range c.Values {
			if v == MissingValue {
				n++
			}
		}
		return n
	}
	for _, f := range c.Floats {
		if f != f { // NaN
			n++
		}
	}
	return n
}

// Clustering converts a categorical column into a clustering of the rows:
// one cluster per distinct value, partition.Missing for missing entries.
// It returns an error for numeric columns.
func (c *Column) Clustering() (partition.Labels, error) {
	if c.Kind != Categorical {
		return nil, fmt.Errorf("dataset: column %q is numeric, not categorical", c.Name)
	}
	labels := make(partition.Labels, len(c.Values))
	for i, v := range c.Values {
		if v == MissingValue {
			labels[i] = partition.Missing
		} else {
			labels[i] = v
		}
	}
	return labels.Normalize(), nil
}

// Table is a data table whose rows are the objects to cluster.
type Table struct {
	Name string
	Cols []*Column
	// Class holds the per-row class label when the table has one
	// (used only for evaluation, never by the clustering algorithms).
	Class partition.Labels
	// ClassNames maps class ids to names.
	ClassNames []string
	// BytesRead is the number of input bytes the CSV readers consumed to
	// build the table (0 for synthetic tables). It feeds the ingest.bytes
	// counter without a second pass over the file.
	BytesRead int64
}

// N returns the number of rows.
func (t *Table) N() int {
	if len(t.Cols) == 0 {
		return len(t.Class)
	}
	c := t.Cols[0]
	if c.Kind == Categorical {
		return len(c.Values)
	}
	return len(c.Floats)
}

// CategoricalColumns returns the categorical columns in order.
func (t *Table) CategoricalColumns() []*Column {
	var out []*Column
	for _, c := range t.Cols {
		if c.Kind == Categorical {
			out = append(out, c)
		}
	}
	return out
}

// Clusterings converts every categorical attribute into a clustering, the
// reduction of Section 2 ("clustering categorical data"). It returns an
// error if the table has no categorical columns.
func (t *Table) Clusterings() ([]partition.Labels, error) {
	cats := t.CategoricalColumns()
	if len(cats) == 0 {
		return nil, fmt.Errorf("dataset: table %q has no categorical columns", t.Name)
	}
	out := make([]partition.Labels, len(cats))
	for i, c := range cats {
		labels, err := c.Clustering()
		if err != nil {
			return nil, err
		}
		out[i] = labels
	}
	return out, nil
}

// MissingTotal returns the total number of missing entries across all
// columns.
func (t *Table) MissingTotal() int {
	total := 0
	for _, c := range t.Cols {
		total += c.MissingCount()
	}
	return total
}

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Subset returns a new table restricted to the given row indices. The
// column set and names are shared; value data is copied.
func (t *Table) Subset(rows []int) *Table {
	out := &Table{Name: t.Name, ClassNames: t.ClassNames}
	if t.Class != nil {
		out.Class = make(partition.Labels, len(rows))
		for i, r := range rows {
			out.Class[i] = t.Class[r]
		}
	}
	for _, c := range t.Cols {
		nc := &Column{Name: c.Name, Kind: c.Kind, Names: c.Names}
		if c.Kind == Categorical {
			nc.Values = make([]int, len(rows))
			for i, r := range rows {
				nc.Values[i] = c.Values[r]
			}
		} else {
			nc.Floats = make([]float64, len(rows))
			for i, r := range rows {
				nc.Floats[i] = c.Floats[r]
			}
		}
		out.Cols = append(out.Cols, nc)
	}
	return out
}

// intern maps each distinct string to its first-occurrence id (0, 1, ...).
// The id-ordered names are built once, by names, when a column is done:
// most strings a reader interns belong to columns that end numeric.
type intern map[string]int

func (in intern) id(s string) int {
	if id, ok := in[s]; ok {
		return id
	}
	id := len(in)
	in[s] = id
	return id
}

// names returns the interned strings in id order (nil when there are
// none).
func (in intern) names() []string {
	if len(in) == 0 {
		return nil
	}
	out := make([]string, len(in))
	for s, id := range in {
		out[id] = s
	}
	return out
}
