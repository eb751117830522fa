// Command gendata writes the synthetic UCI stand-in datasets as CSV, so
// they can be inspected, shipped, or fed back through cmd/clusteragg:
//
//	gendata -dataset votes | clusteragg -header -class class -summary -
//
// Usage:
//
//	gendata [flags]
//
// Flags:
//
//	-dataset NAME   votes | mushrooms | census | planted (default votes)
//	-seed N         generator seed (default 1)
//	-rows N         row count for census (0 = the real 32561) and planted
//	-attrs N        planted: number of categorical attributes (default 6)
//	-k N            planted: number of planted groups (default 32)
//	-noise F        planted: per-cell random-relabel probability (default 0.1)
//	-missing F      planted: per-cell missing probability (default 0)
//	-workers N      planted: concurrent chunk generators (default 1)
//	-o FILE         output path (default standard output)
//
// The "planted" dataset is the streaming large-n generator: rows are
// written as they are drawn, so a 10M-row fixture costs constant memory —
// the UCI stand-ins materialize a full dataset.Table first, which is fine
// at their sizes but not at millions of rows. It emits -attrs noisy copies
// of a planted -k-group clustering (the same recipe as the core package's
// scaling benchmarks) plus the planted group as the class column, ready
// for `clusteragg -header -class class -sample 500`.
//
// The consuming side is symmetric: a sampled clusteragg run streams the
// CSV through dataset.ReadCSVStream, which packs each batch of parsed rows
// straight into the width-packed label arena (core.NewPackedBuilder), so a
// gendata-produced 10M-row file is clustered without a table or the []int
// label slices ever materializing — see docs/PERFORMANCE.md's memory
// budget.
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"

	"clusteragg/internal/dataset"
	"clusteragg/internal/obs"
)

// genConfig carries the parsed generator flags.
type genConfig struct {
	name    string
	seed    int64
	rows    int
	attrs   int
	k       int
	noise   float64
	missing float64
	workers int
}

func main() {
	var cfg genConfig
	flag.StringVar(&cfg.name, "dataset", "votes", "dataset to generate: votes|mushrooms|census|planted")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.IntVar(&cfg.rows, "rows", 0, "row count for census (0 = full size) and planted")
	flag.IntVar(&cfg.attrs, "attrs", 6, "planted: number of categorical attributes")
	flag.IntVar(&cfg.k, "k", 32, "planted: number of planted groups")
	flag.Float64Var(&cfg.noise, "noise", 0.1, "planted: per-cell random-relabel probability")
	flag.Float64Var(&cfg.missing, "missing", 0, "planted: per-cell missing probability")
	flag.IntVar(&cfg.workers, "workers", 1, "planted: concurrent chunk generators (1 = sequential, the historical byte stream; >1 = chunk-seeded output identical at every worker count)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}
	if err := run(w, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
	os.Exit(1)
}

func run(w io.Writer, cfg genConfig) error {
	var t *dataset.Table
	switch cfg.name {
	case "votes":
		t = dataset.SyntheticVotes(cfg.seed)
	case "mushrooms":
		t = dataset.SyntheticMushrooms(cfg.seed)
	case "census":
		t = dataset.SyntheticCensus(cfg.seed, cfg.rows)
	case "planted":
		return StreamPlanted(w, cfg)
	default:
		return fmt.Errorf("unknown dataset %q (want votes|mushrooms|census|planted)", cfg.name)
	}
	return WriteCSV(w, t)
}

// StreamPlanted writes the planted large-n dataset row by row in constant
// memory: cfg.attrs noisy copies of a planted cfg.k-group clustering over
// cfg.rows objects, plus the planted group as the trailing class column.
// Each cell independently goes missing ("?") with probability cfg.missing,
// otherwise is relabeled uniformly at random with probability cfg.noise
// (over k+2 values, so noise can also introduce spurious groups — the same
// recipe as the core scaling benchmarks). Rows stream straight through the
// csv writer; nothing is retained across rows, so memory stays flat at any
// row count. Output is deterministic in (seed, rows, attrs, k, noise,
// missing). With cfg.workers > 1 generation fans out over fixed 65536-row
// chunks, each drawn from a per-chunk-seeded rng — see streamPlantedChunked
// for the determinism contract.
func StreamPlanted(w io.Writer, cfg genConfig) error {
	if cfg.rows <= 0 {
		return fmt.Errorf("planted: -rows must be positive (got %d)", cfg.rows)
	}
	if cfg.attrs <= 0 || cfg.k <= 0 {
		return fmt.Errorf("planted: -attrs and -k must be positive (got %d, %d)", cfg.attrs, cfg.k)
	}
	if cfg.noise < 0 || cfg.noise > 1 || cfg.missing < 0 || cfg.missing > 1 {
		return fmt.Errorf("planted: -noise and -missing must be in [0,1]")
	}
	names := makePlantedNames(cfg)
	cw := csv.NewWriter(w)
	record := make([]string, cfg.attrs+1)
	for a := 0; a < cfg.attrs; a++ {
		record[a] = fmt.Sprintf("attr%02d", a+1)
	}
	record[cfg.attrs] = "class"
	if err := cw.Write(record); err != nil {
		return err
	}
	if cfg.workers > 1 {
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		return streamPlantedChunked(w, cfg, names)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for row := 0; row < cfg.rows; row++ {
		plantedRow(cfg, rng, row, record, names)
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// plantedNames holds the interned value and class strings; row cells only
// index into them.
type plantedNames struct {
	values  []string
	classes []string
}

func makePlantedNames(cfg genConfig) plantedNames {
	n := plantedNames{
		values:  make([]string, cfg.k+2),
		classes: make([]string, cfg.k),
	}
	for v := range n.values {
		n.values[v] = fmt.Sprintf("v%03d", v)
	}
	for c := range n.classes {
		n.classes[c] = fmt.Sprintf("c%03d", c)
	}
	return n
}

// plantedRow fills record with one planted row — the single cell recipe
// both the sequential and the chunked generator run, so they differ only
// in how the rng is seeded.
func plantedRow(cfg genConfig, rng *rand.Rand, row int, record []string, names plantedNames) {
	truth := row % cfg.k
	for a := 0; a < cfg.attrs; a++ {
		switch {
		case cfg.missing > 0 && rng.Float64() < cfg.missing:
			record[a] = "?"
		case rng.Float64() < cfg.noise:
			record[a] = names.values[rng.Intn(cfg.k+2)]
		default:
			record[a] = names.values[truth]
		}
	}
	record[cfg.attrs] = names.classes[truth]
}

// plantedChunkRows is the row granularity of -workers > 1 generation. A
// variable so tests can shrink it to exercise the chunked path cheaply.
var plantedChunkRows = 1 << 16

// plantedChunkSeed derives chunk i's rng seed from the user seed with a
// golden-ratio stride: each chunk draws from its own deterministic stream,
// so the output bytes depend only on the flags — never on the worker count
// or scheduling.
func plantedChunkSeed(seed int64, chunk int) int64 {
	return seed + int64(chunk+1)*-0x61c8864680b583eb // 2^64 / golden ratio, as int64
}

// streamPlantedChunked is the -workers > 1 planted generator: the row range
// splits into fixed plantedChunkRows chunks, each chunk is rendered to a
// byte buffer by its own per-chunk-seeded rng (draw order inside a chunk
// matches the sequential generator's), and buffers are written strictly in
// chunk order. Output is deterministic in the flags and identical at every
// worker count > 1; it differs from -workers 1 (one continuous rng stream)
// by design — regenerate rather than mix the two regimes.
func streamPlantedChunked(w io.Writer, cfg genConfig, names plantedNames) error {
	chunks := (cfg.rows + plantedChunkRows - 1) / plantedChunkRows
	workers := cfg.workers
	if workers > chunks {
		workers = chunks
	}
	type chunkOut struct {
		idx  int
		data []byte
		err  error
	}
	jobs := make(chan int)
	results := make(chan chunkOut, workers)
	go func() {
		for i := 0; i < chunks; i++ {
			jobs <- i
		}
		close(jobs)
	}()
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "gendata", Worker: strconv.Itoa(worker)}, func() {
				record := make([]string, cfg.attrs+1)
				for i := range jobs {
					lo := i * plantedChunkRows
					hi := min(lo+plantedChunkRows, cfg.rows)
					var buf bytes.Buffer
					cw := csv.NewWriter(&buf)
					rng := rand.New(rand.NewSource(plantedChunkSeed(cfg.seed, i)))
					var err error
					for row := lo; row < hi; row++ {
						plantedRow(cfg, rng, row, record, names)
						if err = cw.Write(record); err != nil {
							break
						}
					}
					if err == nil {
						cw.Flush()
						err = cw.Error()
					}
					results <- chunkOut{i, buf.Bytes(), err}
				}
			})
		}(wk)
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	pending := make(map[int][]byte)
	next := 0
	var firstErr error
	for r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if firstErr != nil {
			continue // drain without writing
		}
		pending[r.idx] = r.data
		for data, ok := pending[next]; ok; data, ok = pending[next] {
			if _, err := w.Write(data); err != nil {
				firstErr = err
				break
			}
			delete(pending, next)
			next++
		}
	}
	return firstErr
}

// WriteCSV emits a table as CSV with a header row, the UCI "?" convention
// for missing values, and the class label in a trailing "class" column.
func WriteCSV(w io.Writer, t *dataset.Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(t.Cols)+1)
	for _, c := range t.Cols {
		header = append(header, c.Name)
	}
	hasClass := t.Class != nil
	if hasClass {
		header = append(header, "class")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	n := t.N()
	record := make([]string, len(header))
	for row := 0; row < n; row++ {
		for ci, c := range t.Cols {
			switch c.Kind {
			case dataset.Categorical:
				if v := c.Values[row]; v == dataset.MissingValue {
					record[ci] = "?"
				} else {
					record[ci] = c.Names[v]
				}
			case dataset.Numeric:
				if f := c.Floats[row]; math.IsNaN(f) {
					record[ci] = "?"
				} else {
					record[ci] = strconv.FormatFloat(f, 'g', -1, 64)
				}
			}
		}
		if hasClass {
			record[len(record)-1] = t.ClassNames[t.Class[row]]
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
