package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// CSVOptions configures ReadCSV and ReadCSVStream.
type CSVOptions struct {
	// Name names the resulting table.
	Name string
	// HasHeader treats the first record as column names; otherwise columns
	// are named col0, col1, ...
	HasHeader bool
	// MissingTokens are cell values treated as missing. Empty means
	// {"?", ""} (the UCI convention).
	MissingTokens []string
	// ClassColumn designates a column (by name) as the class label; it is
	// stored in Table.Class and excluded from Table.Cols. Empty means no
	// class column.
	ClassColumn string
	// NumericColumns forces the named columns to be parsed as numeric.
	// Columns not listed are inferred: numeric when every non-missing value
	// parses as a float, categorical otherwise.
	NumericColumns []string
	// CategoricalColumns forces the named columns to be categorical even if
	// all values parse as numbers (e.g. zip codes).
	CategoricalColumns []string
	// Comma is the field delimiter. Zero means ','.
	Comma rune
	// TrimSpace trims surrounding whitespace from every cell (the UCI
	// Census file uses ", " separators).
	TrimSpace bool
}

// defaultChunkBytes is the size of one parse chunk: the input prefix the
// reader parses in place before it hands the rest to the chunk parsers, and
// the target size of each chunk after that. Big enough that per-chunk
// overhead (reader setup, local intern maps, the merge remap) amortizes to
// noise, small enough that parsers*chunk stays tens of MB.
const defaultChunkBytes = 1 << 20

// ReadCSV loads a table from CSV data. Records reuse the csv reader's
// buffer, repeated string values intern to a single allocation, and no
// [][]string copy of the file is ever built. The first chunk of input parses
// in place on the calling goroutine; when the input runs past it and
// GOMAXPROCS allows, the rest is split into record-aligned chunks that parse
// concurrently and merge in input order. Either way the table is the same:
// value ids follow first occurrence in row order. All rows must have the
// same number of fields; the csv reader enforces this and reports ragged
// input. A leading UTF-8 byte order mark is skipped.
func ReadCSV(r io.Reader, opts CSVOptions) (*Table, error) {
	tab, _, err := readCSV(r, opts, nil, defaultChunkBytes, chunkParsers())
	return tab, err
}

// ReadCSVStream is ReadCSV handing the rows to sink in row order, a batch
// at a time, instead of materializing a Table, so downstream packing
// overlaps with parsing. Ids, row order and errors are identical to
// ReadCSV's; numeric column data is not delivered (force columns numeric via
// NumericColumns to keep them out of the schema without delaying it).
func ReadCSVStream(r io.Reader, opts CSVOptions, sink CSVSink) (*CSVStream, error) {
	_, st, err := readCSV(r, opts, sink, defaultChunkBytes, chunkParsers())
	return st, err
}

// chunkParsers is the number of chunk parsers that take over past the first
// chunk: GOMAXPROCS, or 0 (parse everything in place) when only one
// goroutine runs at a time and a handoff would buy nothing.
func chunkParsers() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 0
}

// countingReader counts the bytes handed out by Read so the reader can
// report input size (Table.BytesRead) without an extra pass over the file.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// schema is the immutable per-read configuration every parser shares:
// resolved header, class column index, forced kinds and the cell matchers —
// everything value-independent, so chunks never disagree on it.
type schema struct {
	header    []string
	classIdx  int
	forcedNum []bool
	forcedCat []bool
	comma     rune
	trim      bool
	missing   []string
}

// newSchema resolves the header (the first record's cells, or col0, col1,
// ...) and the class column, failing fast — before any data row is parsed —
// when the class column is unknown.
func newSchema(opts *CSVOptions, first []string) (*schema, error) {
	sc := &schema{
		header:    make([]string, len(first)),
		classIdx:  -1,
		forcedNum: make([]bool, len(first)),
		forcedCat: make([]bool, len(first)),
		comma:     opts.Comma,
		trim:      opts.TrimSpace,
		missing:   opts.MissingTokens,
	}
	if sc.missing == nil {
		sc.missing = []string{"?", ""}
	}
	for i, h := range first {
		if opts.HasHeader {
			sc.header[i] = strings.Clone(h)
		} else {
			sc.header[i] = fmt.Sprintf("col%d", i)
		}
		if opts.ClassColumn != "" && sc.header[i] == opts.ClassColumn && sc.classIdx < 0 {
			sc.classIdx = i
		}
	}
	if opts.ClassColumn != "" && sc.classIdx < 0 {
		return nil, fmt.Errorf("dataset: class column %q not found in header %v", opts.ClassColumn, sc.header)
	}
	for i, name := range sc.header {
		if i != sc.classIdx {
			sc.forcedNum[i] = slices.Contains(opts.NumericColumns, name)
			sc.forcedCat[i] = !sc.forcedNum[i] && slices.Contains(opts.CategoricalColumns, name)
		}
	}
	return sc, nil
}

func (sc *schema) isMissing(s string) bool {
	return slices.Contains(sc.missing, s)
}

// newCSVReader returns a csv reader over r that reuses its record slice.
func newCSVReader(r io.Reader, comma rune) *csv.Reader {
	cr := csv.NewReader(r)
	if comma != 0 {
		cr.Comma = comma
	}
	cr.ReuseRecord = true
	return cr
}

// column is the per-column parse state, both of a chunk parser (ids local
// to the chunk) and of the whole input (global ids, which the in-place
// prefix produces directly): first-occurrence interning plus numeric
// inference and the first bad cell.
type column struct {
	tryNum  bool // numeric inference still viable
	seenVal bool // at least one non-missing value
	floats  []float64
	ids     []int // value ids; MissingValue marks a missing cell
	in      intern
	badRow  int // first missing class label or non-numeric forced cell
	badVal  string
}

// newColumns returns fresh column states, with room for rows value ids in
// every column that keeps them.
func (sc *schema) newColumns(rows int) []*column {
	cols := make([]*column, len(sc.header))
	for i := range cols {
		cols[i] = &column{
			tryNum: i != sc.classIdx && !sc.forcedNum[i] && !sc.forcedCat[i],
			badRow: -1,
			in:     intern{},
		}
		if !sc.forcedNum[i] {
			cols[i].ids = make([]int, 0, rows)
		}
	}
	return cols
}

// idClone is intern.id for strings that alias a transient read buffer: the
// key is cloned before it is retained, so interning never pins a csv line.
func (in intern) idClone(s string) int {
	if id, ok := in[s]; ok {
		return id
	}
	return in.id(strings.Clone(s))
}

// record parses one csv record, row row of cols, cell by cell: trim,
// missing tokens, float viability, forced kinds and interning.
func (sc *schema) record(cols []*column, row int, rec []string) {
	for i, v := range rec {
		if sc.trim {
			v = strings.TrimSpace(v)
		}
		c := cols[i]
		if i == sc.classIdx {
			if sc.isMissing(v) {
				if c.badRow < 0 {
					c.badRow = row
				}
				c.ids = append(c.ids, MissingValue)
			} else {
				c.ids = append(c.ids, c.in.idClone(v))
			}
			continue
		}
		num := sc.forcedNum[i]
		if sc.isMissing(v) {
			if num || c.tryNum {
				c.floats = append(c.floats, math.NaN())
			}
			if !num {
				c.ids = append(c.ids, MissingValue)
			}
			continue
		}
		c.seenVal = true
		if num || c.tryNum {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				c.floats = append(c.floats, f)
			} else if num {
				if c.badRow < 0 {
					c.badRow = row
					c.badVal = strings.Clone(v)
				}
			} else {
				c.tryNum = false
				c.floats = nil
			}
		}
		if !num {
			c.ids = append(c.ids, c.in.idClone(v))
		}
	}
}

// readCSV is the reader behind ReadCSV (sink == nil: build a Table) and
// ReadCSVStream. It parses records in place, straight from one buffered
// reader, until the csv reader's offset passes chunk bytes. With parsers > 0
// the rest of the same buffered reader then goes to that many chunk
// parsers: the csv reader consumes input exactly through each record's
// newline, so the chunks start on the next record, and the parsed prefix —
// whose ids are already the global first-occurrence ids — becomes the merge
// state. With parsers == 0 it parses everything in place, delivering to the
// sink every chunk bytes.
func readCSV(r io.Reader, opts CSVOptions, sink CSVSink, chunk, parsers int) (*Table, *CSVStream, error) {
	count := &countingReader{r: r}
	br := bufio.NewReader(count)
	// A failed peek leaves its error buffered for the csv reader to
	// report; a successful one buffered the three bytes Discard drops.
	if bom, _ := br.Peek(3); string(bom) == "\ufeff" {
		_, _ = br.Discard(3)
	}
	cr := newCSVReader(br, opts.Comma)
	rec, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("dataset: empty csv input")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	sc, err := newSchema(&opts, rec)
	if err != nil {
		return nil, nil, err
	}
	m := &merge{sc: sc, sink: sink, cols: sc.newColumns(0)}
	if !opts.HasHeader {
		sc.record(m.cols, 0, rec)
		m.rows = 1
	}
	for mark := int64(chunk); ; {
		if cr.InputOffset() >= mark {
			if parsers > 0 {
				// The next chunk starts on the line after rec's last
				// field, which may itself span quoted newlines.
				last := len(rec) - 1
				line, _ := cr.FieldPos(last)
				line += strings.Count(rec[last], "\n") + 1
				if err := m.parallel(br, chunk, line, parsers); err != nil {
					return nil, nil, err
				}
				break
			}
			if err := m.deliver(); err != nil {
				return nil, nil, err
			}
			mark += int64(chunk)
		}
		rec, err = cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		sc.record(m.cols, m.rows, rec)
		m.rows++
	}
	if opts.HasHeader && m.rows == 0 {
		return nil, nil, fmt.Errorf("dataset: csv has a header but no data rows")
	}
	if sink != nil {
		st, err := m.finalizeStream(count.n)
		return nil, st, err
	}
	tab, err := m.finalizeTable(opts.Name, count.n)
	return tab, nil, err
}
