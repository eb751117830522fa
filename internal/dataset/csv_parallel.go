package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"clusteragg/internal/obs"
)

// defaultChunkBytes is the target size of one parse chunk. Big enough that
// per-chunk overhead (reader setup, local intern maps, the merge remap)
// amortizes to noise, small enough that workers*chunk stays tens of MB.
const defaultChunkBytes = 1 << 20

// ReadCSVParallel is ReadCSV with chunked, concurrent parsing: the input is
// split into byte ranges snapped to record boundaries (quote-aware, so
// quoted embedded newlines never split a record), opts.Workers goroutines
// parse chunks with chunk-local interning, and the chunk symbol tables are
// merged into global ids strictly in chunk order. Because both the sequential
// reader's bounded-intern overflow resolution and the chunk merge reduce to
// exact first-occurrence interning in row order, the resulting Table is
// bit-identical to ReadCSV's on every input — ids, column order, inferred
// kinds, missing cells, and errors (messages and which-row-wins ordering)
// all match. Workers=1 still exercises the chunked path.
func ReadCSVParallel(r io.Reader, opts CSVOptions) (*Table, error) {
	tab, _, err := readCSVChunked(r, opts, defaultChunkBytes, nil)
	return tab, err
}

// CSVSink consumes the merged output of a chunked CSV read incrementally, in
// row order, while later chunks are still being parsed. This is the
// streaming seam: a sink can pack each row batch straight into its final
// storage, so no Table ever materializes.
//
// Schema is called exactly once, as soon as every inferred column has
// settled (a column settles categorical at its first unparseable value;
// columns that are still numeric-viable — and therefore might not induce a
// clustering at all — defer Schema to EOF, degrading gracefully to
// drain-then-compute). cats lists the categorical column names in column
// order. Rows then delivers global rows [lo, hi): cats[i] holds the global
// value ids of the i-th categorical column (MissingValue for missing cells)
// and class the class ids (nil when there is no class column). The slices
// are only valid during the call — the sink must copy or pack what it keeps.
//
// A non-nil error from either method aborts the read and is returned from
// ReadCSVStream. Note that per-column errors (a non-numeric cell in a forced
// numeric column, a missing class label) keep the sequential reader's
// report-at-finalize semantics: rows may reach the sink before the read as a
// whole fails, and the sink's output must then be discarded.
type CSVSink interface {
	Schema(cats []string, hasClass bool) error
	Rows(lo, hi int, cats [][]int, class []int) error
}

// CSVStream summarizes a completed ReadCSVStream call.
type CSVStream struct {
	// Rows is the number of data rows delivered.
	Rows int
	// Bytes is the number of input bytes consumed.
	Bytes int64
	// Cats names the categorical columns, matching the Schema call.
	Cats []string
	// ClassNames maps the class ids delivered to the sink to their strings.
	ClassNames []string
}

// ReadCSVStream runs the chunked parallel reader but hands the merged rows
// to sink instead of materializing a Table, so downstream packing overlaps
// with parsing. Ids, row order and errors are identical
// to ReadCSV/ReadCSVParallel; numeric column data is not delivered (force
// columns numeric via NumericColumns to keep them out of the schema without
// delaying it).
func ReadCSVStream(r io.Reader, opts CSVOptions, sink CSVSink) (*CSVStream, error) {
	_, st, err := readCSVChunked(r, opts, defaultChunkBytes, sink)
	return st, err
}

// chunker splits the input into record-aligned byte chunks. A split point is
// a newline seen at even double-quote parity: inside a quoted field parity
// is odd, so quoted embedded newlines never split a record, and for valid
// csv every even-parity newline is a record terminator. (For invalid csv the
// rule only ever under-splits — a bare quote suppresses splits until the
// next quote — so the malformed record always reaches one chunk intact and
// fails with the sequential reader's error.)
type chunker struct {
	r    io.Reader
	buf  []byte
	size int
	err  error // sticky read error, io.EOF included
	line int   // 1-based physical line number of buf[0]
}

// fill reads until the buffer holds at least target bytes or input ends.
func (ck *chunker) fill(target int) {
	for len(ck.buf) < target && ck.err == nil {
		if cap(ck.buf)-len(ck.buf) < 4096 {
			nb := make([]byte, len(ck.buf), max(2*cap(ck.buf), target, 64*1024))
			copy(nb, ck.buf)
			ck.buf = nb
		}
		n, err := ck.r.Read(ck.buf[len(ck.buf):cap(ck.buf)])
		ck.buf = ck.buf[:len(ck.buf)+n]
		if err != nil {
			ck.err = err
		}
	}
}

func (ck *chunker) readErr() error {
	if ck.err != nil && ck.err != io.EOF {
		return ck.err
	}
	return nil
}

// firstRecord returns the raw bytes of the first csv record, skipping (and
// line-counting) the leading blank lines the csv reader would skip, growing
// the buffer until the record's terminating newline is found or input ends.
// The returned slice aliases the buffer until consume is called.
func (ck *chunker) firstRecord() ([]byte, int, error) {
	for {
		ck.fill(2)
		if len(ck.buf) == 0 {
			return nil, 0, ck.readErr()
		}
		if ck.buf[0] == '\n' {
			ck.buf = ck.buf[1:]
			ck.line++
			continue
		}
		if ck.buf[0] == '\r' && len(ck.buf) > 1 && ck.buf[1] == '\n' {
			ck.buf = ck.buf[2:]
			ck.line++
			continue
		}
		break
	}
	scanned, parity := 0, 0
	nl := 0
	for {
		for i := scanned; i < len(ck.buf); i++ {
			switch ck.buf[i] {
			case '"':
				parity ^= 1
			case '\n':
				if parity == 0 {
					return ck.buf[:i+1], nl + 1, nil
				}
				nl++
			}
		}
		scanned = len(ck.buf)
		if ck.err != nil {
			return ck.buf, nl, ck.readErr()
		}
		ck.fill(len(ck.buf) + ck.size)
	}
}

// consume drops the first n bytes (the header record) and advances the line
// counter by the nl newlines they contained.
func (ck *chunker) consume(n, nl int) {
	ck.buf = ck.buf[n:]
	ck.line += nl
}

// next returns the next record-aligned chunk and the 1-based line number of
// its first byte. ok is false when the input is exhausted; err reports an
// underlying (non-EOF) read error.
func (ck *chunker) next() (data []byte, startLine int, ok bool, err error) {
	scanned, parity := 0, 0
	lastSafe, nlBefore, nl := -1, 0, 0
	target := ck.size
	for {
		ck.fill(target)
		if len(ck.buf) == 0 {
			return nil, 0, false, ck.readErr()
		}
		if parity == 0 {
			// Quote-free fast path over the newly read region.
			seg := ck.buf[scanned:]
			if q := bytes.IndexByte(seg, '"'); q < 0 {
				if j := bytes.LastIndexByte(seg, '\n'); j >= 0 {
					lastSafe = scanned + j
					nlBefore = nl + bytes.Count(seg[:j+1], []byte{'\n'})
				}
				nl += bytes.Count(seg, []byte{'\n'})
				scanned = len(ck.buf)
			}
		}
		for i := scanned; i < len(ck.buf); i++ {
			switch ck.buf[i] {
			case '"':
				parity ^= 1
			case '\n':
				nl++
				if parity == 0 {
					lastSafe, nlBefore = i, nl
				}
			}
		}
		scanned = len(ck.buf)
		if ck.err != nil {
			if err := ck.readErr(); err != nil {
				return nil, 0, false, err
			}
			data, startLine = ck.buf, ck.line
			ck.buf = nil
			ck.line += nl
			return data, startLine, true, nil
		}
		if lastSafe >= 0 && len(ck.buf) >= ck.size {
			data, startLine = ck.buf[:lastSafe+1], ck.line
			// The remainder is copied out so the emitted chunk owns its
			// backing array; it is rescanned on the next call.
			ck.buf = append([]byte(nil), ck.buf[lastSafe+1:]...)
			ck.line += nlBefore
			return data, startLine, true, nil
		}
		// No record boundary in the buffer yet (giant record or quoted
		// region): extend and keep scanning where we left off.
		target = len(ck.buf) + ck.size
	}
}

// chunkSchema is the immutable per-read configuration shared by every chunk
// parser: resolved header, class column index, forced kinds, and the cell
// matchers — everything value-independent, so chunks never disagree on it.
type chunkSchema struct {
	header    []string
	classIdx  int
	forcedNum []bool
	forcedCat []bool
	comma     rune
	trim      bool
	isMissing func(string) bool
}

func newChunkSchema(opts *CSVOptions, header []string) (*chunkSchema, error) {
	classIdx, err := classIndex(opts, header)
	if err != nil {
		return nil, err
	}
	sc := &chunkSchema{
		header:    header,
		classIdx:  classIdx,
		forcedNum: make([]bool, len(header)),
		forcedCat: make([]bool, len(header)),
		comma:     opts.Comma,
		trim:      opts.TrimSpace,
		isMissing: missingMatcher(opts),
	}
	for i, name := range header {
		if i == classIdx {
			continue
		}
		sc.forcedNum[i] = nameForced(opts.NumericColumns, name)
		sc.forcedCat[i] = !sc.forcedNum[i] && nameForced(opts.CategoricalColumns, name)
	}
	return sc, nil
}

// chunkCol is the per-chunk, per-column parse state: local first-occurrence
// interning (unbounded — a chunk's distinct-value set is capped by its byte
// size) plus the same inference flags the sequential reader tracks.
type chunkCol struct {
	tryNum  bool
	seenVal bool
	floats  []float64
	ids     []int32 // local ids; -1 marks a missing cell
	names   []string
	lookup  map[string]int32
	badRow  int // chunk-relative row of the first bad cell
	badVal  string
}

// localID interns v in the chunk-local table, cloning on first occurrence
// (v aliases the csv reader's reused record buffer).
func (c *chunkCol) localID(v string) int32 {
	if id, ok := c.lookup[v]; ok {
		return id
	}
	v = strings.Clone(v)
	id := int32(len(c.names))
	c.lookup[v] = id
	c.names = append(c.names, v)
	return id
}

type chunkJob struct {
	index     int
	data      []byte
	startLine int
}

type parsedChunk struct {
	index int
	rows  int
	cols  []*chunkCol
	err   error
}

// remapChunkErr rebases a csv.ParseError's line numbers from chunk-local to
// whole-input coordinates so the error text matches the sequential reader's.
func remapChunkErr(err error, startLine int) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		pe.StartLine += startLine - 1
		pe.Line += startLine - 1
	}
	return err
}

// parseChunk parses one byte range with the exact per-cell logic of ReadCSV
// (trim, missing tokens, float viability, forced kinds), except that
// interning is chunk-local. Field count is pinned to the header width so
// ragged records fail identically no matter which chunk they land in.
func parseChunk(sc *chunkSchema, job chunkJob) *parsedChunk {
	pc := &parsedChunk{index: job.index, cols: make([]*chunkCol, len(sc.header))}
	for i := range pc.cols {
		c := &chunkCol{badRow: -1, lookup: make(map[string]int32)}
		c.tryNum = i != sc.classIdx && !sc.forcedNum[i] && !sc.forcedCat[i]
		pc.cols[i] = c
	}
	cr := csv.NewReader(bytes.NewReader(job.data))
	if sc.comma != 0 {
		cr.Comma = sc.comma
	}
	cr.ReuseRecord = true
	cr.FieldsPerRecord = len(sc.header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return pc
		}
		if err != nil {
			pc.err = remapChunkErr(err, job.startLine)
			return pc
		}
		row := pc.rows
		pc.rows++
		for i, v := range rec {
			if sc.trim {
				v = strings.TrimSpace(v)
			}
			c := pc.cols[i]
			if i == sc.classIdx {
				if sc.isMissing(v) {
					if c.badRow < 0 {
						c.badRow = row
					}
					c.ids = append(c.ids, MissingValue)
				} else {
					c.ids = append(c.ids, c.localID(v))
				}
				continue
			}
			if sc.isMissing(v) {
				if sc.forcedNum[i] || c.tryNum {
					c.floats = append(c.floats, math.NaN())
				}
				if !sc.forcedNum[i] {
					c.ids = append(c.ids, MissingValue)
				}
				continue
			}
			c.seenVal = true
			if sc.forcedNum[i] || c.tryNum {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					c.floats = append(c.floats, f)
				} else if sc.forcedNum[i] {
					if c.badRow < 0 {
						c.badRow = row
						c.badVal = strings.Clone(v)
					}
				} else {
					c.tryNum = false
					c.floats = nil
				}
			}
			if sc.forcedNum[i] {
				continue
			}
			c.ids = append(c.ids, c.localID(v))
		}
	}
}

// mergeCol is the whole-input per-column state the in-order merge builds:
// global ids under exact first-occurrence interning plus the same inference
// and error bookkeeping as the sequential reader, now in global rows.
type mergeCol struct {
	tryNum  bool
	seenVal bool
	floats  []float64
	ids     []int
	base    int // global row of ids[0] (streamed prefixes are dropped)
	in      *intern
	badRow  int
	badVal  string
}

type mergeState struct {
	sc         *chunkSchema
	sink       CSVSink
	cols       []*mergeCol
	rows       int
	emitted    int
	schemaSent bool
	catIdx     []int
	catNames   []string
	catBuf     [][]int
}

func newMergeState(sc *chunkSchema, sink CSVSink) *mergeState {
	m := &mergeState{sc: sc, sink: sink, cols: make([]*mergeCol, len(sc.header))}
	for i := range m.cols {
		c := &mergeCol{badRow: -1, in: newIntern()}
		c.tryNum = i != sc.classIdx && !sc.forcedNum[i] && !sc.forcedCat[i]
		m.cols[i] = c
	}
	return m
}

// appendIDs translates a chunk's local ids to global ids. Interning the
// chunk's symbol table in its local order preserves first-occurrence order
// globally (chunks are merged in input order, and within a chunk local order
// is row order), which is exactly the mapping the sequential reader's
// bounded-intern overflow resolution produces.
func (m *mergeState) appendIDs(mc *mergeCol, cc *chunkCol) {
	var remap []int
	if len(cc.names) > 0 {
		remap = make([]int, len(cc.names))
		for li, name := range cc.names {
			remap[li] = mc.in.id(name)
		}
	}
	for _, id := range cc.ids {
		if id < 0 {
			mc.ids = append(mc.ids, MissingValue)
		} else {
			mc.ids = append(mc.ids, remap[id])
		}
	}
}

func (m *mergeState) mergeChunk(pc *parsedChunk) {
	rowBase := m.rows
	m.rows += pc.rows
	for i, cc := range pc.cols {
		mc := m.cols[i]
		if i == m.sc.classIdx {
			if mc.badRow < 0 && cc.badRow >= 0 {
				mc.badRow = rowBase + cc.badRow
			}
			m.appendIDs(mc, cc)
			continue
		}
		if m.sc.forcedNum[i] {
			if mc.badRow < 0 && cc.badRow >= 0 {
				mc.badRow = rowBase + cc.badRow
				mc.badVal = cc.badVal
			}
			if m.sink == nil {
				mc.floats = append(mc.floats, cc.floats...)
			}
			continue
		}
		if cc.seenVal {
			mc.seenVal = true
		}
		if mc.tryNum && !cc.tryNum {
			mc.tryNum = false
			mc.floats = nil
		}
		if mc.tryNum && m.sink == nil {
			mc.floats = append(mc.floats, cc.floats...)
		}
		m.appendIDs(mc, cc)
	}
}

// settled reports whether column i's kind can no longer change: forced
// kinds are settled from the start, inferred ones once numeric viability
// dies. A still-viable inferred column stays open until EOF.
func (m *mergeState) settled(i int) bool {
	return i == m.sc.classIdx || m.sc.forcedNum[i] || m.sc.forcedCat[i] || !m.cols[i].tryNum
}

func (m *mergeState) allSettled() bool {
	for i := range m.cols {
		if !m.settled(i) {
			return false
		}
	}
	return true
}

// sendSchema fixes the categorical column set (the kinds are settled, so
// the rule below can no longer change its mind) and tells the sink.
func (m *mergeState) sendSchema() error {
	for i, mc := range m.cols {
		if i == m.sc.classIdx || m.sc.forcedNum[i] || (mc.tryNum && mc.seenVal) {
			continue
		}
		m.catIdx = append(m.catIdx, i)
		m.catNames = append(m.catNames, m.sc.header[i])
	}
	m.schemaSent = true
	if m.catNames == nil {
		m.catNames = []string{}
	}
	return m.sink.Schema(m.catNames, m.sc.classIdx >= 0)
}

// flush delivers buffered rows [emitted, hi) to the sink and drops them:
// after the call the merge retains nothing before hi, so steady-state
// memory is one chunk per column, not the whole file.
func (m *mergeState) flush(hi int) error {
	if hi == m.emitted {
		return nil
	}
	lo := m.emitted
	cats := m.catBuf[:0]
	for _, ci := range m.catIdx {
		mc := m.cols[ci]
		cats = append(cats, mc.ids[lo-mc.base:hi-mc.base])
	}
	m.catBuf = cats
	var class []int
	if m.sc.classIdx >= 0 {
		mc := m.cols[m.sc.classIdx]
		class = mc.ids[lo-mc.base : hi-mc.base]
	}
	if err := m.sink.Rows(lo, hi, cats, class); err != nil {
		return err
	}
	m.emitted = hi
	for _, ci := range m.catIdx {
		mc := m.cols[ci]
		mc.ids, mc.base = mc.ids[:0], hi
	}
	if m.sc.classIdx >= 0 {
		mc := m.cols[m.sc.classIdx]
		mc.ids, mc.base = mc.ids[:0], hi
	}
	return nil
}

// add merges one parsed chunk and, in stream mode, forwards whatever rows
// are ready (all merged rows once the schema has settled).
func (m *mergeState) add(pc *parsedChunk) error {
	m.mergeChunk(pc)
	if m.sink == nil {
		return nil
	}
	if !m.schemaSent {
		if !m.allSettled() {
			return nil
		}
		if err := m.sendSchema(); err != nil {
			return err
		}
	}
	return m.flush(m.rows)
}

// finalizeErr runs the sequential reader's finalize-time error checks in
// column order, so which-row-wins ordering matches exactly.
func (m *mergeState) finalizeErr() error {
	for i, mc := range m.cols {
		if i == m.sc.classIdx {
			if mc.badRow >= 0 {
				return fmt.Errorf("dataset: missing class label at row %d", mc.badRow)
			}
			continue
		}
		if m.sc.forcedNum[i] && mc.badRow >= 0 {
			return fmt.Errorf("dataset: column %q row %d: %q is not numeric", m.sc.header[i], mc.badRow, mc.badVal)
		}
	}
	return nil
}

func (m *mergeState) finalizeTable(name string, bytesRead int64) (*Table, error) {
	if err := m.finalizeErr(); err != nil {
		return nil, err
	}
	t := &Table{Name: name, BytesRead: bytesRead}
	for i, mc := range m.cols {
		if i == m.sc.classIdx {
			t.Class = mc.ids
			t.ClassNames = mc.in.names
			continue
		}
		if m.sc.forcedNum[i] || (mc.tryNum && mc.seenVal) {
			t.Cols = append(t.Cols, &Column{Name: m.sc.header[i], Kind: Numeric, Floats: mc.floats})
			continue
		}
		if mc.ids == nil {
			mc.ids = []int{}
		}
		t.Cols = append(t.Cols, &Column{Name: m.sc.header[i], Kind: Categorical, Values: mc.ids, Names: mc.in.names})
	}
	return t, nil
}

func (m *mergeState) finalizeStream(bytesRead int64) (*CSVStream, error) {
	if err := m.finalizeErr(); err != nil {
		return nil, err
	}
	if !m.schemaSent {
		if err := m.sendSchema(); err != nil {
			return nil, err
		}
	}
	if err := m.flush(m.rows); err != nil {
		return nil, err
	}
	st := &CSVStream{Rows: m.rows, Bytes: bytesRead, Cats: m.catNames}
	if m.sc.classIdx >= 0 {
		st.ClassNames = m.cols[m.sc.classIdx].in.names
	}
	return st, nil
}

// readCSVChunked is the shared chunk/parse/merge engine behind
// ReadCSVParallel (sink == nil: materialize a Table) and ReadCSVStream
// (sink != nil: deliver rows incrementally). Workers parse chunks out of
// order; the merge consumes them strictly in input order, so every output —
// ids, rows, errors — is deterministic and scheduling-independent.
func readCSVChunked(r io.Reader, opts CSVOptions, chunkSize int, sink CSVSink) (*Table, *CSVStream, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	count := &countingReader{r: r}
	ck := &chunker{r: count, size: chunkSize, line: 1}

	prefix, nlPrefix, err := ck.firstRecord()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	fr := csv.NewReader(bytes.NewReader(prefix))
	if opts.Comma != 0 {
		fr.Comma = opts.Comma
	}
	first, err := fr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("dataset: empty csv input")
	}
	if err != nil {
		// The prefix starts after the skipped blank lines: rebase the
		// parse error's line numbers onto the input's.
		return nil, nil, fmt.Errorf("dataset: reading csv: %w", remapChunkErr(err, ck.line))
	}
	header := make([]string, len(first))
	if opts.HasHeader {
		for i, h := range first {
			header[i] = strings.Clone(h)
		}
		ck.consume(len(prefix), nlPrefix)
	} else {
		for i := range header {
			header[i] = fmt.Sprintf("col%d", i)
		}
	}
	sc, err := newChunkSchema(&opts, header)
	if err != nil {
		return nil, nil, err
	}

	jobs := make(chan chunkJob, workers)
	results := make(chan *parsedChunk, workers)
	done := make(chan struct{})
	var readErr error
	go func() {
		defer close(jobs)
		idx := 0
		for {
			data, line, ok, err := ck.next()
			if err != nil {
				readErr = err
				return
			}
			if !ok {
				return
			}
			select {
			case jobs <- chunkJob{index: idx, data: data, startLine: line}:
				idx++
			case <-done:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "ingest", Worker: strconv.Itoa(worker)}, func() {
				for job := range jobs {
					results <- parseChunk(sc, job)
				}
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	m := newMergeState(sc, sink)
	pending := make(map[int]*parsedChunk)
	want := 0
	var fatal error
	abort := func(err error) {
		fatal = err
		close(done)
	}
	for pc := range results {
		if fatal != nil {
			continue
		}
		pending[pc.index] = pc
		for fatal == nil {
			p, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			want++
			if p.err != nil {
				abort(fmt.Errorf("dataset: reading csv: %w", p.err))
				break
			}
			if err := m.add(p); err != nil {
				abort(err)
			}
		}
	}
	if fatal != nil {
		return nil, nil, fatal
	}
	if readErr != nil {
		return nil, nil, fmt.Errorf("dataset: reading csv: %w", readErr)
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
