package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"clusteragg/internal/obs"
)

// CSVSink consumes a CSV read incrementally, in row order, while later
// chunks are still being parsed. This is the streaming seam: a sink can pack
// each row batch straight into its final storage, so no Table ever
// materializes.
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
// numeric column, a missing class label) are reported once the input is
// exhausted: rows may reach the sink before the read as a whole fails, and
// the sink's output must then be discarded.
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

// chunker splits the input into record-aligned byte chunks. A split point is
// a newline seen at even double-quote parity: inside a quoted field parity
// is odd, so quoted embedded newlines never split a record, and for valid
// csv every even-parity newline is a record terminator. (For invalid csv the
// rule only ever under-splits — a bare quote suppresses splits until the
// next quote — so the malformed record always reaches one chunk intact and
// fails with the same error as an in-place parse.)
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

type chunkJob struct {
	index     int
	data      []byte
	startLine int
}

type parsedChunk struct {
	index int
	rows  int
	cols  []*column
	err   error
}

// parseChunk parses one byte range into chunk-local columns with the same
// per-record logic as the in-place prefix. The chunk's line count bounds
// its record count, so the id columns never grow. Field count is pinned to
// the header width so ragged records fail identically no matter which
// chunk they land in, and csv error line numbers are rebased from the
// chunk's to the input's.
func parseChunk(sc *schema, job chunkJob) *parsedChunk {
	lines := bytes.Count(job.data, []byte{'\n'}) + 1
	pc := &parsedChunk{index: job.index, cols: sc.newColumns(lines)}
	cr := newCSVReader(bytes.NewReader(job.data), sc.comma)
	cr.FieldsPerRecord = len(sc.header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return pc
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				pe.StartLine += job.startLine - 1
				pe.Line += job.startLine - 1
			}
			pc.err = err
			return pc
		}
		sc.record(pc.cols, pc.rows, rec)
		pc.rows++
	}
}

// merge is the whole-input state: the columns in global rows and ids, and
// in stream mode what has been handed to the sink so far.
type merge struct {
	sc         *schema
	sink       CSVSink
	cols       []*column
	rows       int
	emitted    int
	schemaSent bool
	catIdx     []int
	catNames   []string
	catBuf     [][]int
}

// add appends one parsed chunk's rows. Interning the chunk's symbol table
// in its local order preserves first-occurrence order globally (chunks
// merge in input order, and within a chunk local order is row order).
func (m *merge) add(pc *parsedChunk) {
	for i, cc := range pc.cols {
		c := m.cols[i]
		if c.badRow < 0 && cc.badRow >= 0 {
			c.badRow, c.badVal = m.rows+cc.badRow, cc.badVal
		}
		c.seenVal = c.seenVal || cc.seenVal
		if c.tryNum && !cc.tryNum {
			c.tryNum = false
			c.floats = nil
		}
		if (c.tryNum || m.sc.forcedNum[i]) && m.sink == nil {
			c.floats = append(c.floats, cc.floats...)
		}
		remap := make([]int, len(cc.in))
		for li, name := range cc.in.names() {
			remap[li] = c.in.id(name)
		}
		for j, id := range cc.ids {
			if id != MissingValue {
				cc.ids[j] = remap[id]
			}
		}
		c.ids = append(c.ids, cc.ids...)
	}
	m.rows += pc.rows
}

// sendSchema fixes the categorical column set (the kinds are settled, so
// the rule below can no longer change its mind) and tells the sink.
func (m *merge) sendSchema() error {
	m.catNames = []string{}
	for i, c := range m.cols {
		if i == m.sc.classIdx || m.sc.forcedNum[i] || (c.tryNum && c.seenVal) {
			continue
		}
		m.catIdx = append(m.catIdx, i)
		m.catNames = append(m.catNames, m.sc.header[i])
	}
	m.schemaSent = true
	return m.sink.Schema(m.catNames, m.sc.classIdx >= 0)
}

// deliver hands every row parsed so far to the sink, once the schema has
// settled, and drops them: after the call the reader retains nothing before
// m.rows, so steady-state memory is a chunk per column, not the whole file.
// Without a sink it does nothing.
func (m *merge) deliver() error {
	if m.sink == nil {
		return nil
	}
	if !m.schemaSent {
		// A column's kind has settled once it can no longer turn out
		// numeric: forced kinds and the class from the start, inferred
		// ones at their first value that is not a number.
		for _, c := range m.cols {
			if c.tryNum {
				return nil
			}
		}
		if err := m.sendSchema(); err != nil {
			return err
		}
	}
	lo, hi := m.emitted, m.rows
	if hi == lo {
		return nil
	}
	cats := m.catBuf[:0]
	for _, ci := range m.catIdx {
		cats = append(cats, m.cols[ci].ids)
	}
	m.catBuf = cats
	var class []int
	if m.sc.classIdx >= 0 {
		class = m.cols[m.sc.classIdx].ids
	}
	if err := m.sink.Rows(lo, hi, cats, class); err != nil {
		return err
	}
	m.emitted = hi
	for _, c := range m.cols {
		c.ids, c.floats = c.ids[:0], c.floats[:0]
	}
	return nil
}

// finalizeErr reports the per-column errors in column order, so which
// column wins does not depend on where the chunks split.
func (m *merge) finalizeErr() error {
	for i, c := range m.cols {
		if c.badRow < 0 {
			continue
		}
		if i == m.sc.classIdx {
			return fmt.Errorf("dataset: missing class label at row %d", c.badRow)
		}
		return fmt.Errorf("dataset: column %q row %d: %q is not numeric", m.sc.header[i], c.badRow, c.badVal)
	}
	return nil
}

func (m *merge) finalizeTable(name string, bytesRead int64) (*Table, error) {
	if err := m.finalizeErr(); err != nil {
		return nil, err
	}
	t := &Table{Name: name, BytesRead: bytesRead}
	for i, c := range m.cols {
		switch {
		case i == m.sc.classIdx:
			t.Class = c.ids
			t.ClassNames = c.in.names()
		case m.sc.forcedNum[i] || (c.tryNum && c.seenVal):
			t.Cols = append(t.Cols, &Column{Name: m.sc.header[i], Kind: Numeric, Floats: c.floats})
		default:
			t.Cols = append(t.Cols, &Column{Name: m.sc.header[i], Kind: Categorical, Values: c.ids, Names: c.in.names()})
		}
	}
	return t, nil
}

func (m *merge) finalizeStream(bytesRead int64) (*CSVStream, error) {
	if err := m.finalizeErr(); err != nil {
		return nil, err
	}
	if !m.schemaSent {
		if err := m.sendSchema(); err != nil {
			return nil, err
		}
	}
	if err := m.deliver(); err != nil {
		return nil, err
	}
	st := &CSVStream{Rows: m.rows, Bytes: bytesRead, Cats: m.catNames}
	if m.sc.classIdx >= 0 {
		st.ClassNames = m.cols[m.sc.classIdx].in.names()
	}
	return st, nil
}

// parallel parses the rest of r, which starts on input line line, with
// parsers concurrent chunk parsers and merges their output strictly in
// input order, so every result — ids, rows, errors — is deterministic and
// scheduling-independent.
func (m *merge) parallel(r io.Reader, chunk, line, parsers int) error {
	if err := m.deliver(); err != nil {
		return err
	}
	ck := &chunker{r: r, size: chunk, line: line}
	// One slot per parser on each side lets the chunker read ahead and the
	// parsers finish chunks while the merge is busy with an earlier one.
	jobs := make(chan chunkJob, parsers)
	results := make(chan *parsedChunk, parsers)
	done := make(chan struct{})
	var readErr error
	go func() {
		defer close(jobs)
		for idx := 0; ; idx++ {
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
			case <-done:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(parsers)
	for w := 0; w < parsers; w++ {
		go func(worker int) {
			defer wg.Done()
			obs.Do(obs.ProfLabels{Phase: "ingest", Worker: strconv.Itoa(worker)}, func() {
				for job := range jobs {
					results <- parseChunk(m.sc, job)
				}
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]*parsedChunk)
	want := 0
	var fatal error
	for pc := range results {
		if fatal != nil {
			continue
		}
		pending[pc.index] = pc
		for p := pending[want]; p != nil && fatal == nil; p = pending[want] {
			delete(pending, want)
			want++
			if p.err != nil {
				fatal = fmt.Errorf("dataset: reading csv: %w", p.err)
			} else {
				m.add(p)
				fatal = m.deliver()
			}
			if fatal != nil {
				close(done)
			}
		}
	}
	if fatal != nil {
		return fatal
	}
	if readErr != nil {
		return fmt.Errorf("dataset: reading csv: %w", readErr)
	}
	return nil
}
