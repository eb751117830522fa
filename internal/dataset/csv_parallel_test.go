package dataset

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// tablesEqual compares two tables bit-for-bit: names, kinds, ids, intern
// order, class labels, byte counts, and float payloads by exact bits (NaN
// missing markers included), which is the actual "bit-identical" contract
// reflect.DeepEqual's NaN != NaN would miss.
func tablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("Name: %q != %q", got.Name, want.Name)
	}
	if want.BytesRead != got.BytesRead {
		t.Fatalf("BytesRead: %d != %d", got.BytesRead, want.BytesRead)
	}
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("columns: %d != %d", len(got.Cols), len(want.Cols))
	}
	intsEq := func(ctx string, a, b []int) {
		t.Helper()
		if (a == nil) != (b == nil) || len(a) != len(b) {
			t.Fatalf("%s: len/nil mismatch (%d/%v vs %d/%v)", ctx, len(b), b == nil, len(a), a == nil)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %d != %d", ctx, i, b[i], a[i])
			}
		}
	}
	strsEq := func(ctx string, a, b []string) {
		t.Helper()
		if (a == nil) != (b == nil) || len(a) != len(b) {
			t.Fatalf("%s: len/nil mismatch", ctx)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: %q != %q", ctx, i, b[i], a[i])
			}
		}
	}
	for ci, wc := range want.Cols {
		gc := got.Cols[ci]
		if wc.Name != gc.Name || wc.Kind != gc.Kind {
			t.Fatalf("col %d: %q/%v != %q/%v", ci, gc.Name, gc.Kind, wc.Name, wc.Kind)
		}
		intsEq(fmt.Sprintf("col %q Values", wc.Name), wc.Values, gc.Values)
		strsEq(fmt.Sprintf("col %q Names", wc.Name), wc.Names, gc.Names)
		if (wc.Floats == nil) != (gc.Floats == nil) || len(wc.Floats) != len(gc.Floats) {
			t.Fatalf("col %q Floats: len/nil mismatch", wc.Name)
		}
		for i := range wc.Floats {
			if math.Float64bits(wc.Floats[i]) != math.Float64bits(gc.Floats[i]) {
				t.Fatalf("col %q Floats[%d]: %x != %x", wc.Name, i,
					math.Float64bits(gc.Floats[i]), math.Float64bits(wc.Floats[i]))
			}
		}
	}
	intsEq("Class", want.Class, got.Class)
	strsEq("ClassNames", want.ClassNames, got.ClassNames)
}

// equivCSVs is the shared corpus of inputs exercising every reader feature:
// inference flips, forced kinds, quoting, crlf, blank lines, missing
// tokens, a near-unique id column and a leading byte order mark.
func equivCSVs() map[string]struct {
	data string
	opts CSVOptions
} {
	unique := func(rows int) string {
		var sb strings.Builder
		sb.WriteString("id,grp,class\n")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&sb, "u%d,g%d,c%d\n", r, r%5, r%3)
		}
		return sb.String()
	}
	lateFlip := func(rows int) string {
		var sb strings.Builder
		sb.WriteString("maybe,grp,class\n")
		for r := 0; r < rows-1; r++ {
			fmt.Fprintf(&sb, "%d.25,g%d,c%d\n", r, r%5, r%3)
		}
		fmt.Fprintf(&sb, "oops,g0,c0\n")
		return sb.String()
	}
	return map[string]struct {
		data string
		opts CSVOptions
	}{
		"bench": {benchCSV(3000), CSVOptions{Name: "b", HasHeader: true, ClassColumn: "class"}},
		"noheader": {
			"a,1,x\nb,2,y\na,3,x\nc,?,y\n",
			CSVOptions{Name: "nh"},
		},
		"quoted": {
			"name,text,class\nr0,\"line one\nline two\",c0\nr1,\"comma, quote \"\"q\"\"\",c1\nr2,plain,c0\n" +
				strings.Repeat("rx,\"multi\nline\nvalue\",c1\n", 500),
			CSVOptions{Name: "q", HasHeader: true, ClassColumn: "class"},
		},
		"crlf": {
			"a,b\r\n\r\nx,1\r\ny,2\r\nx,3\r\n",
			CSVOptions{Name: "crlf", HasHeader: true},
		},
		"leadingblank": {
			"\n\nx,1\ny,2\n",
			CSVOptions{Name: "lb"},
		},
		"overflow": {unique(5600), CSVOptions{Name: "ov", HasHeader: true, ClassColumn: "class"}},
		"lateflip": {lateFlip(2000), CSVOptions{Name: "lf", HasHeader: true, ClassColumn: "class"}},
		"forced": {
			benchCSV(1200),
			CSVOptions{Name: "f", HasHeader: true, ClassColumn: "class",
				NumericColumns: []string{"num"}, CategoricalColumns: []string{"a"}},
		},
		"trim": {
			"a, b ,class\n x , 1 , c0 \n?, 2 ,c1\n x , ? ,c0\n",
			CSVOptions{Name: "t", HasHeader: true, ClassColumn: "class", TrimSpace: true},
		},
		"semicolon": {
			"a;b\nx;1\ny;2\n",
			CSVOptions{Name: "sc", HasHeader: true, Comma: ';'},
		},
		"allmissing": {
			"a,b\n?,1\n?,2\n",
			CSVOptions{Name: "am", HasHeader: true},
		},
		"noeofnl": {
			"a,b\nx,1\ny,2",
			CSVOptions{Name: "nn", HasHeader: true},
		},
		// The class column comes first, right after the byte order mark.
		"bom": {
			"\ufeffclass,b\n" + strings.Repeat("c0,x\nc1,y\n", 40),
			CSVOptions{Name: "bom", HasHeader: true, ClassColumn: "class"},
		},
	}
}

// equivGrid lists the chunkings the reader is checked under: chunk size
// and chunk parsers after the handoff. Chunks this small force a handoff
// right after the header or the first few records, and then dozens to
// hundreds of chunks per input; parsers 0 parses in place throughout,
// delivering to a sink every chunk.
var equivGrid = []struct{ parsers, chunk int }{
	{1, 64}, {2, 64}, {3, 257}, {8, 101}, {2, 4096}, {8, 1 << 20}, {0, 64},
}

// onePass reads data without a handoff: the whole input parses in place.
func onePass(data string, opts CSVOptions) (*Table, error) {
	tab, _, err := readCSV(strings.NewReader(data), opts, nil, defaultChunkBytes, 0)
	return tab, err
}

// TestReadCSVParallelEquiv pins the handed-off read to produce tables
// bit-identical to the one-pass parse across parser counts and chunk sizes.
func TestReadCSVParallelEquiv(t *testing.T) {
	for name, tc := range equivCSVs() {
		t.Run(name, func(t *testing.T) {
			want, err := onePass(tc.data, tc.opts)
			if err != nil {
				t.Fatalf("one pass: %v", err)
			}
			for _, g := range equivGrid {
				got, _, err := readCSV(strings.NewReader(tc.data), tc.opts, nil, g.chunk, g.parsers)
				if err != nil {
					t.Fatalf("parsers=%d chunk=%d: %v", g.parsers, g.chunk, err)
				}
				tablesEqual(t, want, got)
			}
		})
	}
}

// TestReadCSVParallelErrorEquiv pins error equivalence: a malformed row or
// cell must surface the exact one-pass error (message, line numbers, and
// which-row/which-column-wins ordering) no matter which chunk it lands in.
func TestReadCSVParallelErrorEquiv(t *testing.T) {
	pad := func(rows int) string {
		var sb strings.Builder
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&sb, "v%d,w%d,c%d\n", r%7, r%4, r%3)
		}
		return sb.String()
	}
	cases := map[string]struct {
		data string
		opts CSVOptions
	}{
		"ragged-early":  {"a,b,class\n" + "x,1,c0\nx,1\n" + pad(900), CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"ragged-late":   {"a,b,class\n" + pad(900) + "x,1,2,3\n", CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"bare-quote":    {"a,b,class\n" + pad(400) + "x,ba\"re,c0\n" + pad(400), CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"open-quote":    {"a,b,class\n" + pad(400) + "x,\"never closed,c0\n" + pad(400), CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"stray-quote":   {"a,b,class\n" + pad(700) + "x,\"mid\"dle,c0\n", CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"empty":         {"", CSVOptions{}},
		"blank-only":    {"\n\n\n", CSVOptions{}},
		"header-only":   {"a,b,class\n", CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"no-class":      {"a,b\n" + pad(50), CSVOptions{HasHeader: true, ClassColumn: "zzz"}},
		"class-missing": {"a,b,class\n" + pad(300) + "x,1,?\n" + pad(300), CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"forced-bad-late": {"a,num,class\n" + pad(800) + "x,notnum,c0\n" + pad(10),
			CSVOptions{HasHeader: true, ClassColumn: "class", NumericColumns: []string{"num"}}},
		// Two offending columns: the reader reports the first bad column in
		// column order, not the first bad row.
		"column-order-wins": {"num1,num2,class\n1,2,c0\n1,bad2,c0\n" + strings.Repeat("3,4,c1\n", 500) + "bad1,5,c0\n",
			CSVOptions{HasHeader: true, ClassColumn: "class", NumericColumns: []string{"num1", "num2"}}},
		// The early-exit class error must also beat a later parse error.
		"no-class-beats-ragged": {"a,b\nx\n", CSVOptions{HasHeader: true, ClassColumn: "zzz"}},
		// Line numbers after a handoff that lands inside multi-line records
		// and blank lines.
		"ragged-after-quoted": {"a,class,b\n" + strings.Repeat("x,c0,\"two\nlines\"\n\n", 60) + "x,1\n" + pad(40),
			CSVOptions{HasHeader: true, ClassColumn: "class"}},
		"bare-quote-crlf": {"a,b,class\r\n" + strings.Repeat("x,\"q\r\nq\",c1\r\n", 50) + "x,b\"q,c0\r\n",
			CSVOptions{HasHeader: true, ClassColumn: "class"}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, wantErr := onePass(tc.data, tc.opts)
			if wantErr == nil {
				t.Fatalf("one-pass parse accepted the input; broken test case")
			}
			for _, g := range equivGrid {
				for _, sink := range []CSVSink{nil, &recordingSink{t: t}} {
					_, _, err := readCSV(strings.NewReader(tc.data), tc.opts, sink, g.chunk, g.parsers)
					if err == nil {
						t.Fatalf("parsers=%d chunk=%d: accepted input; want %q", g.parsers, g.chunk, wantErr)
					}
					if err.Error() != wantErr.Error() {
						t.Fatalf("parsers=%d chunk=%d stream=%v:\n  got:      %v\n  one pass: %v", g.parsers, g.chunk, sink != nil, err, wantErr)
					}
				}
			}
		})
	}
}

// recordingSink accumulates a ReadCSVStream delivery while checking the
// sink contract: one Schema call before any Rows, contiguous row ranges,
// and per-call copying (the slices are reused by the reader).
type recordingSink struct {
	t        *testing.T
	schema   int
	cats     []string
	hasClass bool
	ids      [][]int
	class    []int
	next     int
}

func (s *recordingSink) Schema(cats []string, hasClass bool) error {
	s.schema++
	if s.schema > 1 {
		s.t.Fatalf("Schema called %d times", s.schema)
	}
	s.cats = append([]string(nil), cats...)
	s.hasClass = hasClass
	s.ids = make([][]int, len(cats))
	return nil
}

func (s *recordingSink) Rows(lo, hi int, cats [][]int, class []int) error {
	if s.schema != 1 {
		s.t.Fatalf("Rows before Schema")
	}
	if lo != s.next || hi <= lo {
		s.t.Fatalf("rows [%d,%d) out of order (want lo=%d)", lo, hi, s.next)
	}
	if len(cats) != len(s.cats) || (class != nil) != s.hasClass {
		s.t.Fatalf("batch shape mismatch")
	}
	for i, c := range cats {
		if len(c) != hi-lo {
			s.t.Fatalf("cats[%d] length %d != %d", i, len(c), hi-lo)
		}
		s.ids[i] = append(s.ids[i], c...)
	}
	if class != nil {
		s.class = append(s.class, class...)
	}
	s.next = hi
	return nil
}

// TestReadCSVStreamEquiv pins the streaming seam: the concatenation of the
// delivered batches must equal the one-pass table's categorical columns
// (same ids, same order) and class labels, for the one-pass stream and
// every parser/chunk setting.
func TestReadCSVStreamEquiv(t *testing.T) {
	for name, tc := range equivCSVs() {
		t.Run(name, func(t *testing.T) {
			want, err := onePass(tc.data, tc.opts)
			if err != nil {
				t.Fatalf("one pass: %v", err)
			}
			cats := want.CategoricalColumns()
			for _, g := range append(equivGrid, struct{ parsers, chunk int }{0, defaultChunkBytes}) {
				sink := &recordingSink{t: t}
				_, st, err := readCSV(strings.NewReader(tc.data), tc.opts, sink, g.chunk, g.parsers)
				if err != nil {
					t.Fatalf("parsers=%d chunk=%d: %v", g.parsers, g.chunk, err)
				}
				if st.Rows != want.N() || st.Bytes != want.BytesRead {
					t.Fatalf("stream rows/bytes %d/%d != %d/%d", st.Rows, st.Bytes, want.N(), want.BytesRead)
				}
				if len(sink.cats) != len(cats) {
					t.Fatalf("schema has %d cats (%v), want %d", len(sink.cats), sink.cats, len(cats))
				}
				for i, c := range cats {
					if sink.cats[i] != c.Name {
						t.Fatalf("cat %d name %q != %q", i, sink.cats[i], c.Name)
					}
					if len(sink.ids[i]) != len(c.Values) {
						t.Fatalf("cat %q: %d ids != %d", c.Name, len(sink.ids[i]), len(c.Values))
					}
					for r, v := range c.Values {
						if sink.ids[i][r] != v {
							t.Fatalf("cat %q row %d: %d != %d", c.Name, r, sink.ids[i][r], v)
						}
					}
					if !slices.Equal(st.Values[i], c.Names) {
						t.Fatalf("cat %q value names %q != %q", c.Name, st.Values[i], c.Names)
					}
				}
				if want.Class != nil {
					for r, v := range want.Class {
						if sink.class[r] != v {
							t.Fatalf("class row %d: %d != %d", r, sink.class[r], v)
						}
					}
					for i, nm := range want.ClassNames {
						if st.ClassNames[i] != nm {
							t.Fatalf("class name %d: %q != %q", i, st.ClassNames[i], nm)
						}
					}
				}
			}
		})
	}
}

// TestReadCSVBytesRead pins the no-extra-pass byte accounting with and
// without a handoff, byte order mark included.
func TestReadCSVBytesRead(t *testing.T) {
	for _, data := range []string{benchCSV(500), "\ufeff" + benchCSV(500)} {
		seq, err := ReadCSV(strings.NewReader(data), CSVOptions{HasHeader: true, ClassColumn: "class"})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := readCSV(strings.NewReader(data), CSVOptions{HasHeader: true, ClassColumn: "class"}, nil, 1000, 3)
		if err != nil {
			t.Fatal(err)
		}
		if seq.BytesRead != int64(len(data)) || par.BytesRead != int64(len(data)) {
			t.Fatalf("BytesRead one pass=%d handoff=%d want %d", seq.BytesRead, par.BytesRead, len(data))
		}
	}
}

// maxRead records the largest buffer its reader was asked to fill.
type maxRead struct {
	r   io.Reader
	max int
}

func (m *maxRead) Read(p []byte) (int, error) {
	m.max = max(m.max, len(p))
	return m.r.Read(p)
}

// TestReadCSVHandsOff pins when ReadCSV hands the input to the chunk
// parsers: past its first chunk and only when more than one goroutine runs
// at a time. The in-place parse reads through a 4 KiB buffer; the chunker
// asks for a chunk at a time.
func TestReadCSVHandsOff(t *testing.T) {
	data := benchCSV(40_000)
	if len(data) <= defaultChunkBytes {
		t.Fatalf("input is %d bytes, not past one chunk", len(data))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		r := &maxRead{r: strings.NewReader(data)}
		tab, err := ReadCSV(r, CSVOptions{HasHeader: true, ClassColumn: "class"})
		if err != nil {
			t.Fatal(err)
		}
		if tab.N() != 40_000 {
			t.Fatalf("GOMAXPROCS %d: %d rows", procs, tab.N())
		}
		if handedOff := r.max > 4096; handedOff != (procs > 1) {
			t.Errorf("GOMAXPROCS %d: largest read %d bytes; handed off = %v", procs, r.max, handedOff)
		}
	}
}

// failAfterHeader errors on any Read past the first line, proving the
// readers validate the class column before parsing data.
type failAfterHeader struct {
	header string
	off    int
}

func (f *failAfterHeader) Read(p []byte) (int, error) {
	if f.off >= len(f.header) {
		return 0, fmt.Errorf("read past header")
	}
	n := copy(p, f.header[f.off:])
	f.off += n
	return n, nil
}

// TestReadCSVClassColumnFailsFast pins the fixed header validation: an
// unknown class column is rejected without scanning a single data row.
func TestReadCSVClassColumnFailsFast(t *testing.T) {
	opts := CSVOptions{HasHeader: true, ClassColumn: "nope"}
	want := `dataset: class column "nope" not found in header [a b]`
	if _, err := ReadCSV(&failAfterHeader{header: "a,b\n"}, opts); err == nil || err.Error() != want {
		t.Fatalf("one pass: %v, want %s", err, want)
	}
	// A handoff due right after the header must not start either: the
	// rows after it are ragged, and the class error still wins.
	data := "a,b\n" + strings.Repeat("x\n", 10)
	if _, _, err := readCSV(&failAfterHeader{header: data}, opts, nil, 2, 2); err == nil || err.Error() != want {
		t.Fatalf("handoff: %v, want %s", err, want)
	}
}

// FuzzReadCSVParallelEquiv cross-checks a forced handoff against the
// one-pass parse on arbitrary bytes and reader configurations: identical
// tables (bit-for-bit) or identical error strings, at fuzzer-chosen parser
// counts and chunk sizes.
func FuzzReadCSVParallelEquiv(f *testing.F) {
	for _, tc := range equivCSVs() {
		f.Add([]byte(tc.data), uint8(2), uint16(64), uint8(3))
	}
	f.Add([]byte("a,b\nx,\"1\n2\",\ny,3\n"), uint8(3), uint16(7), uint8(7))
	f.Add([]byte("\"\n\"\"\n,x\r\n?,"), uint8(8), uint16(1), uint8(0))
	f.Add([]byte("\n\""), uint8(2), uint16(64), uint8(0)) // bad first record after a blank line
	f.Fuzz(func(t *testing.T, data []byte, parsers uint8, chunk uint16, cfg uint8) {
		opts := CSVOptions{Name: "fz"}
		opts.HasHeader = cfg&1 != 0
		if cfg&2 != 0 {
			opts.ClassColumn = "class"
		}
		if cfg&4 != 0 {
			opts.TrimSpace = true
		}
		if cfg&8 != 0 {
			opts.NumericColumns = []string{"b", "col1"}
		}
		if cfg&16 != 0 {
			opts.CategoricalColumns = []string{"a", "col0"}
		}
		if cfg&32 != 0 {
			opts.MissingTokens = []string{"?", "", "NA"}
		}
		want, wantErr := onePass(string(data), opts)
		got, _, err := readCSV(strings.NewReader(string(data)), opts, nil, 1+int(chunk%2048), 1+int(parsers%8))
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("error mismatch:\n  handoff:  %v\n  one pass: %v", err, wantErr)
		}
		if wantErr != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("error text mismatch:\n  handoff:  %v\n  one pass: %v", err, wantErr)
			}
			return
		}
		tablesEqual(t, want, got)
	})
}
