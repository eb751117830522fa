package dataset

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// benchCSV builds an in-memory CSV in the shape the loader actually meets:
// mostly low-cardinality categorical columns with heavily repeated values
// (the regime interning and ReuseRecord target), one numeric
// column, one class column, and a sprinkle of missing tokens.
func benchCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("a,b,c,d,e,f,num,class\n")
	for r := 0; r < rows; r++ {
		for c := 0; c < 6; c++ {
			if (r+c)%97 == 0 {
				sb.WriteString("?,")
				continue
			}
			fmt.Fprintf(&sb, "val%d,", (r*7+c*3)%(8+c))
		}
		fmt.Fprintf(&sb, "%d.5,c%d\n", r%13, r%3)
	}
	return sb.String()
}

// BenchmarkReadCSV pins the reader's speed and allocation profile (run
// with -benchmem) on a 0.7 MB input: one-chunk parses it in place, as
// ReadCSV does at this size; handoff parses the first 64 KiB in place and
// hands the rest to the chunk parsers, as ReadCSV does past its first
// chunk. docs/PERFORMANCE.md records the numbers.
func BenchmarkReadCSV(b *testing.B) {
	data := benchCSV(20_000)
	opts := CSVOptions{Name: "bench", HasHeader: true, ClassColumn: "class"}
	for _, bc := range []struct {
		name           string
		chunk, parsers int
	}{
		{"one-chunk", defaultChunkBytes, 0},
		{"handoff", 64 << 10, max(2, runtime.GOMAXPROCS(0))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, _, err := readCSV(strings.NewReader(data), opts, nil, bc.chunk, bc.parsers)
				if err != nil {
					b.Fatal(err)
				}
				if t.N() != 20_000 {
					b.Fatalf("rows = %d", t.N())
				}
			}
		})
	}
}

// TestReadCSVOneChunkAllocBytes pins the bytes ReadCSV allocates on an input
// below one chunk: 6.60 MB a read on benchCSV(20 000), which the bound
// allows 10% over. Buffering the input, or parsing it through the chunk
// parsers (local ids, then a remap into the global ones), costs well past
// that.
func TestReadCSVOneChunkAllocBytes(t *testing.T) {
	const runs = 5
	data := benchCSV(20_000)
	if len(data) >= defaultChunkBytes {
		t.Fatalf("input is %d bytes, not below one chunk", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadCSV(strings.NewReader(data), CSVOptions{Name: "pin", HasHeader: true, ClassColumn: "class"}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead > 7_260_000 {
		t.Errorf("ReadCSV allocates %d bytes a read on %d input bytes; the one-chunk bound is 7 260 000", perRead, len(data))
	}
}

// TestReadCSVInternAllocs pins the interning reader's allocation shape: on
// a repeated-value table the per-parse allocation count must scale with
// distinct values and rows (slice growth), not with cells — the pre-intern
// reader allocated one string per cell (~2 allocs/cell end to end), so the
// pin at well under one alloc per cell fails on any regression to that.
func TestReadCSVInternAllocs(t *testing.T) {
	const rows = 2000
	data := benchCSV(rows)
	cells := rows * 8
	allocs := testing.AllocsPerRun(5, func() {
		tab, err := ReadCSV(strings.NewReader(data), CSVOptions{
			Name: "pin", HasHeader: true, ClassColumn: "class",
		})
		if err != nil {
			t.Fatal(err)
		}
		if tab.N() != rows {
			t.Fatalf("rows = %d", tab.N())
		}
	})
	if perCell := allocs / float64(cells); perCell > 0.5 {
		t.Errorf("ReadCSV allocates %.0f objects (%.2f per cell) on %d cells; interning should keep this well under one per cell", allocs, perCell, cells)
	}
}
