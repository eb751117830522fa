package clusteragg_test

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"slices"
	"strings"
	"testing"

	"clusteragg"
)

func TestFacadeFigure1(t *testing.T) {
	problem, err := clusteragg.NewProblem([]clusteragg.Labels{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 0, 1, 2, 3},
		{0, 1, 0, 1, 2, 2},
	}, clusteragg.ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range append(clusteragg.Methods(), clusteragg.ExtensionMethods()...) {
		if method == clusteragg.MethodBalls {
			continue // needs alpha=0.4 on this tiny instance
		}
		labels, err := problem.Aggregate(method, clusteragg.AggregateOptions{})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if d := problem.Disagreement(labels); math.Abs(d-5) > 1e-9 {
			t.Errorf("%v: disagreement %v, want 5", method, d)
		}
	}
}

func TestFacadeDistanceHelpers(t *testing.T) {
	a := clusteragg.Labels{0, 0, 1}
	b := clusteragg.Labels{0, 1, 1}
	d, err := clusteragg.Distance(a, b)
	if err != nil || d != 2 {
		t.Errorf("Distance = %d, %v", d, err)
	}
	ri, err := clusteragg.RandIndex(a, a)
	if err != nil || ri != 1 {
		t.Errorf("RandIndex = %v, %v", ri, err)
	}
	if clusteragg.Missing != -1 {
		t.Error("Missing constant drifted")
	}
}

func TestAggregateCSV(t *testing.T) {
	csv := "a,b,class\nx,p,A\nx,p,A\ny,q,B\ny,q,B\n"
	res, err := clusteragg.AggregateCSV(strings.NewReader(csv), clusteragg.CSVOptions{
		HasHeader:   true,
		ClassColumn: "class",
		Method:      clusteragg.MethodAgglomerative,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels.K() != 2 {
		t.Errorf("K = %d, want 2", res.Labels.K())
	}
	if res.Disagreement != 0 {
		t.Errorf("disagreement %v, want 0 on unanimous attributes", res.Disagreement)
	}
	if res.Attributes != 2 {
		t.Errorf("attributes = %d, want 2 (class excluded)", res.Attributes)
	}
	if len(res.Class) != 4 {
		t.Errorf("class labels = %v", res.Class)
	}
}

func TestAggregateCSVSampling(t *testing.T) {
	var b strings.Builder
	b.WriteString("a\n")
	for i := 0; i < 80; i++ {
		if i%2 == 0 {
			b.WriteString("x\n")
		} else {
			b.WriteString("y\n")
		}
	}
	res, err := clusteragg.AggregateCSV(strings.NewReader(b.String()), clusteragg.CSVOptions{
		HasHeader:  true,
		Method:     clusteragg.MethodFurthest,
		SampleSize: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels.K() != 2 {
		t.Errorf("sampled K = %d, want 2", res.Labels.K())
	}
}

func TestAggregateCSVErrors(t *testing.T) {
	if _, err := clusteragg.AggregateCSV(strings.NewReader(""), clusteragg.CSVOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := clusteragg.AggregateCSV(strings.NewReader("1\n2\n"), clusteragg.CSVOptions{}); err == nil {
		t.Error("numeric-only input accepted")
	}
}

// validLabeling fails the test unless labels is a normalized clustering of
// n objects with no missing label.
func validLabeling(t *testing.T, labels clusteragg.Labels, n int) {
	t.Helper()
	if len(labels) != n {
		t.Fatalf("%d labels for %d objects", len(labels), n)
	}
	if err := labels.Validate(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(labels, clusteragg.Missing) || !labels.IsNormalized() {
		t.Fatalf("labels %v not a normalized complete clustering", labels)
	}
}

// degenerateCSV is the degenerate-CSV table TestAggregateCSVDegenerateInputs
// runs and FuzzAggregateCSV seeds its corpus with.
var degenerateCSV = []struct {
	name    string
	csv     string
	rows    int    // data rows, when the input is accepted
	wantErr string // part of the defined error, when it is not
}{
	{name: "empty", csv: "", wantErr: "empty csv input"},
	{name: "header-only", csv: "a,b\n", wantErr: "no data rows"},
	{name: "one-row", csv: "a,b\nx,y\n", rows: 1},
	{name: "one-column", csv: "a\nx\ny\nx\n", rows: 3},
	{name: "all-missing", csv: "a,b\n?,?\n?,\n,?\n", rows: 3},
	{name: "ragged", csv: "a,b\nx,y\nz\n", wantErr: "wrong number of fields"},
	{name: "bad-quote", csv: "a,b\nx\"q,y\nz,w\n", wantErr: `bare "`},
	{name: "unterminated-quote", csv: "a,b\n\"x,y\nz,w\n", wantErr: `extraneous or missing "`},
}

// TestAggregateCSVDegenerateInputs pins the facade's contract on
// degenerate inputs: each yields a defined error or a valid labeling —
// never a panic. CSV inputs run exact and sampled, and each must give the
// same error text or the same labels and costs as the table reference
// (referenceCSV). The NewProblem cases run every method and SAMPLING on
// the problem when it is accepted.
func TestAggregateCSVDegenerateInputs(t *testing.T) {
	noPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		f()
	}
	for _, tc := range degenerateCSV {
		for _, sampleSize := range []int{0, 2} {
			t.Run(fmt.Sprintf("csv/%s/sample=%d", tc.name, sampleSize), func(t *testing.T) {
				opts := clusteragg.CSVOptions{
					HasHeader: true, Method: clusteragg.MethodFurthest, SampleSize: sampleSize,
				}
				var res *clusteragg.CSVResult
				var err error
				noPanic(t, func() {
					res, err = clusteragg.AggregateCSV(strings.NewReader(tc.csv), opts)
				})
				want, wantErr := referenceCSV(tc.csv, opts)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
					}
					if wantErr == nil || err.Error() != wantErr.Error() {
						t.Fatalf("error %q, reference %v", err, wantErr)
					}
					return
				}
				if err != nil || wantErr != nil {
					t.Fatalf("error %v, reference %v", err, wantErr)
				}
				if res.Rows != tc.rows {
					t.Fatalf("%d rows, want %d", res.Rows, tc.rows)
				}
				validLabeling(t, res.Labels, tc.rows)
				sameResult(t, "reference", res, want)
			})
		}
	}

	m := clusteragg.Missing
	for _, tc := range []struct {
		name    string
		inputs  []clusteragg.Labels
		wantErr string
	}{
		{name: "no-clusterings", wantErr: "no input clusterings"},
		{name: "n=0", inputs: []clusteragg.Labels{{}, {}}},
		{name: "n=1", inputs: []clusteragg.Labels{{0}, {m}}},
		{name: "all-missing", inputs: []clusteragg.Labels{{m, m, m}, {m, m, m}}},
	} {
		t.Run("problem/"+tc.name, func(t *testing.T) {
			noPanic(t, func() {
				p, err := clusteragg.NewProblem(tc.inputs, clusteragg.ProblemOptions{})
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				n := len(tc.inputs[0])
				for _, method := range append(clusteragg.Methods(), clusteragg.ExtensionMethods()...) {
					labels, err := p.Aggregate(method, clusteragg.AggregateOptions{})
					if err != nil {
						t.Fatalf("%v: %v", method, err)
					}
					validLabeling(t, labels, n)
				}
				labels, err := p.Sample(clusteragg.MethodFurthest, clusteragg.AggregateOptions{}, clusteragg.SamplingOptions{SampleSize: 1})
				if err != nil {
					t.Fatal(err)
				}
				validLabeling(t, labels, n)
				if d, lb := p.Disagreement(labels), p.LowerBound(); lb > d {
					t.Fatalf("lower bound %v above disagreement %v", lb, d)
				}
			})
		})
	}
}

// FuzzAggregateCSV feeds arbitrary bytes to AggregateCSV, exact and
// sampled, at Workers 1 and 2. It must never panic, and every setting must
// return the table reference's defined error or its valid normalized
// labeling (referenceCSV at Workers 1): neither the worker count nor
// streaming the rows is allowed to steer the result.
func FuzzAggregateCSV(f *testing.F) {
	for _, tc := range degenerateCSV {
		f.Add([]byte(tc.csv), true)
	}
	f.Add([]byte("x,y\nx,z\ny,y\n?,z\n"), false)
	f.Add([]byte("\n\""), false) // bad first record after a blank line
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		if len(data) > 1<<11 {
			// Up to ~1 000 rows: the exact run materializes an n² matrix.
			t.Skip("input too large for one fuzz iteration")
		}
		outcome := func(res *clusteragg.CSVResult, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			validLabeling(t, res.Labels, res.Rows)
			return fmt.Sprint(res.Labels)
		}
		for _, sampleSize := range []int{0, 2} {
			opts := clusteragg.CSVOptions{
				HasHeader: header, Method: clusteragg.MethodFurthest, SampleSize: sampleSize,
				Options: clusteragg.AggregateOptions{Workers: 1},
			}
			want := outcome(referenceCSV(string(data), opts))
			for _, workers := range []int{1, 2} {
				opts.Options.Workers = workers
				if got := outcome(clusteragg.AggregateCSV(bytes.NewReader(data), opts)); got != want {
					t.Fatalf("sample=%d Workers=%d: %q, want the reference's %q", sampleSize, workers, got, want)
				}
			}
		}
	})
}

// The package-level example shown in godoc.
func Example() {
	problem, err := clusteragg.NewProblem([]clusteragg.Labels{
		{0, 0, 1, 1, 2, 2},
		{0, 1, 0, 1, 2, 3},
		{0, 1, 0, 1, 2, 2},
	}, clusteragg.ProblemOptions{})
	if err != nil {
		log.Fatal(err)
	}
	labels, err := problem.Aggregate(clusteragg.MethodAgglomerative, clusteragg.AggregateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(labels, problem.Disagreement(labels))
	// Output: [0 1 0 1 2 2] 5
}
