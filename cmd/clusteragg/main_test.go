package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"clusteragg"
	"clusteragg/internal/core"
)

func TestParseMethod(t *testing.T) {
	tests := []struct {
		in   string
		want core.Method
		ok   bool
	}{
		{"best", core.MethodBest, true},
		{"BALLS", core.MethodBalls, true},
		{"Agglomerative", core.MethodAgglomerative, true},
		{"furthest", core.MethodFurthest, true},
		{"localsearch", core.MethodLocalSearch, true},
		{"pivot", core.MethodPivot, true},
		{"anneal", core.MethodAnneal, true},
		{"nope", 0, false},
		{"", 0, false},
	}
	for _, tc := range tests {
		got, err := parseMethod(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseMethod(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseMethod(%q) accepted", tc.in)
		}
	}
}

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func base() cliConfig {
	return cliConfig{method: "agglomerative", alpha: 0.4, seed: 1}
}

func TestRunEndToEnd(t *testing.T) {
	path := writeCSV(t, "a,b,class\nx,p,A\nx,p,A\ny,q,B\ny,q,B\n")
	cfg := base()
	cfg.header = true
	cfg.class = "class"
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunPerRowOutput(t *testing.T) {
	path := writeCSV(t, "x,x\ny,y\nx,x\n")
	cfg := base()
	cfg.method = "localsearch"
	cfg.refine = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithSampling(t *testing.T) {
	rows := "a,b\n"
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			rows += "x,p\n"
		} else {
			rows += "y,q\n"
		}
	}
	path := writeCSV(t, rows)
	cfg := base()
	cfg.method = "furthest"
	cfg.header = true
	cfg.sample = 20
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunDescribe(t *testing.T) {
	path := writeCSV(t, "a,b\nx,p\nx,p\ny,q\ny,q\n")
	cfg := base()
	cfg.header = true
	cfg.describe = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensionMethods(t *testing.T) {
	path := writeCSV(t, "a\nx\nx\ny\ny\n")
	for _, method := range []string{"pivot", "anneal"} {
		cfg := base()
		cfg.method = method
		cfg.header = true
		cfg.summary = true
		if err := run(path, cfg); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("/nonexistent/file.csv", base()); err == nil {
		t.Error("missing file accepted")
	}
	path := writeCSV(t, "a\nx\ny\n")
	cfg := base()
	cfg.method = "bogus"
	if err := run(path, cfg); err == nil {
		t.Error("bogus method accepted")
	}
	numeric := writeCSV(t, "a\n1\n2\n")
	ncfg := base()
	ncfg.header = true
	if err := run(numeric, ncfg); err == nil {
		t.Error("numeric-only table accepted")
	}
	// A negative sample size is a usage error, not a silent fallback to
	// the exact algorithm.
	scfg := base()
	scfg.sample = -5
	if err := run(path, scfg); !errors.Is(err, clusteragg.ErrNegativeOption) {
		t.Errorf("sample -5: error %v, want ErrNegativeOption", err)
	}
}

func TestRunBestOf(t *testing.T) {
	path := writeCSV(t, "a,b\nx,p\nx,p\ny,q\ny,q\n")
	cfg := base()
	cfg.method = "bestof"
	cfg.header = true
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
}
