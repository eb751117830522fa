package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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
		{"anneal", 0, false},
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

// TestRunDescribe: -describe profiles each cluster by the value names the
// stream read, exact and sampled.
func TestRunDescribe(t *testing.T) {
	path := writeCSV(t, "a,b\nx,p\nx,p\ny,q\ny,q\n")
	cfg := base()
	cfg.header = true
	cfg.describe = true
	out := runStdout(t, path, cfg)
	for _, want := range []string{
		"cluster 0: size=2 a=x(100%) b=p(100%)\n",
		"cluster 1: size=2 a=y(100%) b=q(100%)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunExtensionMethods(t *testing.T) {
	path := writeCSV(t, "a\nx\nx\ny\ny\n")
	cfg := base()
	cfg.method = "pivot"
	cfg.header = true
	cfg.summary = true
	if err := run(path, cfg); err != nil {
		t.Fatalf("pivot: %v", err)
	}
	// ANNEAL is retired: its name is no longer a method.
	cfg.method = "anneal"
	if err := run(path, cfg); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("anneal: error %v, want unknown method", err)
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
	// A negative K is rejected too: FURTHEST would skip its stopping rule
	// and AGGLOMERATIVE would read it as 0.
	kcfg := base()
	kcfg.k = -1
	if err := run(path, kcfg); !errors.Is(err, clusteragg.ErrNegativeOption) {
		t.Errorf("k -1: error %v, want ErrNegativeOption", err)
	}
	// So is a negative worker count, which would otherwise run on
	// GOMAXPROCS.
	wcfg := base()
	wcfg.workers = -3
	if err := run(path, wcfg); !errors.Is(err, clusteragg.ErrNegativeOption) {
		t.Errorf("workers -3: error %v, want ErrNegativeOption", err)
	}
}

// TestMainNegativeWorkersExits runs the command itself (this test binary
// re-executed as main) with -workers -3: it must exit 1 and name the
// negative option on stderr.
func TestMainNegativeWorkersExits(t *testing.T) {
	if os.Getenv("CLUSTERAGG_RUN_MAIN") == "1" {
		os.Args = []string{"clusteragg", "-workers", "-3", os.Getenv("CLUSTERAGG_INPUT")}
		main()
		return
	}
	path := writeCSV(t, "a\nx\ny\n")
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainNegativeWorkersExits$")
	cmd.Env = append(os.Environ(), "CLUSTERAGG_RUN_MAIN=1", "CLUSTERAGG_INPUT="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("clusteragg -workers -3: %v, want exit status 1", err)
	}
	if want := "clusteragg: -workers -3: clusteragg: negative option"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q, want it to contain %q", stderr.String(), want)
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
