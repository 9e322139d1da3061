package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// suiteArtifacts runs the whole program in-process at the given pool width
// and returns stdout plus the three exported observability artifacts.
func suiteArtifacts(t *testing.T, parallel string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	ts := filepath.Join(dir, "ts.csv")
	metrics := filepath.Join(dir, "metrics.txt")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-exp", "all", "-quick", "-n", "2048", "-ops", "1000", "-seed", "42",
		"-parallel", parallel,
		"-faults", "seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120",
		"-trace", trace, "-timeseries", ts, "-metrics", metrics,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run(-parallel %s) exited %d; stderr:\n%s", parallel, code, stderr.String())
	}
	out := map[string][]byte{"stdout": stdout.Bytes()}
	for name, path := range map[string]string{"trace": trace, "timeseries": ts, "metrics": metrics} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("-parallel %s wrote no %s: %v", parallel, name, err)
		}
		if len(b) == 0 {
			t.Fatalf("-parallel %s: empty %s", parallel, name)
		}
		out[name] = b
	}
	return out
}

// TestParallelDeterminism is the tentpole guarantee: the full suite at
// -parallel 1 and -parallel 8 must produce byte-identical stdout, trace
// JSONL, time-series CSV, and metrics text for a fixed seed. Only wall-clock
// time may differ between pool widths. The suite includes the chaos
// experiment under a non-trivial -faults plan, so fault injection, retries,
// and the crash trial are all inside the determinism contract.
func TestParallelDeterminism(t *testing.T) {
	seq := suiteArtifacts(t, "1")
	par := suiteArtifacts(t, "8")
	for _, name := range []string{"stdout", "trace", "timeseries", "metrics"} {
		a, b := seq[name], par[name]
		if bytes.Equal(a, b) {
			continue
		}
		// Locate the first divergent line for a readable failure.
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("%s differs between -parallel 1 and -parallel 8 at line %d:\n  seq: %s\n  par: %s",
					name, i+1, la[i], lb[i])
			}
		}
		t.Fatalf("%s differs in length: %d vs %d bytes", name, len(a), len(b))
	}
}

// TestExperimentDeterminism is the one determinism gate table: each row
// runs an experiment in process under several argument sets and requires
// byte-identical stdout — pool width, shard count, and batch size may move
// only wall-clock time, which prints to stderr. It subsumes the former
// per-experiment `make *-smoke` targets, with their exact arguments.
func TestExperimentDeterminism(t *testing.T) {
	quick := []string{"-quick", "-n", "2048", "-ops", "1000"}
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	chaos := with(quick, "-exp", "chaos", "-faults", "seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120")
	serveSeed42 := with(quick, "-exp", "serve", "-seed", "42")
	for _, tc := range []struct {
		name string
		runs [][]string // every run's stdout must equal the first's
	}{
		{"chaos", [][]string{with(chaos, "-parallel", "1"), with(chaos, "-parallel", "8")}},
		{"serve", [][]string{
			with(quick, "-exp", "serve", "-shards", "1", "-batch", "32", "-parallel", "1"),
			with(quick, "-exp", "serve", "-shards", "8", "-batch", "64", "-parallel", "8"),
		}},
		{"serve-seed42", [][]string{
			with(serveSeed42, "-shards", "1", "-batch", "32", "-parallel", "1"),
			with(serveSeed42, "-shards", "8", "-batch", "64", "-parallel", "1"),
			with(serveSeed42, "-shards", "3", "-batch", "16", "-parallel", "8"),
		}},
		{"mvcc", [][]string{
			with(quick, "-exp", "mvcc", "-shards", "1", "-batch", "32", "-parallel", "1"),
			with(quick, "-exp", "mvcc", "-shards", "8", "-batch", "64", "-parallel", "8"),
		}},
		{"walsweep", [][]string{with(quick, "-exp", "walsweep", "-parallel", "1"), with(quick, "-exp", "walsweep", "-parallel", "8")}},
		{"qdsweep", [][]string{with(quick, "-exp", "qdsweep", "-parallel", "1"), with(quick, "-exp", "qdsweep", "-parallel", "8")}},
		{"drift", [][]string{{"-exp", "drift", "-parallel", "1"}, {"-exp", "drift", "-parallel", "8"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for i, args := range tc.runs {
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("run(%v) exited %d; stderr:\n%s", args, code, stderr.String())
				}
				if i == 0 {
					want = stdout.Bytes()
				} else if !bytes.Equal(stdout.Bytes(), want) {
					t.Errorf("stdout of %v differs from %v:\n--- want\n%s--- got\n%s", args, tc.runs[0], want, stdout.Bytes())
				}
			}
		})
	}
}

// TestUsageGolden pins the -h output: the flag set is the CLI's public
// surface, so additions and wording changes must be deliberate. Regenerate
// with `go test ./cmd/rumbench -run Golden -update` (part of `make golden`).
func TestUsageGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("run(-h) wrote to stdout: %q", stdout.String())
	}
	path := filepath.Join("testdata", "usage.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/rumbench -run Golden -update` to create)", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Fatalf("usage drifted from golden file (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", stderr.Bytes(), want)
	}
}

// TestRunUsageErrors checks argument validation exits 2 without running.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nonsense"},
		{"-exp", ""},
		{"stray"},
		{"-badflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout: %q", args, stdout.String())
		}
	}
}
