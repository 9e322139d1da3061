package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func quickServeCfg() Config {
	return Config{Seed: 42, N: 2048, Ops: 1000}
}

// The stdout contract: every Render column is independent of shard count,
// batch size, and runner width. Vary all three and diff the rendering.
func TestServeRenderDeterministicAcrossShards(t *testing.T) {
	a := RunServe(quickServeCfg(), ServeConfig{Shards: 1, Clients: 4, Batch: 16})
	b := RunServe(quickServeCfg(), ServeConfig{Shards: 8, Clients: 4, Batch: 64})
	wide := quickServeCfg()
	wide.Runner = NewRunner(4)
	c := RunServe(wide, ServeConfig{Shards: 3, Clients: 4, Batch: 32})
	if a.Render() != b.Render() {
		t.Errorf("Render differs between shards=1 and shards=8:\n--- shards=1\n%s--- shards=8\n%s", a.Render(), b.Render())
	}
	if a.Render() != c.Render() {
		t.Errorf("Render differs between sequential and 4-worker runner:\n--- seq\n%s--- wide\n%s", a.Render(), c.Render())
	}
	for _, row := range a.Rows {
		if !row.Verified {
			t.Errorf("%s: serving run not verified (%d mismatches, err %q)", row.Method, row.Mismatches, row.ServeErr)
		}
		if row.Clean.R <= 0 || row.Clean.M < 1 {
			t.Errorf("%s: implausible clean point %+v", row.Method, row.Clean)
		}
	}
	if !strings.Contains(a.Render(), "served") || strings.Contains(a.Render(), "FAIL") {
		t.Errorf("unexpected render:\n%s", a.Render())
	}
}

// Client streams must be conflict-free (disjoint key namespaces) and
// reproducible from the seed alone.
func TestServeStreamsConflictFreeAndReproducible(t *testing.T) {
	s1 := makeServeStreams(7, 1024, 2000, 4)
	s2 := makeServeStreams(7, 1024, 2000, 4)
	owner := make(map[core.Key]int)
	for c, st := range s1 {
		if len(st.ops) != len(s2[c].ops) || len(st.init) != len(s2[c].init) {
			t.Fatalf("client %d: streams not reproducible", c)
		}
		for i := range st.ops {
			if st.ops[i] != s2[c].ops[i] || st.want[i] != s2[c].want[i] {
				t.Fatalf("client %d op %d: streams not reproducible", c, i)
			}
		}
		touch := func(k core.Key) {
			if prev, ok := owner[k]; ok && prev != c {
				t.Fatalf("key %#x touched by clients %d and %d", k, prev, c)
			}
			owner[k] = c
		}
		for _, r := range st.init {
			touch(r.Key)
		}
		for _, op := range st.ops {
			touch(op.Key)
		}
	}
}

// The timing half must stay out of stdout; sanity-check it renders and is
// explicitly marked non-deterministic.
func TestServeRenderTiming(t *testing.T) {
	r := RunServe(quickServeCfg(), ServeConfig{Shards: 2, Clients: 2, Batch: 32})
	timing := r.RenderTiming()
	if !strings.Contains(timing, "non-deterministic") || !strings.Contains(timing, "req/s") {
		t.Errorf("unexpected timing render:\n%s", timing)
	}
	if strings.Contains(r.Render(), "shards=") {
		t.Errorf("stdout render leaks shard count:\n%s", r.Render())
	}
}

// The shared fold verifies the final record count: a report set whose Len
// disagrees with the streams' prediction fails verification even with no
// mismatch and no serving error, and the matching count passes.
func TestFoldServeVerifiesFinalLen(t *testing.T) {
	reports := []serve.ShardReport{{Shard: 0, Ops: 30, Len: 5}, {Shard: 1, Ops: 20, Len: 4}}
	run := LiveRun{Reports: reports, Latency: obs.NewLatencyHistogram(), Elapsed: time.Second, Requests: 50}
	run.WantLen = 10
	if row := FoldServe("btree", run); row.Verified {
		t.Fatalf("Len 9 against predicted 10 verified: %+v", row)
	}
	run.WantLen = 9
	row := FoldServe("btree", run)
	if !row.Verified {
		t.Fatalf("matching Len not verified: %+v", row)
	}
	if row.Throughput != 50 || len(row.ShardOps) != 2 || row.ShardOps[0] != 30 || row.FinalLen != 9 {
		t.Errorf("fold lost run facts: %+v", row)
	}
	run.Err = errors.New("boom")
	if row := FoldServe("btree", run); row.Verified || row.ServeErr != "boom" {
		t.Errorf("serving error not surfaced: %+v", row)
	}
}
