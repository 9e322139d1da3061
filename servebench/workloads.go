package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Every run uses the same serving shape: two shards, two closed-loop
// clients (one per core of a two-core machine), 64 requests per Do call.
const (
	numShards  = 2
	numClients = 2
	doBatch    = 64
	pageSize   = 4096
)

// workload is one benchmark input: a serving configuration over a storage
// stack, a preload size and a generated request mix. BENCHMARK.json records
// the same facts with the reason for each workload.
type workload struct {
	name string

	method    string // "btree" or "lsm-level"
	medium    storage.Medium
	poolPages int // per shard
	records   int // preloaded, across all shards
	mix       string
	dist      string

	// versions > 0 builds snapshot-capable structures; snapshots turns on
	// the MVCC read path of the server with the given staleness.
	versions  int
	snapshots bool
	staleness int
	// commitBatch > 0 puts the structure behind the write-ahead log.
	commitBatch int
	// observed turns on the server's request tracing and workload
	// fingerprinting, the way an operator runs it with -workload.
	observed bool

	// clientOps is each client's requests per episode: half a second to
	// two seconds of serving on a two-core machine, so a run holds a dozen
	// episodes or more. The snapshot workload gets the longest stream: with
	// a quarter of it, its call p99 swung by a factor of two between runs,
	// following how often the collector ran.
	clientOps int
}

// The three workloads each load a different part of the stack: the pool
// miss path under an observed btree, the snapshot read path of a
// cache-resident LSM, and the write path of a logged LSM on a multi-queue
// SSD.
var workloads = []workload{
	{
		name:   "btree-mixed-observed",
		method: "btree", medium: storage.RAM, poolPages: 64, records: 200_000,
		mix: "read50", dist: "uniform",
		observed:  true,
		clientOps: 1 << 17,
	},
	{
		name:   "lsm-read99-snapshot",
		method: "lsm-level", medium: storage.RAM, poolPages: 2048, records: 200_000,
		mix: "read99", dist: "zipf:1.1",
		versions: 3, snapshots: true, staleness: 1,
		clientOps: 1 << 21,
	},
	{
		name:   "lsm-ingest-wal",
		method: "lsm-level", medium: storage.MQSSD, poolPages: 64, records: 200_000,
		mix: "get=0.1,insert=0.6,update=0.2,delete=0.1,getmiss=0.1", dist: "uniform",
		commitBatch: 64,
		clientOps:   1 << 17,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// shardStack is what Build created on one shard: the device and pool whose
// ledgers the benchmark reads after a barrier, and the structure.
type shardStack struct {
	dev  *storage.Device
	pool *storage.BufferPool
	am   *core.Instrumented
	wal  *wal.Logged // nil unless write-ahead logged
}

// build constructs one shard's storage stack exactly as the method catalog
// configures it (1024-record memtable, size ratio 10, checkpoint every 4096
// overlay records), keeping the device and pool for their ledgers.
func (w workload) build() (*shardStack, error) {
	dev := storage.NewDevice(pageSize, w.medium, nil)
	pool := storage.NewBufferPool(dev, w.poolPages)
	st := &shardStack{dev: dev, pool: pool}
	lcfg := lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Versions: w.versions}
	switch {
	case w.method == "btree" && w.commitBatch == 0:
		t, err := btree.New(pool, btree.Config{Versions: w.versions})
		if err != nil {
			return nil, err
		}
		st.am = core.Instrument(t)
	case w.method == "lsm-level" && w.commitBatch > 0:
		l, err := wal.NewLSM(pool, lcfg, wal.Config{CommitBatch: w.commitBatch, CheckpointEvery: 4096})
		if err != nil {
			return nil, err
		}
		st.am, st.wal = core.Instrument(l), l
	case w.method == "lsm-level":
		st.am = core.Instrument(lsm.New(pool, lcfg))
	default:
		return nil, fmt.Errorf("workload %s: unsupported stack %s/wal=%v", w.name, w.method, w.commitBatch > 0)
	}
	return st, nil
}

// serveConfig is the server configuration of the workload. build is the
// per-shard constructor; trace, when non-nil, replaces the workload's own
// tracing setting (the traced run attaches recorders of its own).
func (w workload) serveConfig(build func(shard int) *core.Instrumented, trace *serve.TraceConfig) serve.Config {
	cfg := serve.Config{
		Shards:       numShards,
		Build:        build,
		Snapshots:    w.snapshots,
		StalenessOps: w.staleness,
	}
	if w.observed {
		cfg.Trace = &serve.TraceConfig{SlowK: 64, SlowTTL: time.Minute}
		cfg.Workload = &serve.WorkloadConfig{}
	}
	if trace != nil {
		cfg.Trace = trace
	}
	return cfg
}

func (w workload) mixAndDist() (bench.ServeMix, bench.KeyDist, error) {
	mix, err := bench.ParseServeMix(w.mix)
	if err != nil {
		return mix, bench.KeyDist{}, err
	}
	dist, err := bench.ParseKeyDist(w.dist)
	return mix, dist, err
}
