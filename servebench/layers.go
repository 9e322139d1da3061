package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/serve"
	"repro/internal/storage"
)

// The traced run behind the per-layer metrics. It splits the window in
// three parts:
//
//  1. stacked, untraced: the end-to-end configuration again, for the
//     ledgers of the layers beneath the server (pool, device, WAL, snapshot
//     bypass) and the stacked allocation count;
//  2. stacked, traced: one benchmark-owned shardTracer per shard, attached
//     inside Build on the shard goroutine as the core.OpObserver and the
//     storage Hook/BatchHook, plus a serve.TraceConfig phase recorder; the
//     clients record one span per Do call;
//  3. alone: client 0's stream replayed on one goroutine against a
//     core.Instrumented built the same way, timing the public calls of each
//     layer directly, plus a standalone buffer pool.
//
// Every part replays the same streams from a fresh preload, so the
// expected outcomes hold in each.

// runLayers reports every per-layer metric and checks layer coverage.
func runLayers(w workload, seed int64, dur time.Duration, outDir string) (outcome, error) {
	part := dur / 3
	streams, err := makeStreams(w, seed)
	if err != nil {
		return outcome{}, err
	}
	stacked, err := runEpisodes(w, streams, part, nil)
	if err != nil {
		return outcome{}, err
	}
	tr := newTracer()
	traced, err := runEpisodes(w, streams, part, tr)
	if err != nil {
		return outcome{}, err
	}
	res := tallyOutcome(append(append([]episode(nil), stacked...), traced...))
	al, err := runAlone(w, streams[0], part)
	if err != nil {
		return res, err
	}
	res.Attempted += al.ops
	res.Failed += al.mismatches
	pb, err := benchPool(w)
	if err != nil {
		return res, err
	}
	m := res.Metrics

	// perOp summarizes a ledger count per request over the stacked
	// episodes; perWrite is the same per write.
	perOp := func(f func(ledger) uint64) float64 {
		return over(stacked, func(e episode) float64 { return float64(f(e.books)) / float64(e.ops) })
	}
	perWrite := func(f func(ledger) uint64) float64 {
		return over(stacked, func(e episode) float64 { return ratio(float64(f(e.books)), float64(e.writes)) })
	}

	// serve
	var reports []serve.ShardReport
	for _, e := range traced {
		reports = append(reports, e.reports...)
	}
	phases := serve.AggregatePhases(reports)
	m.set("serve.queue_p99_us", "us", phases.Queue.Quantile(0.99)/1e3)
	m.set("serve.service_p50_us", "us", tr.servicePercentile(0.50)/1e3)
	m.set("serve.ops_per_msg", "ops/msg", ratio(phases.Batch.Sum(), float64(phases.Batch.Count())))
	m.set("serve.bypass_frac", "ratio", perOp(func(l ledger) uint64 { return l.bypass }))
	m.set("serve.allocs_per_op", "allocs/op",
		over(stacked, func(e episode) float64 { return float64(e.allocs) / float64(e.ops) })-al.allocsPerOp())

	// core / methods, alone
	m.set("am.get_ns", "ns", al.gets.percentile(0.50))
	m.set("am.write_ns", "ns", al.writes.percentile(0.50))
	m.set("am.write_p99_us", "us", al.writes.percentile(0.99)/1e3)
	m.set("am.alone_ops_per_s", "1/s", float64(al.ops)/al.elapsed.Seconds())
	m.set("am.allocs_per_get", "allocs/op", al.allocs.perGet())
	m.set("am.allocs_per_write", "allocs/op", al.allocs.perWrite())

	// lsm snapshots, alone
	m.set("lsm.publish_us", "us", al.publishes.percentile(0.50)/1e3)
	m.set("lsm.publishes_per_write", "ratio", ratio(float64(len(al.publishes)), float64(al.nwrites)))

	// wal, stacked ledger and alone commit timing
	m.set("wal.syncs_per_write", "syncs/op", perWrite(func(l ledger) uint64 { return l.wal.Syncs }))
	m.set("wal.log_bytes_per_write", "B/op", perWrite(func(l ledger) uint64 { return l.wal.LogBytesWritten }))
	m.set("wal.commit_us", "us", al.commits.percentile(0.50)/1e3)

	// buffer pool, stacked ledger and standalone pool
	m.set("pool.hit_ratio", "ratio", over(stacked, func(e episode) float64 { return e.books.pool.HitRatio() }))
	m.set("pool.misses_per_op", "misses/op", perOp(func(l ledger) uint64 { return l.pool.Misses }))
	m.set("pool.writebacks_per_op", "pages/op", perOp(func(l ledger) uint64 { return l.pool.WriteBacks }))
	m.set("pool.fetch_hit_ns", "ns", pb.hitNs)
	m.set("pool.fetch_miss_ns", "ns", pb.missNs)
	m.set("pool.allocs_per_miss", "allocs/op", pb.allocsPerMiss)

	// device, stacked ledger and traced batch hook
	m.set("device.reads_per_op", "pages/op", perOp(func(l ledger) uint64 { return l.dev.PageReads }))
	m.set("device.writes_per_op", "pages/op", perOp(func(l ledger) uint64 { return l.dev.PageWrites }))
	m.set("device.batch_depth", "pages", tr.batchDepth())

	// obs taps, alone
	m.set("obs.trace_ns_per_op", "ns", al.traceNs())
	m.set("obs.fingerprint_ns_per_op", "ns", al.fingerprintNs())
	m.set("obs.trace_allocs_per_op", "allocs/op", al.allocs.perTrace())

	// spans of the traced episodes
	var tracedOps uint64
	var tracedTime time.Duration
	var do []doSpan
	for _, e := range traced {
		tracedOps += uint64(e.ops)
		tracedTime += e.elapsed
		do = append(do, e.spans...)
	}
	opNs := tr.sum(func(s *shardTracer) uint64 { return s.opNs })
	attributed := tr.sum(func(s *shardTracer) uint64 { return s.opCost })
	outside := tr.sum(func(s *shardTracer) uint64 { return s.outsideCost })
	m.set("trace.am_busy_frac", "ratio", float64(opNs)/(numShards*float64(tracedTime)))
	m.set("trace.op_self_ns", "ns", ratio(float64(opNs), float64(tr.sum(func(s *shardTracer) uint64 { return s.ops }))))
	m.set("trace.pages_per_op", "pages/op", float64(tr.sum(func(s *shardTracer) uint64 { return s.opPages }))/float64(tracedOps))
	m.set("trace.cost_per_op", "cost/op", float64(attributed)/float64(tracedOps))
	m.set("trace.unattributed_cost_frac", "ratio", ratio(float64(outside), float64(attributed+outside)))
	m.set("bench.trace_overhead_frac", "ratio", 1-over(traced, episode.opsPerSec)/over(stacked, episode.opsPerSec))

	path, err := tr.write(outDir, w, seed, do)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d stacked and %d traced episodes; spans written to %s\n", w.name, len(stacked), len(traced), path)

	// The observed server keeps phase histograms and workload fingerprints
	// in its reports; the other servers must not.
	rep := stacked[0].reports[0]
	obsOn := rep.Phases != nil && rep.Workload != nil
	for _, e := range coverage(w, m, obsOn) {
		fmt.Fprintln(os.Stderr, "servebench: layer coverage:", e)
		res.Correct = false
	}
	if al.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "servebench: alone pass: %d requests returned an unexpected result\n", al.mismatches)
		res.Correct = false
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracer owns one shardTracer per shard. A shard tracer is written only by
// its shard goroutine, one server after another, and read by the driver
// after Stop.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool // flipped only while the shards are idle between barriers
	shards []*shardTracer
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), shards: make([]*shardTracer, numShards)}
	for i := range t.shards {
		t.shards[i] = &shardTracer{epoch: t.epoch, on: &t.on}
	}
	return t
}

// traceConfig hands each shard a phase recorder the benchmark keeps; it
// runs on the shard goroutine just before Build, like attach.
func (t *tracer) traceConfig() *serve.TraceConfig {
	return &serve.TraceConfig{
		SlowK:   64,
		SlowTTL: time.Minute,
		Recorder: func(i int) *obs.PhaseRecorder {
			t.shards[i].rec = obs.NewPhaseRecorder()
			return t.shards[i].rec
		},
	}
}

// attach runs inside Build on shard i's goroutine: the shard tracer
// becomes the structure's OpObserver and the device's and pool's hook.
func (t *tracer) attach(i int, st *shardStack) {
	sh := t.shards[i]
	st.am.SetObserver(sh)
	st.dev.SetHook(sh)
	st.pool.SetHook(sh)
}

func (t *tracer) sum(f func(*shardTracer) uint64) uint64 {
	var n uint64
	for _, s := range t.shards {
		n += f(s)
	}
	return n
}

// batchDepth is the mean queue depth of device submissions: amortized
// batches at their achieved depth, every other page I/O at depth 1.
func (t *tracer) batchDepth() float64 {
	pages := t.sum(func(s *shardTracer) uint64 { return s.pages })
	batched := t.sum(func(s *shardTracer) uint64 { return s.batchedPages })
	batches := t.sum(func(s *shardTracer) uint64 { return s.batches })
	depth := t.sum(func(s *shardTracer) uint64 { return s.depthSum })
	single := pages - batched
	return ratio(float64(depth+single), float64(batches+single))
}

// servicePercentile is the q-quantile of access-method span durations, in
// nanoseconds, over the spans kept.
func (t *tracer) servicePercentile(q float64) float64 {
	var d durations
	for _, s := range t.shards {
		for _, sp := range s.spans {
			d = append(d, time.Duration(sp.Dur))
		}
	}
	return d.percentile(q)
}

// write stores the kept spans as one JSON document under dir/trace.
func (t *tracer) write(dir string, w workload, seed int64, do []doSpan) (string, error) {
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Note     string     `json:"note"`
		Do       []doSpan   `json:"do_spans"`
		Ops      [][]opSpan `json:"op_spans_by_shard"`
	}{
		Workload: w.name, Seed: seed,
		Note: "times are ns since the trace epoch; do spans are client Do calls, op spans are access-method " +
			"operations on a shard goroutine with the device pages and cost charged inside them",
		Do: do,
	}
	for _, s := range t.shards {
		doc.Ops = append(doc.Ops, s.spans)
	}
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// opSpan is one access-method operation: kind, start and duration in ns
// since the trace epoch, and the device pages, cost and pool hits/misses
// charged while it ran.
type opSpan struct {
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Pages  uint32 `json:"pages"`
	Cost   uint32 `json:"cost"`
	Hits   uint32 `json:"hits"`
	Misses uint32 `json:"misses"`
}

// maxOpSpans caps the op spans one shard keeps in memory.
const maxOpSpans = 1 << 15

// shardTracer is the benchmark's per-shard observer: core.OpObserver for
// operation boundaries, storage.Hook and storage.BatchHook for the pages
// and cost charged inside them. It forwards storage events to the shard's
// phase recorder, so slow traces carry their page counts too. Spans nest
// (a BulkLoad may call Insert); work is charged to the outermost.
type shardTracer struct {
	epoch time.Time
	on    *atomic.Bool
	rec   *obs.PhaseRecorder

	depth int
	cur   opSpan
	began time.Time
	spans []opSpan

	ops, opNs, opPages, opCost, outsideCost uint64
	pages, batches, batchedPages, depthSum  uint64
}

func (s *shardTracer) BeginOp(op string) {
	if s.depth++; s.depth > 1 || !s.on.Load() {
		return
	}
	s.began = time.Now()
	s.cur = opSpan{Op: op, Start: int64(s.began.Sub(s.epoch))}
}

func (s *shardTracer) EndOp(string) {
	if s.depth--; s.depth > 0 || s.began.IsZero() {
		return
	}
	d := time.Since(s.began)
	s.began = time.Time{}
	s.cur.Dur = int64(d)
	s.ops++
	s.opNs += uint64(d)
	if len(s.spans) < maxOpSpans {
		s.spans = append(s.spans, s.cur)
	}
}

func (s *shardTracer) StorageEvent(ev storage.Event, id storage.PageID, class rum.Class, cost uint64) {
	if s.rec != nil {
		s.rec.StorageEvent(ev, id, class, cost)
	}
	if !s.on.Load() {
		return
	}
	inOp := !s.began.IsZero()
	switch ev {
	case storage.EvRead, storage.EvWrite:
		s.pages++
		if inOp {
			s.cur.Pages++
			s.cur.Cost += uint32(cost)
			s.opPages++
			s.opCost += cost
		} else {
			s.outsideCost += cost
		}
	case storage.EvHit:
		if inOp {
			s.cur.Hits++
		}
	case storage.EvMiss:
		if inOp {
			s.cur.Misses++
		}
	}
}

func (s *shardTracer) StorageBatch(_ bool, pages, depth int, _ uint64) {
	if !s.on.Load() {
		return
	}
	s.batches++
	s.batchedPages += uint64(pages)
	s.depthSum += uint64(depth)
}

// durations is a sample of timings.
type durations []time.Duration

// percentile returns the q-quantile in nanoseconds (0 for no samples).
func (d durations) percentile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(quantile(s, q))
}

// coverage checks that the workload shows traffic at the layers it claims
// to load and none where it claims a bypass. obsOn says whether the served
// reports carried the obs layer's output.
func coverage(w workload, m metrics, obsOn bool) []string {
	var errs []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	v := func(name string) float64 { return m[name].Value }
	missesLoaded := w.poolPages*numShards*pageSize < w.records*core.RecordSize
	if missesLoaded {
		check(v("pool.misses_per_op") > 0.1, "pool.misses_per_op = %g, want > 0.1: the pool is smaller than the data", v("pool.misses_per_op"))
	} else {
		check(v("pool.misses_per_op") == 0, "pool.misses_per_op = %g, want 0: the pool holds the data", v("pool.misses_per_op"))
	}
	batching := w.medium.Model().Channels > 1
	check((v("device.batch_depth") > 1) == batching, "device.batch_depth = %g, want > 1 exactly when the medium has several channels (%v)", v("device.batch_depth"), batching)
	logged := w.commitBatch > 0
	check((v("wal.syncs_per_write") > 0) == logged, "wal.syncs_per_write = %g, want > 0 exactly when logged (%v)", v("wal.syncs_per_write"), logged)
	check((v("wal.commit_us") > 0) == logged, "wal.commit_us = %g, want > 0 exactly when logged (%v)", v("wal.commit_us"), logged)
	check((v("serve.bypass_frac") > 0.5) == w.snapshots, "serve.bypass_frac = %g, want > 0.5 exactly with snapshots (%v)", v("serve.bypass_frac"), w.snapshots)
	check((v("lsm.publishes_per_write") > 0) == w.snapshots, "lsm.publishes_per_write = %g, want > 0 exactly with snapshots (%v)", v("lsm.publishes_per_write"), w.snapshots)
	check(obsOn == w.observed, "served reports carry phases and fingerprints: %v, want %v", obsOn, w.observed)
	for _, name := range []string{"obs.trace_ns_per_op", "obs.fingerprint_ns_per_op", "obs.trace_allocs_per_op"} {
		check((v(name) > 0) == w.observed, "%s = %g, want > 0 exactly when observed (%v)", name, v(name), w.observed)
	}
	check(v("trace.pages_per_op") > 0 || !missesLoaded, "trace.pages_per_op = %g, want > 0: spans must see the device", v("trace.pages_per_op"))
	return errs
}
