package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/wal"
)

// A run is a sequence of episodes of fixed work. Each episode sets up a
// fresh server, preloads it, serves every client's whole stream (a warm-up
// prefix untimed, the rest timed) and stops it. Every episode of a run does
// the same work from the same state, so a structure that slows as it grows
// slows the same way in every episode and on every commit; episodes repeat
// until their timed parts add up to the run's seconds, and every metric is
// summarized over the episodes (see over).

// stream is one client's pregenerated input: its share of the preload and
// its requests with the exact expected outcome of each. Client key ranges
// are disjoint and the server keeps per-client order, so outcomes are
// decided at generation time, and hold in every episode.
type stream struct {
	init []core.Record
	ops  []op
}

// op packs one request with its expected outcome into 24 bytes: val is the
// value written by an insert or update, and the value a get expects.
type op struct {
	key core.Key
	val core.Value
	op  serve.Op
	ok  bool
}

func pack(req serve.Request, want serve.Result) op {
	o := op{key: req.Key, val: req.Value, op: req.Op, ok: want.OK}
	if req.Op == serve.OpGet {
		o.val = want.Value
	}
	return o
}

func (o op) request() serve.Request {
	r := serve.Request{Op: o.op, Key: o.key}
	if o.op == serve.OpInsert || o.op == serve.OpUpdate {
		r.Value = o.val
	}
	return r
}

// matches reports whether res is exactly the expected outcome: OK as
// predicted, and the predicted value for a found get (zero otherwise).
func (o op) matches(res serve.Result) bool {
	if o.op == serve.OpGet && o.ok {
		return res.OK && res.Value == o.val
	}
	return res == serve.Result{OK: o.ok}
}

// makeStreams generates every client's stream for seed, one goroutine per
// client.
func makeStreams(w workload, seed int64) ([]*stream, error) {
	mix, dist, err := w.mixAndDist()
	if err != nil {
		return nil, err
	}
	streams := make([]*stream, numClients)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := bench.NewStreamGenDist(seed, c, mix, dist)
			st := &stream{init: g.InitRecords(w.records / numClients), ops: make([]op, w.clientOps)}
			for i := range st.ops {
				st.ops[i] = pack(g.Next())
			}
			streams[c] = st
		}(c)
	}
	wg.Wait()
	return streams, nil
}

func preloadRecords(streams []*stream) []core.Record {
	var all []core.Record
	for _, st := range streams {
		all = append(all, st.init...)
	}
	return bench.MergeRecords(all)
}

// stack is one live server together with the per-shard stacks its Build
// created. stacks[i] is written on shard i's goroutine and read by the
// driver only after a broadcast barrier (Preload, Snapshot, Stop).
type stack struct {
	srv    *serve.Server
	stacks []*shardStack
}

// startServer runs serve.New plus Preload — the set-up setup_s times. With
// a tracer, each shard gets the tracer's phase recorder and, inside Build
// on the shard goroutine, the tracer's hooks.
func startServer(w workload, recs []core.Record, tr *tracer) (*stack, error) {
	s := &stack{stacks: make([]*shardStack, numShards)}
	build := func(i int) *core.Instrumented {
		st, err := w.build()
		if err != nil {
			panic(err)
		}
		if tr != nil {
			tr.attach(i, st)
		}
		s.stacks[i] = st
		return st.am
	}
	var trace *serve.TraceConfig
	if tr != nil {
		trace = tr.traceConfig()
	}
	srv, err := serve.New(w.serveConfig(build, trace))
	if err != nil {
		return nil, err
	}
	if err := srv.Preload(recs); err != nil {
		_, _ = srv.Stop()
		return nil, fmt.Errorf("preload: %w", err)
	}
	s.srv = srv
	return s, nil
}

// tally is what the clients measured over one stretch of requests.
type tally struct {
	ops, gets, writes int
	mismatches        int
	doErrors          int
	calls             []time.Duration // one latency per Do call, sorted
	elapsed           time.Duration
	spans             []doSpan // traced runs only
}

// doSpan is one client Do call of a traced run: nanoseconds since the
// run's trace epoch, and the requests it carried.
type doSpan struct {
	Client int   `json:"client"`
	Start  int64 `json:"start_ns"`
	Dur    int64 `json:"dur_ns"`
	Ops    int   `json:"ops"`
}

// maxDoSpans caps the Do spans one client keeps in memory per episode.
const maxDoSpans = 1 << 12

// drive runs every client's closed loop over ops[from:to] of its stream:
// submit the next 64 requests, wait for the reply, compare every result
// with its expected outcome. Clients are released together; elapsed runs
// until the last one is done. A non-zero epoch records a span per Do call.
func drive(srv *serve.Server, streams []*stream, from, to int, epoch time.Time) tally {
	tallies := make([]tally, len(streams))
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for c := range streams {
		wg.Add(1)
		go func(client int, ops []op, t *tally) {
			defer wg.Done()
			t.calls = make([]time.Duration, 0, len(ops)/doBatch+1)
			reqs := make([]serve.Request, doBatch)
			res := make([]serve.Result, doBatch)
			<-gate
			for len(ops) > 0 {
				batch := ops[:min(doBatch, len(ops))]
				ops = ops[len(batch):]
				for i, o := range batch {
					reqs[i] = o.request()
				}
				t0 := time.Now()
				err := srv.Do(reqs[:len(batch)], res[:len(batch)])
				t1 := time.Now()
				t.calls = append(t.calls, t1.Sub(t0))
				if !epoch.IsZero() && len(t.spans) < maxDoSpans {
					t.spans = append(t.spans, doSpan{Client: client, Start: int64(t0.Sub(epoch)), Dur: int64(t1.Sub(t0)), Ops: len(batch)})
				}
				t.ops += len(batch)
				if err != nil {
					t.doErrors++
					t.mismatches += len(batch)
					continue
				}
				for i, o := range batch {
					if !o.matches(res[i]) {
						t.mismatches++
					}
					if o.op == serve.OpGet {
						t.gets++
					} else {
						t.writes++
					}
				}
			}
		}(c, streams[c].ops[from:to], &tallies[c])
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	t := tally{elapsed: time.Since(start)}
	for _, c := range tallies {
		t.ops += c.ops
		t.gets += c.gets
		t.writes += c.writes
		t.mismatches += c.mismatches
		t.doErrors += c.doErrors
		t.calls = append(t.calls, c.calls...)
		t.spans = append(t.spans, c.spans...)
	}
	sort.Slice(t.calls, func(i, j int) bool { return t.calls[i] < t.calls[j] })
	return t
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ledger is a consistent cut of the server's books, taken at a barrier
// with no client traffic in flight.
type ledger struct {
	meter  rum.Meter
	size   rum.SizeInfo
	ops    uint64 // executed requests, bypass reads included
	bypass uint64 // requests served off snapshots
	pool   storage.PoolStats
	dev    storage.DeviceStats
	wal    wal.Stats
}

// readLedger sums the server reports with the pool, device and log
// counters of the stacks Build created. The reports come from a Snapshot
// broadcast: every shard answered it after its last request, and no client
// request is in flight, so reading the stacks here does not race.
func readLedger(s *stack, reports []serve.ShardReport) ledger {
	var l ledger
	l.meter, l.size, _ = serve.Aggregate(reports)
	for _, r := range reports {
		l.ops += r.Ops
	}
	_, l.bypass = s.srv.ReaderStats()
	for _, st := range s.stacks {
		ps, ds := st.pool.Stats(), st.dev.Stats()
		l.pool.Hits += ps.Hits
		l.pool.Misses += ps.Misses
		l.pool.WriteBacks += ps.WriteBacks
		l.dev.PageReads += ds.PageReads
		l.dev.PageWrites += ds.PageWrites
		l.dev.CostUnits += ds.CostUnits
		if st.wal != nil {
			ws := st.wal.Stats()
			l.wal.Syncs += ws.Syncs
			l.wal.LogBytesWritten += ws.LogBytesWritten
		}
	}
	return l
}

// since is the traffic between two ledgers; size is the later one's.
func (l ledger) since(p ledger) ledger {
	d := l
	d.meter = l.meter.Diff(p.meter)
	d.ops -= p.ops
	d.bypass -= p.bypass
	d.pool.Hits -= p.pool.Hits
	d.pool.Misses -= p.pool.Misses
	d.pool.WriteBacks -= p.pool.WriteBacks
	d.dev.PageReads -= p.dev.PageReads
	d.dev.PageWrites -= p.dev.PageWrites
	d.dev.CostUnits -= p.dev.CostUnits
	d.wal.Syncs -= p.wal.Syncs
	d.wal.LogBytesWritten -= p.wal.LogBytesWritten
	return d
}

// episode is one fixed-work serving episode.
type episode struct {
	tally              // the timed part
	warm       tally   // the untimed warm-up prefix
	setup      float64 // seconds of serve.New plus Preload
	books      ledger  // the timed part's traffic
	heap       int64   // live heap bytes the server held after the episode
	allocBytes uint64  // heap bytes allocated during the timed part
	allocs     uint64  // heap allocations during the timed part
	reports    []serve.ShardReport
}

func (e episode) opsPerSec() float64 { return float64(e.ops) / e.elapsed.Seconds() }

// warmFraction sets the untimed warm-up prefix: 1/warmFraction of each
// client's stream.
const warmFraction = 16

// runEpisode serves the streams once on a fresh server. heap is the live
// heap with the server minus the live heap once it is stopped and
// dropped; the streams and latency samples are live in both readings.
func runEpisode(w workload, streams []*stream, recs []core.Record, tr *tracer) (episode, error) {
	var e episode
	t0 := time.Now()
	s, err := startServer(w, recs, tr)
	if err != nil {
		return e, err
	}
	e.setup = time.Since(t0).Seconds()
	warm := w.clientOps / warmFraction
	e.warm = drive(s.srv, streams, 0, warm, time.Time{})

	before, err := s.srv.Snapshot()
	if err != nil {
		_, _ = s.srv.Stop()
		return e, err
	}
	b0 := readLedger(s, before)
	var m0, m1 runtime.MemStats
	var epoch time.Time
	if tr != nil {
		epoch = tr.epoch
		tr.on.Store(true)
	}
	runtime.ReadMemStats(&m0)
	e.tally = drive(s.srv, streams, warm, w.clientOps, epoch)
	runtime.ReadMemStats(&m1)
	if tr != nil {
		tr.on.Store(false)
	}
	after, err := s.srv.Snapshot()
	if err != nil {
		_, _ = s.srv.Stop()
		return e, err
	}
	e.books = readLedger(s, after).since(b0)
	e.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	e.allocs = m1.Mallocs - m0.Mallocs

	withServer := liveHeap()
	e.reports, err = s.srv.Stop()
	e.heap = withServer - liveHeap()
	return e, err
}

// runEpisodes repeats episodes until their timed parts add up to dur, and
// at least minEpisodes times.
func runEpisodes(w workload, streams []*stream, dur time.Duration, tr *tracer) ([]episode, error) {
	recs := preloadRecords(streams)
	var eps []episode
	var timed time.Duration
	for len(eps) < minEpisodes || timed < dur {
		e, err := runEpisode(w, streams, recs, tr)
		if err != nil {
			return eps, err
		}
		if e.ops == 0 {
			return eps, fmt.Errorf("workload %s times no requests", w.name)
		}
		eps = append(eps, e)
		timed += e.elapsed
	}
	return eps, nil
}

// minEpisodes keeps the summary meaningful when episodes are long.
const minEpisodes = 3

func perEpisode(eps []episode, f func(episode) float64) []float64 {
	xs := make([]float64, len(eps))
	for i, e := range eps {
		xs[i] = f(e)
	}
	return xs
}

// over summarizes f over the episodes by its interquartile mean: the mean
// of the middle half of the values. It ignores the episodes a burst of
// outside load slowed or a lucky schedule sped up, and unlike the median
// it does not jump between the modes of a two-mode distribution.
func over(eps []episode, f func(episode) float64) float64 {
	xs := perEpisode(eps, f)
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// check reports failed requests, and books that do not reconcile with
// what the clients submitted: every request executed on exactly one shard,
// every get accounted one record read, every write one record written.
func (e episode) check() error {
	if n := e.mismatches + e.warm.mismatches; n > 0 {
		return fmt.Errorf("%d requests returned an unexpected result (%d Do calls failed)", n, e.doErrors+e.warm.doErrors)
	}
	if e.books.ops != uint64(e.ops) {
		return fmt.Errorf("shards executed %d requests, clients submitted %d", e.books.ops, e.ops)
	}
	if want := uint64(e.gets) * core.RecordSize; e.books.meter.LogicalRead != want {
		return fmt.Errorf("logical reads %d bytes, want %d for %d gets", e.books.meter.LogicalRead, want, e.gets)
	}
	if want := uint64(e.writes) * core.RecordSize; e.books.meter.LogicalWritten != want {
		return fmt.Errorf("logical writes %d bytes, want %d for %d writes", e.books.meter.LogicalWritten, want, e.writes)
	}
	return nil
}
