package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rum"
	"repro/internal/serve"
	"repro/internal/storage"
)

// The layer-alone pass: client 0's stream replayed on one goroutine
// against one shard's stack built the way Build builds it, preloaded with
// client 0's records (one shard's worth). Requests are applied in groups
// of the size a 64-request Do call sends each shard; after a group that
// wrote, the pass commits the log or publishes a snapshot, as the shard
// would. Every public call is timed on its own.

// groupOps is the sub-batch one shard receives from a 64-request Do call.
const groupOps = doBatch / numShards

// allocPrefix is the number of requests the allocation pass counts exactly.
const allocPrefix = 8192

type aloneResult struct {
	ops, nwrites, mismatches int
	elapsed                  time.Duration // sum of the timed calls
	gets, writes             durations
	commits, publishes       durations
	traceTotal, fpTotal      time.Duration
	tapped                   int // requests passed through the obs taps
	allocs                   allocCounts
}

// allocsPerOp is the exact allocation count per request of the allocation
// pass, commits and publishes included.
func (a aloneResult) allocsPerOp() float64 {
	c := a.allocs
	return ratio(float64(c.getAllocs+c.writeAllocs+c.groupAllocs), float64(c.gets+c.writes))
}

func (a aloneResult) traceNs() float64 {
	return ratio(float64(a.traceTotal), float64(a.tapped))
}

func (a aloneResult) fingerprintNs() float64 {
	return ratio(float64(a.fpTotal), float64(a.tapped))
}

// aloneStack is one shard's stack with the obs taps the observed workload
// runs on its shard goroutine.
type aloneStack struct {
	*shardStack
	publish bool // the shard publishes a snapshot after every write group
	rec     *obs.PhaseRecorder
	slow    *obs.SlowLog
	wrec    *obs.WorkloadRecorder
	res     []serve.Result
	took    []time.Duration
}

// newAloneStack builds and preloads one shard's stack on this goroutine,
// publishing and committing the way a shard does after Build and Preload.
func newAloneStack(w workload, init []core.Record) (*aloneStack, error) {
	st, err := w.build()
	if err != nil {
		return nil, err
	}
	a := &aloneStack{shardStack: st, publish: w.snapshots, res: make([]serve.Result, groupOps), took: make([]time.Duration, groupOps)}
	if w.observed {
		a.rec = obs.NewPhaseRecorder()
		a.slow = obs.NewSlowLog(64, time.Minute)
		a.wrec = obs.NewWorkloadRecorder(0, 0)
	}
	if w.snapshots {
		if err := st.am.Publish(); err != nil {
			return nil, err
		}
	}
	if err := st.am.BulkLoad(init); err != nil {
		return nil, err
	}
	if st.wal != nil {
		if err := st.wal.Commit(); err != nil {
			return nil, err
		}
	}
	if w.snapshots {
		if err := st.am.Publish(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func apply(am *core.Instrumented, o op) serve.Result {
	var out serve.Result
	switch o.op {
	case serve.OpGet:
		out.Value, out.OK = am.Get(o.key)
	case serve.OpInsert:
		out.OK = am.Insert(o.key, o.val) == nil
	case serve.OpUpdate:
		out.OK = am.Update(o.key, o.val)
	case serve.OpDelete:
		out.OK = am.Delete(o.key)
	}
	return out
}

// group applies one group of requests, timing each call; count, when set,
// also takes exact allocation counts around every call.
func (a *aloneStack) group(ops []op, r *aloneResult, count bool) error {
	var m0 uint64
	writes := 0
	for i, o := range ops {
		if count {
			m0 = mallocs()
		}
		t0 := time.Now()
		a.res[i] = apply(a.am, o)
		a.took[i] = time.Since(t0)
		if count {
			n := mallocs() - m0
			if o.op == serve.OpGet {
				r.allocs.gets++
				r.allocs.getAllocs += n
			} else {
				r.allocs.writes++
				r.allocs.writeAllocs += n
			}
		}
		r.elapsed += a.took[i]
		if o.op == serve.OpGet {
			r.gets = append(r.gets, a.took[i])
		} else {
			r.writes = append(r.writes, a.took[i])
			writes++
		}
		if !o.matches(a.res[i]) {
			r.mismatches++
		}
	}
	r.ops += len(ops)
	r.nwrites += writes
	if writes > 0 {
		if count {
			m0 = mallocs()
		}
		if a.wal != nil {
			t0 := time.Now()
			err := a.wal.Commit()
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("commit: %w", err)
			}
			r.commits = append(r.commits, d)
			r.elapsed += d
		}
		if a.publish {
			t0 := time.Now()
			err := a.am.Publish()
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("publish: %w", err)
			}
			r.publishes = append(r.publishes, d)
			r.elapsed += d
		}
		if count {
			r.allocs.groupAllocs += mallocs() - m0
		}
	}
	if a.rec != nil {
		a.taps(ops, r, count)
	}
	return nil
}

// taps passes the group through the observability the observed server
// runs per request: a lifecycle trace into the phase recorder and the
// flight recorder, and the workload fingerprinter. Queue wait is the time
// spent behind earlier requests of the group, as on a shard.
func (a *aloneStack) taps(ops []op, r *aloneResult, count bool) {
	var m0 uint64
	if count {
		m0 = mallocs()
	}
	t0 := time.Now()
	var queue time.Duration
	for i, o := range ops {
		t := obs.SlowTrace{
			At: time.Now(), Op: o.op.String(), Key: uint64(o.key), Batch: len(ops),
			Queue: queue, Service: a.took[i], Total: queue + a.took[i],
		}
		a.rec.Observe(t)
		a.slow.Offer(t)
		queue += a.took[i]
	}
	t1 := time.Now()
	if count {
		r.allocs.traced += len(ops)
		r.allocs.traceAllocs += mallocs() - m0
	}
	for _, o := range ops {
		a.wrec.RecordOp(obs.WorkloadOp(o.op), uint64(o.key))
	}
	r.traceTotal += t1.Sub(t0)
	r.fpTotal += time.Since(t1)
	r.tapped += len(ops)
}

// runAlone runs the allocation pass over the first allocPrefix requests of
// st, then the timing pass: st replayed from a fresh stack, as often as it
// takes for the timed calls to add up to dur.
func runAlone(w workload, st *stream, dur time.Duration) (aloneResult, error) {
	var r aloneResult
	for pass := 0; pass == 0 || r.elapsed < dur; pass++ {
		count := pass == 0
		a, err := newAloneStack(w, st.init)
		if err != nil {
			return r, err
		}
		ops := st.ops
		if count {
			ops = ops[:allocPrefix]
		}
		var p aloneResult
		for i := 0; i+groupOps <= len(ops); i += groupOps {
			if err := a.group(ops[i:i+groupOps], &p, count); err != nil {
				return r, err
			}
		}
		r.mismatches += p.mismatches
		if count {
			r.allocs = p.allocs
			continue
		}
		r.ops += p.ops
		r.nwrites += p.nwrites
		r.elapsed += p.elapsed
		r.gets = append(r.gets, p.gets...)
		r.writes = append(r.writes, p.writes...)
		r.commits = append(r.commits, p.commits...)
		r.publishes = append(r.publishes, p.publishes...)
		r.traceTotal += p.traceTotal
		r.fpTotal += p.fpTotal
		r.tapped += p.tapped
	}
	return r, nil
}

// poolBench is the standalone buffer pool: Fetch+Release timed on hits and
// on misses, with exact allocation counts per miss.
type poolBench struct {
	hitNs, missNs, allocsPerMiss float64
}

// benchPool builds a pool of the workload's size and medium over four
// times as many pages. Cycling through all of them misses on every Fetch
// under LRU; cycling through half the capacity hits on every Fetch.
func benchPool(w workload) (poolBench, error) {
	dev := storage.NewDevice(pageSize, w.medium, nil)
	pool := storage.NewBufferPool(dev, w.poolPages)
	ids := make([]storage.PageID, 4*w.poolPages)
	for i := range ids {
		ids[i] = dev.Alloc(rum.Base)
	}
	const fetches = 1 << 17
	cycle := func(ids []storage.PageID) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < fetches; i++ {
			f, err := pool.Fetch(ids[i%len(ids)])
			if err != nil {
				return 0, err
			}
			pool.Release(f)
		}
		return time.Since(t0), nil
	}
	var pb poolBench
	var missT, hitT durations
	for rep := 0; rep < 5; rep++ {
		// One pass over every page leaves the last capacity pages cached,
		// so the timed cycle, starting from the first page, never hits.
		for _, id := range ids {
			f, err := pool.Fetch(id)
			if err != nil {
				return pb, err
			}
			pool.Release(f)
		}
		s0 := pool.Stats()
		d, err := cycle(ids)
		if err != nil {
			return pb, err
		}
		if got := pool.Stats().Misses - s0.Misses; got != fetches {
			return pb, fmt.Errorf("pool bench: %d of %d fetches missed", got, fetches)
		}
		missT = append(missT, d)

		hot := ids[:w.poolPages/2]
		if _, err := cycle(hot); err != nil { // fault the hot set in
			return pb, err
		}
		s0 = pool.Stats()
		d, err = cycle(hot)
		if err != nil {
			return pb, err
		}
		if got := pool.Stats().Hits - s0.Hits; got != fetches {
			return pb, fmt.Errorf("pool bench: %d of %d fetches hit", got, fetches)
		}
		hitT = append(hitT, d)
	}
	pb.missNs = missT.percentile(0.5) / fetches
	pb.hitNs = hitT.percentile(0.5) / fetches

	// Allocations per miss, counted exactly around single misses after a
	// pass that leaves only the last pages cached: the median of the
	// counts, an integer.
	for _, id := range ids {
		f, err := pool.Fetch(id)
		if err != nil {
			return pb, err
		}
		pool.Release(f)
	}
	var counts []float64
	for i := 0; i < 257; i++ {
		m0 := mallocs()
		f, err := pool.Fetch(ids[i%len(ids)])
		n := mallocs() - m0
		if err != nil {
			return pb, err
		}
		pool.Release(f)
		counts = append(counts, float64(n))
	}
	pb.allocsPerMiss = median(counts)
	return pb, nil
}

// allocCounts are exact allocation counts from the alone pass's prefix:
// per get, per write, per commit or publish after a group, and per request
// through the obs taps.
type allocCounts struct {
	gets, writes, traced                             int
	getAllocs, writeAllocs, groupAllocs, traceAllocs uint64
}

func (a allocCounts) perGet() float64   { return ratio(float64(a.getAllocs), float64(a.gets)) }
func (a allocCounts) perWrite() float64 { return ratio(float64(a.writeAllocs), float64(a.writes)) }
func (a allocCounts) perTrace() float64 { return ratio(float64(a.traceAllocs), float64(a.traced)) }

// mallocs is the exact count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
