package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Request lifecycle tracing. With a TraceConfig in the server's Config,
// every Do call stamps its mailbox messages at enqueue and each shard
// decomposes every operation it executes into queue wait (enqueue to
// execution start: mailbox wait plus in-batch wait behind earlier ops of the
// same message) and service time (the op's own execution). All three numbers
// derive from the same monotonic clock readings, so
//
//	Total = Queue + Service
//
// holds exactly, not within tolerance — the serve tests assert it with ==.
//
// The decomposition flows to three sinks, all owned shard-side under the
// same single-owner contract as the structures themselves:
//
//   - a per-shard obs.PhaseRecorder (queue/service/batch histograms plus
//     per-bucket exemplars), published as ShardReport.Phases through the
//     usual snapshot edges;
//   - a server-wide obs.SlowLog flight recorder retaining the slowest-K
//     recent traces (Offer is one atomic load on the fast path);
//   - the storage hook, when the builder threads the recorder into the
//     shard's stack, which attributes pages/faults/retries to each op.
//
// With Trace nil nothing changes: no clock is read, nothing allocates, and
// the only cost on the hot path is one nil check per message — a property
// pinned by BenchmarkDo in trace_test.go.

// TraceConfig enables request lifecycle tracing. The zero value of every
// field selects a default.
type TraceConfig struct {
	// SlowK is the flight-recorder capacity: the number of slowest recent
	// traces retained (default 64).
	SlowK int
	// SlowTTL makes retained traces older than this evictable by any newer
	// trace, so a startup burst cannot freeze the recorder (default 0: pure
	// slowest-K, deterministic, what tests use).
	SlowTTL time.Duration
	// Recorder, when set, supplies shard i's PhaseRecorder. It runs on the
	// shard's own goroutine immediately before Config.Build, so a caller can
	// stash the recorder where its Build closure finds it and thread it into
	// the storage stack as a hook — same goroutine, no race. Nil (or a nil
	// return) means the shard builds its own private recorder.
	Recorder func(shard int) *obs.PhaseRecorder
}

func (tc *TraceConfig) slowK() int {
	if tc.SlowK <= 0 {
		return 64
	}
	return tc.SlowK
}

// applyOpsTraced is the traced twin of apply's kindOps branch: identical
// operation semantics plus N+1 clock readings per message (one before the
// batch, one after each op — each op's end is the next op's start).
func (sh *shard) applyOpsTraced(am *core.Instrumented, msg message) {
	rec := sh.rec
	rec.RecordBatch(len(msg.idxs))
	batch := len(msg.idxs)
	start := time.Now()
	for _, i := range msg.idxs {
		req := &msg.reqs[i]
		rec.BeginOpWork()
		pre := am.Meter().Snapshot()
		var out Result
		switch req.Op {
		case OpGet:
			out.Value, out.OK = am.Get(req.Key)
		case OpInsert:
			out.OK = am.Insert(req.Key, req.Value) == nil
		case OpUpdate:
			out.OK = am.Update(req.Key, req.Value)
		case OpDelete:
			out.OK = am.Delete(req.Key)
		}
		msg.res[i] = out
		end := time.Now()
		post := am.Meter().Snapshot()
		d := post.Diff(pre)
		pages, faults, retries := rec.OpWork()
		t := obs.SlowTrace{
			At: end, Shard: sh.id, Op: req.Op.String(), Key: uint64(req.Key),
			Batch:     batch,
			Queue:     start.Sub(msg.enqueuedAt),
			Service:   end.Sub(start),
			Total:     end.Sub(msg.enqueuedAt),
			ReadBytes: d.PhysicalRead(), WriteBytes: d.PhysicalWritten(),
			Pages: pages, Faults: faults, Retries: retries,
		}
		rec.Observe(t)
		sh.slow.Offer(t)
		start = end
	}
	sh.ops += uint64(len(msg.idxs))
}

// SlowTraces returns the flight recorder's retained traces, slowest first.
// It is lock-free and safe to call at any time — concurrently with traffic,
// after Stop, and against a server whose shards have died. Without tracing
// it returns nil.
func (s *Server) SlowTraces() []obs.SlowTrace {
	if s.slow == nil {
		return nil
	}
	return s.slow.Snapshot()
}

// MailboxDepths reports each shard's current mailbox occupancy in messages —
// the instantaneous queue-depth gauge behind the queue-wait histogram. Safe
// from any goroutine at any time.
func (s *Server) MailboxDepths() []int {
	d := make([]int, len(s.shards))
	for i, sh := range s.shards {
		d[i] = len(sh.mailbox)
	}
	return d
}

// AggregatePhases merges the per-shard phase snapshots of a report set into
// one server-wide snapshot (nil when no shard carried one — tracing off or
// every traced shard dead). The inputs are not mutated.
func AggregatePhases(reports []ShardReport) *obs.PhaseSnapshot {
	var agg *obs.PhaseSnapshot
	for i := range reports {
		p := reports[i].Phases
		if p == nil {
			continue
		}
		if agg == nil {
			agg = p.Clone()
		} else {
			agg.Merge(p)
		}
	}
	return agg
}
