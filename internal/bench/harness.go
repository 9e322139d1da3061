package bench

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/methods"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The device-metered experiments (chaos, walsweep, qdsweep) measure their
// subjects one way: a fresh methods.NewPool stack from the cell's
// Config.Storage, the subject built over it, instrumented, observed, and
// preloaded from the workload generator; then the measured phase. Only the
// measured phase differs — chaos arms a fault plan first, the sweeps replay
// with a per-op cost trace — so the front half lives here once.

// subject is one structure under a device-metered experiment: its name plus
// the crash-check view of it — a build over a pool (Open), an optional
// recovery from a crashed image (Reopen; nil means none), and the
// durability contract a crash trial holds it to.
type subject struct {
	name string
	faults.Subject
}

// stage is a subject built and preloaded on its own storage stack, ready
// for the measured phase: the generator continues where the preload ended.
type stage struct {
	pool *storage.BufferPool
	am   *core.Instrumented
	gen  *workload.Generator
}

// prepare builds sub over a fresh pool from cfg.Storage, instruments it,
// points the cell's observer at it under label, and preloads cfg.N records
// of a mix workload, flushed so the measured phase starts from a clean pool.
func prepare(cfg Config, sub subject, mix workload.Mix, label string) stage {
	pool := methods.NewPool(cfg.Storage, nil)
	m, err := sub.Open(pool)
	if err != nil {
		panic(fmt.Sprintf("%s: build: %v", label, err))
	}
	am := core.Instrument(m)
	cfg.observe(am, label)
	gen := workload.New(workload.Config{Seed: cfg.Seed, Mix: mix, InitialLen: cfg.N})
	if err := core.Preload(am, gen); err != nil {
		panic(fmt.Sprintf("%s: preload: %v", label, err))
	}
	am.Flush()
	return stage{pool: pool, am: am, gen: gen}
}

// costTrace is a measured phase's device ledger: the device stats at either
// end and the per-op cost distribution.
type costTrace struct {
	before, after             storage.DeviceStats
	costP50, costP99, costMax uint64
}

// opsPerKCost is operations per 1000 medium-weighted cost units — the
// deterministic throughput stand-in (0 when the phase cost nothing).
func (t costTrace) opsPerKCost(ops int) float64 {
	total := t.after.CostUnits - t.before.CostUnits
	if total == 0 {
		return 0
	}
	return float64(ops) * 1000 / float64(total)
}

// replay applies ops generated operations with a flush every ops/8, and
// charges each op the device cost units it caused — a periodic flush's
// vectored burst lands in the op that triggered it. This per-op trace is
// how the sweeps price the multi-queue device's achieved depth.
func (s stage) replay(ops int) costTrace {
	dev := s.pool.Device()
	t := costTrace{before: dev.Stats()}
	costs := make([]uint64, ops)
	flushEvery := ops / 8
	prev := t.before.CostUnits
	var st core.OpStats
	for i := range costs {
		core.Apply(s.am, s.gen.Next(), &st)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			s.am.Flush()
		}
		now := dev.Stats().CostUnits
		costs[i] = now - prev
		prev = now
	}
	t.after = dev.Stats()
	slices.Sort(costs)
	quantile := func(q float64) uint64 { return costs[int(q*float64(len(costs)-1))] }
	t.costP50, t.costP99, t.costMax = quantile(0.50), quantile(0.99), costs[len(costs)-1]
	return t
}
