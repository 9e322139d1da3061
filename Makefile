GO ?= go

.PHONY: check fmt build vet test race racecheck bench experiments-check golden chaos-smoke serve-smoke serve-live-smoke mvcc-smoke mvcc-race wal-smoke qdsweep-smoke drift-smoke benchjson

## check: the full gate — formatting, build, vet, race-enabled tests, and
## the single-owner assertion build.
check: fmt build vet race racecheck

## fmt: fail when any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the full suite under the race detector — this is what holds the
## serving layer (internal/serve) and the bench runner to their concurrency
## contracts on every push.
race:
	$(GO) test -race ./...

## racecheck: build with the storage single-owner and pinned-frame
## assertions compiled in, and run the storage tests and the packages that
## hold buffer-pool frames against them.
racecheck:
	$(GO) build -tags racecheck ./...
	$(GO) test -tags racecheck ./internal/storage/ ./internal/btree ./internal/lsm ./internal/wal ./internal/hashindex

## bench: the hot-path comparison quoted in PR descriptions
## (nil-hook must stay allocation-free and within noise of untraced), and
## the buffer pool's hit and miss paths (both allocation-free).
bench:
	$(GO) test ./internal/obs -bench BenchmarkInstrumentedGet -benchtime=2s -run '^$$'
	$(GO) test ./internal/storage -bench BenchmarkPoolFetch -benchtime=2s -run '^$$'

## experiments-check: the behaviour contract — `rumbench -exp all` stdout
## must match the committed experiments_output.txt byte for byte.
experiments-check:
	$(GO) run ./cmd/rumbench -exp all >/tmp/experiments-output.txt
	diff experiments_output.txt /tmp/experiments-output.txt

## golden: regenerate golden files (exporters, CLI usage) after an
## intended format change.
golden:
	$(GO) test ./internal/obs -run Golden -update
	$(GO) test ./cmd/rumbench -run Golden -update

## chaos-smoke: a tiny end-to-end pass over the fault paths — the chaos
## experiment with a non-trivial plan at two pool widths, diffed to hold
## the determinism contract on every push.
chaos-smoke:
	$(GO) run ./cmd/rumbench -exp chaos -quick -n 2048 -ops 1000 -parallel 1 \
		-faults seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120 >/tmp/chaos-seq.txt
	$(GO) run ./cmd/rumbench -exp chaos -quick -n 2048 -ops 1000 -parallel 8 \
		-faults seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120 >/tmp/chaos-par.txt
	diff /tmp/chaos-seq.txt /tmp/chaos-par.txt

## serve-smoke: the serving-layer determinism gate, mirroring chaos-smoke —
## the serve experiment's stdout must be byte-identical no matter how the
## run is sharded, batched, or pooled; only the stderr timing report moves.
serve-smoke:
	$(GO) run ./cmd/rumbench -exp serve -quick -n 2048 -ops 1000 \
		-shards 1 -batch 32 -parallel 1 >/tmp/serve-seq.txt
	$(GO) run ./cmd/rumbench -exp serve -quick -n 2048 -ops 1000 \
		-shards 8 -batch 64 -parallel 8 >/tmp/serve-par.txt
	diff /tmp/serve-seq.txt /tmp/serve-par.txt

## mvcc-smoke: the snapshot-read determinism gate — the mvcc experiment's
## stdout (clean replay RUM point, retained bytes, outcome verification)
## must be byte-identical no matter how the live runs are sharded, batched,
## or pooled; throughput and speedup live on stderr only.
mvcc-smoke:
	$(GO) run ./cmd/rumbench -exp mvcc -quick -n 2048 -ops 1000 \
		-shards 1 -batch 32 -parallel 1 >/tmp/mvcc-seq.txt
	$(GO) run ./cmd/rumbench -exp mvcc -quick -n 2048 -ops 1000 \
		-shards 8 -batch 64 -parallel 8 >/tmp/mvcc-par.txt
	diff /tmp/mvcc-seq.txt /tmp/mvcc-par.txt

## wal-smoke: the durability determinism gate — the walsweep experiment
## (cost-unit throughput, per-op cost quantiles, log ledger, crash trials)
## must render byte-identical stdout at any pool width.
wal-smoke:
	$(GO) run ./cmd/rumbench -exp walsweep -quick -n 2048 -ops 1000 \
		-parallel 1 >/tmp/wal-seq.txt
	$(GO) run ./cmd/rumbench -exp walsweep -quick -n 2048 -ops 1000 \
		-parallel 8 >/tmp/wal-par.txt
	diff /tmp/wal-seq.txt /tmp/wal-par.txt

## qdsweep-smoke: the queue-depth determinism gate — the qdsweep experiment
## (batched I/O on the multi-queue SSD: ops/kcost, batch ledger, achieved
## depth, re-ranking summary) must render byte-identical stdout at any pool
## width.
qdsweep-smoke:
	$(GO) run ./cmd/rumbench -exp qdsweep -quick -n 2048 -ops 1000 \
		-parallel 1 >/tmp/qd-seq.txt
	$(GO) run ./cmd/rumbench -exp qdsweep -quick -n 2048 -ops 1000 \
		-parallel 8 >/tmp/qd-par.txt
	diff /tmp/qd-seq.txt /tmp/qd-par.txt

## drift-smoke: the workload-observability determinism gate — the drift
## experiment (12 fingerprint windows, drift latches, advisor verdicts)
## must render byte-identical stdout at any pool width.
drift-smoke:
	$(GO) run ./cmd/rumbench -exp drift -parallel 1 >/tmp/drift-seq.txt
	$(GO) run ./cmd/rumbench -exp drift -parallel 8 >/tmp/drift-par.txt
	diff /tmp/drift-seq.txt /tmp/drift-par.txt

## benchjson: regenerate BENCH_10.json, the machine-readable per-cell perf
## summary (ops per 1000 medium-weighted cost units for every walsweep and
## qdsweep cell). Deterministic — no wall-clock — so CI diffs it against
## the committed artifact and the bench trajectory accumulates across PRs.
benchjson:
	$(GO) run ./cmd/rumbench -exp walsweep,qdsweep -quick -n 2048 -ops 1000 \
		-benchjson BENCH_10.json >/dev/null

## mvcc-race: the single-writer/many-reader packages under the race
## detector alone — quicker signal than the full `race` target when
## iterating on the snapshot path.
mvcc-race:
	$(GO) test -race ./internal/serve ./internal/btree ./internal/lsm

## serve-live-smoke: the live telemetry plane end to end — start rumserve
## on an ephemeral port, scrape /healthz, /metrics and /debug/rum, assert
## the rum_* series are present, and require a clean SIGINT shutdown with
## a final report.
serve-live-smoke:
	$(GO) build -o /tmp/rumserve-smoke ./cmd/rumserve
	./scripts/serve-live-smoke.sh /tmp/rumserve-smoke
