GO ?= go

.PHONY: check fmt build vet test race racecheck bench experiments-check golden serve-live-smoke mvcc-race benchjson

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
