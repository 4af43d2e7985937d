GO ?= go

.PHONY: build test check fuzz-smoke soak-smoke soak-dist soak-byzantine soak-failover bench bench-obs bench-sweep bench-smoke bench-gate bench-compile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast robustness gate: vet everything, race-test the sweep runtime
# (including the supervised executor, journal recovery and
# kill-resume tests), the fault injector, and the observability layer
# (the concurrency-heavy packages) plus the CLIs, then smoke the fuzz
# targets.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/sweep/... ./internal/fault/... ./internal/obs/... ./internal/serve/... ./internal/dist/... ./cmd/gpusweep/... ./cmd/gpuscaled/... ./cmd/sweeptrace/...
	$(GO) test -race -run 'TestPreparedRowMatchesPerCell|TestResidentSetMatchesReference' ./internal/gcn/
	$(MAKE) fuzz-smoke

# Extended chaos soak of the sweep service: concurrent clients, fault
# injection and a mid-soak restart, under the race detector. The
# default in-tree soak is a few hundred milliseconds; this runs it for
# ~10s wall-clock — still well under 30s — as the pre-merge drill.
soak-smoke:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoak -v -count=1 ./internal/serve/

# Multi-process distributed chaos soak: a coordinator plus three
# child-process workers, with SIGKILLs, coordinator crash-restarts and
# injected network faults (dropped acks, duplicated deliveries,
# delays), race-enabled. Asserts exactly-once completion, a merged
# matrix byte-identical to a single-node run, and the no-two-live-
# epochs ledger invariant. On failure the log prints the chaos seed;
# replay it with GPUSCALE_FAULT_SEED=<seed> make soak-dist.
soak-dist:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoakDistributed -v -count=1 ./internal/dist/

# Byzantine fleet soak: a worker that corrupts every row it computes
# (journal, wire and attested digest consistently wrong), a worker on
# a stale protocol version, two honest workers, and a coordinator
# crash-restart after the quarantine lands — race-enabled. Asserts the
# stale worker is fenced before computing, the liar is quarantined
# with its rows invalidated and re-executed, the merged result stays
# byte-identical to a single-node run, and the ledger audit names
# every corrupt row. On failure the log prints the seed; replay it
# with GPUSCALE_FAULT_SEED=<seed> make soak-byzantine.
soak-byzantine:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoakByzantine -v -count=1 ./internal/dist/

# Coordinator-failover soak: a primary with a warm standby tailing its
# lease ledger over a partition-prone replication link, three workers
# under injected faults including seeded network partitions. The
# primary is killed mid-sweep, the standby promotes itself under a new
# term, workers re-join it through peer rotation with jittered
# backoff, and the deposed primary is term-fenced when it limps back —
# race-enabled. Asserts exactly-once completion across the failover, a
# merged matrix byte-identical to a single-node run, and the
# monotonic-terms / no-two-live-primaries ledger audit. On failure the
# log prints the seed; replay with GPUSCALE_FAULT_SEED=<seed> make
# soak-failover.
soak-failover:
	GPUSCALE_SOAK_MS=10000 $(GO) test -race -run TestChaosSoakFailover -v -count=1 ./internal/dist/

# Short coverage-guided fuzz of the journal decoder, the CSV loaders
# and the lease-ledger scanner (go test takes one -fuzz target per
# invocation).
fuzz-smoke:
	$(GO) test ./internal/sweep -run '^$$' -fuzz 'FuzzJournalScan$$' -fuzztime 5s
	$(GO) test ./internal/sweep -run '^$$' -fuzz 'FuzzReadCSV$$' -fuzztime 5s
	$(GO) test ./internal/dist -run '^$$' -fuzz 'FuzzLedgerScan$$' -fuzztime 5s

bench:
	$(GO) test -bench=. -benchmem

# Row-evaluation benchmark: measures every engine over the study grid
# in the prepared (scalar Eval per config) and batch modes and archives
# the numbers in BENCH_sweep.json (schema documented in README.md).
# bench-smoke is the quick variant: a 27-config grid, one iteration,
# stdout only — a sanity check that the harness still runs.
bench-sweep:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json

bench-smoke:
	$(GO) run ./cmd/benchsweep -quick -o -

# Per-cell throughput gate: re-measure the analytic engines' prepared
# and batched modes and fail if any (engine, mode) pair runs more than
# 25% slower per cell than the committed BENCH_sweep.json ledger. Only
# the fast engines are gated (the event engines take seconds per
# iteration and their variance would drown the signal).
bench-gate:
	$(GO) run ./cmd/benchsweep -engines round,pipeline -modes prepared,batch -budget 3s -gate BENCH_sweep.json

# The job benchmark (jobbench/) is a separate Go module, so `go test
# ./...` at the root never builds it; this vets and tests it, so a
# change to a program seam it compiles against fails here.
bench-compile:
	cd jobbench && $(GO) vet ./... && $(GO) test ./...

# Observer-overhead gates: the disabled (no-op) observer must add less
# than 5% to the sweep hot path, and the full distributed-tracing path
# (trace writer + span context + flight recorder) less than 10%. The
# assertions are env-gated so plain `go test ./...` stays
# timing-independent.
bench-obs:
	GPUSCALE_BENCH_OBS=1 $(GO) test -run 'TestNopObserverOverhead|TestTracedSweepOverhead' -v ./internal/sweep/
	$(GO) test -bench 'BenchmarkSweep(SingleKernelFullGrid|NopObserver)$$' -benchmem ./
