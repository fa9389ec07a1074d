# Montsalvat (Go reproduction) — common tasks.

GO ?= go

.PHONY: all build test race cover bench bench-smoke bench-scale-smoke bench-ring-smoke bench-orderly bench-full serve-smoke obs-smoke crash-smoke fabric-smoke obs-fabric-smoke orderly-smoke fuzz vet fmt examples clean

all: build test

build:
	$(GO) build ./...

# Tier-1: full suite, vet, and a race pass over the boundary-crossing
# packages (the dispatcher, batching queues, resident ring consumers,
# and the telemetry instruments they all publish into are concurrent).
# The gateway and the cycle-ledger equality tests also run on one and
# two cores: their reply ordering and ledgers must not depend on
# scheduling.
test:
	$(GO) test ./...
	$(GO) vet ./...
	$(GO) test -race ./internal/boundary/... ./internal/sgx/... ./internal/ring/... ./internal/world/... ./internal/telemetry/... ./internal/persist/... ./internal/fabric/... ./internal/orderly/...
	$(GO) test -race -cpu 1,2 ./internal/serve/...
	$(GO) test -race -cpu 1,2 -run TestTelemetryCycleNeutral .
	$(GO) test -race -cpu 1,2 -run TestDispatchLedgerGolden ./internal/bench/

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# testing.B benchmarks (quick experiment scale + substrate benchmarks).
bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# Short-mode dispatch-layer assertions: transition counts and the >=30%
# cycle-reduction bar for batched+switchless dispatch.
bench-smoke:
	$(GO) test -run TestDispatchSmoke -v ./internal/bench/

# Parallel-scaling sanity check: boot the gateway in-process and compare
# 1-client vs 2-client attested throughput through the worker pool and
# the sharded crossing engine; fails on zero parallel throughput or any
# request error.
bench-scale-smoke:
	$(GO) run ./cmd/montsalvat-serve -clients 2 -requests 32

# Zero-copy data plane check: run the bounded ring-vs-frame payload
# sweep (virtual cost accounting, quick scale) — fails if the ring path
# or its fallback routes misbehave at any payload size.
bench-ring-smoke:
	$(GO) run ./cmd/montsalvat-bench -experiment ring-sweep -quick -spin=false

# Regenerate every paper table/figure at full scale (minutes).
bench-full:
	$(GO) run ./cmd/montsalvat-bench

# End-to-end gateway check: boot the enclave gateway over the secure KV
# program, fire a 32-session attested load burst at it over loopback,
# drain, and fail on any handshake failure or request error.
serve-smoke:
	$(GO) run ./cmd/montsalvat-serve -smoke -sessions 32 -requests 16

# Observability check: same gateway smoke with the live introspection
# endpoint up — the run scrapes its own /metrics and /traces and fails
# unless the core metric families and a sampled cross-boundary trace
# (ecall with nested ocall) are present.
obs-smoke:
	$(GO) run ./cmd/montsalvat-serve -smoke -sessions 16 -requests 16 -metrics-addr 127.0.0.1:0

# Durability check: boot a durable gateway (sealed WAL + checkpoints +
# monotonic-counter rollback protection), kill and recover the enclave
# twice with attested sessions re-established after each crash, and fail
# unless every acked write survives both.
crash-smoke:
	$(GO) run ./cmd/montsalvat-serve -crash-smoke -sessions 8 -requests 16

# Fabric check: boot a 4-shard x 1-replica fabric in one process, drive
# a concurrent routed load burst, kill one primary mid-run, promote its
# replica, and fail unless every acked write reads back afterwards.
fabric-smoke:
	$(GO) run ./cmd/montsalvat-fabric -shards 4 -replicas 1 -load -failover -clients 4 -requests 32

# Fleet observability check: run the fabric load + failover drill with
# the observability plane mounted (2 replicas so a ship fan-out spans 3
# Worlds) and -obs-check asserting its core promises: one trace ID
# spanning at least three Worlds, a complete kill -> promote-begin ->
# promote-commit -> epoch-bump timeline in the event journal, and
# traced commit-leader spans parenting the batched ship spans (so the
# trace attributes every replica delta to the commit round that
# shipped it).
obs-fabric-smoke:
	$(GO) run ./cmd/montsalvat-fabric -shards 3 -replicas 2 -load -failover -clients 4 -requests 24 -metrics-addr 127.0.0.1:0 -obs-check

# Model-check smoke: bounded exhaustive exploration of the boundary,
# recovery, and failover state machines. The serve side sweeps the
# in-process world alphabet (exhaustive depth 6, a deep states-bounded
# pass, lockrank-armed passes over world and served gateway); the
# fabric side exhausts the two-shard failover alphabet. Fails on any
# invariant violation, printing the shrunk trace as a replayable seed.
orderly-smoke:
	$(GO) run ./cmd/montsalvat-serve -orderly-check
	$(GO) run ./cmd/montsalvat-fabric -orderly-check

# Model-checker throughput: the orderly explorer's budgeted deep mode,
# recording distinct states/sec per configuration to BENCH_orderly.json.
bench-orderly:
	$(GO) run ./cmd/montsalvat-bench -json BENCH_orderly.json -suite orderly -quick -spin=false

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/wire/

vet:
	$(GO) vet ./...
	gofmt -l .

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/securekv
	$(GO) run ./examples/pagerank
	$(GO) run ./examples/unpartitioned

clean:
	$(GO) clean ./...
