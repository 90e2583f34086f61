GO ?= go

.PHONY: build vet lint lint-fix test race chaos telemetry figures check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-specific invariants: counted memory access, deterministic model
# code, registry-valid fault points, atomic counter discipline, no
# dropped status/error results, lock ordering, hot-path allocation
# budgets, and goroutine tie-downs. See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/kvdlint ./...

# Apply the mechanical fixes kvdlint suggests (e.g. clock-derived rand
# seeds rewritten to constants), then report what remains.
lint-fix:
	$(GO) run ./cmd/kvdlint -fix ./...

test: build
	$(GO) test ./...

# The full suite under the race detector, chaos harness included.
race: vet
	$(GO) test -race ./...

# The chaos/resilience suite: every test of the packages where failure
# handling lives — the contract harness (kvrepl TestContract*: every
# Deploy topology, native and memcache, held to one linearizability
# oracle under network, memory and kill schedules and live migrations
# with the source, the destination or the coordinator killed), the
# memcache gateway's failover, decode-corruption and panic drills, and
# the cmd/ topology matrix — under the race
# detector. Whole packages, not a list of test names, so a new test
# cannot be left out; -count=2 shakes out ordering-dependent flakes.
chaos:
	$(GO) test -race -count=2 ./kvnet/ ./kvrepl/ ./kvgw/ ./internal/core/ ./cmd/...

# Telemetry smoke: the unit suite plus the overhead guards — the
# disabled-sampling and trace-off hot paths must stay at 0 allocs/op,
# and the flight recorder's Record must too (see DESIGN.md
# "Observability"). Every layer's allocation pin rides along by naming
# convention: a test whose name ends in "Allocs" (core apply, the
# replicated PUT, the gateway's quiet run, the sharded client's retry
# loop) fails when an allocation creeps back into its path, so a new
# pin joins CI by being named, not by being listed here. The benchmarks
# print the allocs/op those pins hold (core GET/PUT, and the replication
# log's append with its window full), and the model's engine and PCIe
# reads per create into a scanned (indexed) and an unscanned store, and
# the index build's reads per key (a short run: the counts, not the
# ns/op, are what the log is for).
telemetry:
	$(GO) test ./internal/telemetry/
	$(GO) test -bench='BenchmarkTelemetryOff|BenchmarkTraceOff|BenchmarkFlightRecorderOn' -benchmem -run '^$$' ./internal/telemetry/
	$(GO) test -count=1 -run 'Allocs$$' ./...
	$(GO) test -run '^$$' -bench 'BenchmarkStorePutGet' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkStoreCreate' -benchtime 20000x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkLogAppendFullWindow' -benchmem ./internal/repllog/

# Re-record FIGURES.json and EXPERIMENTS.md's generated claim tables from
# one Quick-scale run of every experiment (see EXPERIMENTS.md "Where the
# paper's numbers live"). A change that moves a figure runs this and
# explains each moved cell or claim in CHANGES.md.
figures:
	$(GO) test -count=1 ./internal/experiments -run '^TestFigures$$' -update

# What CI runs.
check: vet lint
	$(GO) test -race ./...
