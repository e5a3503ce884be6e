# Build, test, and fuzz entry points. `make ci` is the full gate.

GO      ?= go
FUZZTIME ?= 10s
BENCH_RUNS ?= 3
FARM_SOAK_COUNT ?= 3

# The zero-copy claim the bench gate asserts on every fresh run: the shm
# transport must beat tcp by this factor at the sync-dominated Fig.5
# point (and allocate no more per quantum). CI runners are multi-core,
# where the rendezvous turnaround favors shm even more than the 1-core
# worst case this floor was set on.
SHM_SPEEDUP ?= Transport/Fig5/N=20/tcp:Transport/Fig5/N=20/shm:3

# Lint tools are pinned by module path + version and run via `go run`,
# so CI is reproducible without committing tool binaries or deps.
STATICCHECK_MOD := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK_MOD := golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all fmt-check vet build test race fuzz-smoke farm-soak transport-matrix federation-matrix fleet-matrix shm-smoke fleet-smoke bench-json bench-gate bench-adaptive staticcheck govulncheck cosim-lint lint lint-fix-check ci

all: build

# fmt-check fails when any Go file is not gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short deterministic shake of the native fuzz targets: new coverage is
# explored for FUZZTIME each, then the corpus properties are re-checked.
fuzz-smoke:
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzMsgRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzBatchRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzShmRing$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cosim/ -run '^$$' -fuzz '^FuzzShmDemux$$' -fuzztime $(FUZZTIME)

# farm-soak repeats the multi-session farm suite under the race detector
# — the concurrency gate for the session manager and the mux listener.
# FARM_SOAK_COUNT=10 is the nightly deep-soak sizing.
farm-soak:
	$(GO) test ./internal/farm/ ./internal/cosim/ -race -count=$(FARM_SOAK_COUNT) -run 'Farm|Mux'

# transport-matrix proves every transport kind produces bit-identical
# simulations: the root determinism matrix plus the per-transport
# conformance, soak, and kind-reporting suites, under the race detector.
transport-matrix:
	$(GO) test -race -run 'TransportMatrix|TestCoSimEndToEnd|ReportedKind|MultiRunReports' . ./internal/router/
	$(GO) test -race -run 'Shm|UDS' ./internal/cosim/ ./internal/farm/

# federation-matrix proves the N-party hierarchical time manager: K=2
# federations (every router.Run) match the committed pairwise goldens in
# internal/router/testdata (same sync/elision counts) across every
# transport crossed with alternating, pipelined and adaptive schedules,
# multi-board and pulse-device topologies are deterministic, and the
# manager's lookahead edge cases hold — all under the race detector.
federation-matrix:
	$(GO) test -race -run 'TestFederation|TestRunDispatchesFederation|TestMultiBoard' ./internal/router/
	$(GO) test -race -run 'TestFarmRunsFederatedSessions' ./internal/farm/
	$(GO) test -race ./internal/cosim/federation/

# fleet-matrix proves the multi-host control plane under the race
# detector: M sessions placed across K in-process hosts bit-identical to
# the single-farm baseline, a host kill mid-run re-placed to completion,
# tenancy admission, and the spec-first farm API it all rides on.
fleet-matrix:
	$(GO) test -race ./internal/fleet/ ./internal/farm/
	$(GO) test -race -run 'TestFarmAcceptance' .

# fleet-smoke launches three cosim-farm processes in -farmd mode and
# drives 24 sessions through cosim-farmctl, kill -9'ing one host mid-run
# — the cross-process control-plane rendezvous the in-repo tests cannot
# cover (see docs/FLEET.md).
fleet-smoke:
	./scripts/fleet_smoke.sh

# shm-smoke launches cosim-hw and cosim-board as two real processes
# joined by a -shm-path link file — the cross-process rendezvous of
# CreateShm/OpenShm that in-process tests cannot cover.
shm-smoke:
	./scripts/shm_smoke.sh

# bench-json regenerates the miniature Fig.5/6/7 evaluation and writes
# the machine-readable BENCH_cosim.json artifact CI gates against.
bench-json:
	$(GO) run ./cmd/cosim-bench -runs $(BENCH_RUNS) -v -out BENCH_cosim.json

# bench-gate fails when any Fig.5, Farm, Adaptive, Transport, or
# Federation benchmark regressed >25% vs the committed baseline — in wall clock
# (ns_per_op) or in steady-state allocation rate (allocs_per_quantum) —
# or when the shm transport no longer clears its speedup floor over tcp
# on the fresh run. Skips cleanly when no baseline is committed.
bench-gate: bench-json
	$(GO) run ./cmd/cosim-benchcmp -baseline BENCH_baseline.json -current BENCH_cosim.json -speedup '$(SHM_SPEEDUP)'

# bench-adaptive proves the adaptive-quantum speedup claim in isolation:
# the determinism soak plus the Fig.5 adaptive sweep (quick sizing).
bench-adaptive:
	$(GO) test -run 'TestAdaptive' -v .
	$(GO) run ./cmd/cosim-experiments -fig 5a -quick

staticcheck:
	$(GO) run $(STATICCHECK_MOD) ./...

govulncheck:
	$(GO) run $(GOVULNCHECK_MOD) ./...

# cosim-lint runs the in-repo analyzer suite (pooled-buffer ownership,
# simulation determinism, obs-handle hygiene — see docs/STATIC_ANALYSIS.md).
# It is pure stdlib and needs no network, so it always runs.
cosim-lint:
	$(GO) run ./cmd/cosim-lint ./...

# lint-fix-check produces the machine-readable findings artifact CI
# uploads (cosim-lint.json) alongside the per-file console summary.
lint-fix-check:
	$(GO) run ./cmd/cosim-lint -json -out cosim-lint.json ./...

# lint always runs the in-repo suite, then the pinned external linters
# when they are fetchable (CI) — skipping those cleanly offline: the
# repository must keep building and testing with no network at all.
lint: cosim-lint
	@if $(GO) run $(STATICCHECK_MOD) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_MOD) ./...; \
	else \
		echo "lint: staticcheck unavailable (offline); skipped"; \
	fi
	@if $(GO) run $(GOVULNCHECK_MOD) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK_MOD) ./...; \
	else \
		echo "lint: govulncheck unavailable (offline); skipped"; \
	fi

ci: fmt-check vet build race fuzz-smoke farm-soak bench-adaptive lint
