GO ?= go

.PHONY: build test vet fmt-check race chaos fuzz-smoke examples serve-drill reweight-drill overload-drill cache-drill api-check api-snapshot staticcheck govulncheck cross generic check bench bench-build bench-build-baseline bench-query bench-query-baseline bench-cache bench-cache-baseline

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fmt-check fails when any Go file in the repository is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# chaos runs the deterministic fault-injection suite under the race
# detector: panics, delays, and cancellations fire at every instrumented
# boundary while concurrent clients assert each request still ends in a
# correct answer or a typed error (see DESIGN.md "Failure model"). It then
# stress-runs the flight recorder's concurrent-writer test 50 times, which
# fails on any torn event (see DESIGN.md "Live telemetry"), and the result
# cache's single-flight tests: a caller that reaches Do while a leader
# admits the same key, 50 times, and the E-cache small run 20 times, both
# of which fail if a cold source is computed twice. Last, it runs 10 times
# the telemetry tests that scrape counts while servers, managers, breakers
# and fallback engines write them where they are kept: the sums over both
# servers of a shared Telemetry, continuous scrapes under load, and the
# fallback counts of a build-time degradation and of one index served
# under two Telemetries.
chaos:
	$(GO) test -race -run 'Chaos|Robust|ServerWavePanic|ServerQueriesCountedOnce|SourcesWave|Fallback|Degraded|PanicSurfaces|UsableAfterPanic' -count=1 .
	$(GO) test -race -run 'Panic|Inject' -count=1 ./internal/pram ./internal/faultinject
	$(GO) test -race -count=50 -run 'TestRecorderConcurrent$$' ./internal/obs
	$(GO) test -race -count=50 -run 'TestDoRepeeksAfterLateSettle$$' ./internal/distcache
	$(GO) test -race -count=20 -run 'TestCacheExperimentSmall$$' ./internal/exp
	$(GO) test -race -count=10 -run 'TestTelemetry(SumsServerCounts|ScrapeStress|CountsBuildDegradation|FallbackCountsPerIndex)$$' .

# fuzz-smoke runs the native fuzz targets for a short budget each: FuzzLoad
# (persist.go), where mutated Save blobs must never panic and must either
# load or fail with ErrCorruptIndex; FuzzBuildVsBellmanFord, where small
# digraphs with negative weights must get Bellman-Ford's distances from
# Build, SSSPContext and SourcesBatchedContext at one and two workers,
# Reachable from every source must return the vertices Bellman-Ford
# reaches, PathContext for every pair must return a path over graph edges
# exactly when the distance is finite, weighing SSSPContext's entry bit for
# bit, and ErrNegativeCycle must come exactly when Bellman-Ford finds a
# negative cycle;
# FuzzWithWeightsVsBuild, where reweighting an index must give a fresh
# Build's E+ slice, distances and ErrNegativeCycle verdict;
# FuzzQueryVsReference, where SSSP, every SourcesBatched row and SSSPFrom
# on potential-shifted grids with near-cancelling 2-cycles must be
# bit-identical to the naive reference relaxer; and
# FuzzRead (internal/graph/io.go), where graph text must never panic Read
# and accepted graphs must match their p line and survive a Write/Read
# round trip; and FuzzMulMinPlusVsNaive (internal/matrix), where
# MulMinPlusInto on shapes up to 70 per side with +Inf, negative and ±0
# entries must be bit-identical to MulMinPlusNaive and ClosureWS must match
# ClosureNaive. Committed corpora under testdata/fuzz also replay under plain
# `go test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=20s .
	$(GO) test -run='^$$' -fuzz='^FuzzBuildVsBellmanFord$$' -fuzztime=20s .
	$(GO) test -run='^$$' -fuzz='^FuzzWithWeightsVsBuild$$' -fuzztime=20s .
	$(GO) test -run='^$$' -fuzz='^FuzzQueryVsReference$$' -fuzztime=20s .
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=20s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzMulMinPlusVsNaive$$' -fuzztime=20s ./internal/matrix

# examples runs every program under examples/ and fails on the first
# non-zero exit.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# serve-drill runs the live-telemetry chaos drill end to end: the real
# serve command with fault injection and -listen mounted, scraped over HTTP
# while under load. /metrics must serve strictly parseable Prometheus text
# (counters by outcome, phase histograms with quantile gauges),
# /flightrecorder must hold at least one injected failure event, and a real
# SIGINT must drain gracefully and still print the run summary (see
# DESIGN.md "Live telemetry").
serve-drill:
	$(GO) test -race -run ServeDrill -count=1 -v ./cmd/sepsp

# reweight-drill runs the zero-downtime reweighting drill: the real serve
# command under chaos load with a timer hot-swapping new weights, asserting
# the epoch advances through >= 3 swaps with zero swap-attributable request
# failures, plus the SIGHUP operational-reload path (see DESIGN.md "Index
# lifecycle and epochs").
reweight-drill:
	$(GO) test -race -run ServeReweight -count=1 -v ./cmd/sepsp

# overload-drill runs the overload-control drill: the real
# `serve -overload` command scraped over HTTP, asserting that under 4x the
# MaxInFlight window with injected wave latency the window holds at
# MaxInFlight, interactive queries are never browned out while batch
# queries are answered exactly from the fallback engine, and the rebuild
# circuit breaker opens under injected failures then recovers via a
# half-open probe (see DESIGN.md "Overload control").
overload-drill:
	$(GO) test -race -run OverloadDrill -count=1 -v ./cmd/sepsp

# cache-drill runs the result-cache drill: the real `serve -cache-mb` command
# with the load concentrated on a few hot sources, scraped over HTTP. The
# computed-lane count must stay near the hot-set size (single-flight collapses
# concurrent misses), /metrics must expose the sepsp_cache_* families,
# /healthz the cache_* fields, and the run summary the hit rate (see
# DESIGN.md "Result caching").
cache-drill:
	$(GO) test -race -run ServeCacheDrill -count=1 -v ./cmd/sepsp

# api-check gates the public API surface against the committed snapshot
# (api/sepsp.txt): removals and signature changes are breaking, additions
# must be acknowledged by re-recording with api-snapshot.
api-check:
	$(GO) run ./cmd/apicheck -pkg . -snapshot api/sepsp.txt

api-snapshot:
	$(GO) run ./cmd/apicheck -pkg . -snapshot api/sepsp.txt -write

# staticcheck and govulncheck run as part of `make check` when the tools
# are on PATH. The development container does not bundle them (and policy
# forbids installing ad hoc), so locally an absent tool prints a skip
# notice instead of failing; CI installs both (see .github/workflows/
# ci.yml) and therefore enforces them on every push.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (enforced in CI)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck: not installed, skipping (enforced in CI)"; \
	fi

# cross vets and builds every package for arm64, where internal/matrix has
# no assembly and its row and lane kernels are the Go loops, so the generic
# path keeps compiling when only amd64 is tested.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# generic runs the internal/matrix and internal/core tests for 386, where
# internal/matrix has no assembly: the Go row and lane kernels that cross
# only compiles execute here, natively on an amd64 host. These are also the
# kernels an amd64 CPU without AVX2 runs, so this job tests that fallback.
generic:
	GOARCH=386 $(GO) test ./internal/matrix ./internal/core

# check is the tier-1 gate (see README): everything must pass before a
# change lands.
check: vet fmt-check api-check staticcheck govulncheck cross generic test race

bench:
	$(GO) test -bench=. -benchmem ./...

# The bench-* gate targets re-run their experiment and compare against the
# committed baseline. When BENCH_NDJSON_DIR is set, the gate run also
# streams the fresh NDJSON measurement into that directory (gate verdicts
# go to stderr either way) — CI sets it and uploads the directory as a
# workflow artifact, so every push keeps its raw numbers for offline
# comparison against the committed BENCH_*.json.
BENCH_NDJSON_DIR ?=
define bench_gate
$(if $(BENCH_NDJSON_DIR),mkdir -p $(BENCH_NDJSON_DIR) && $(GO) run ./cmd/benchtab -gate $(1) -json > $(BENCH_NDJSON_DIR)/$(2).ndjson,$(GO) run ./cmd/benchtab -gate $(1))
endef

# bench-build runs the build-throughput experiment (E-build) and gates it
# against the recorded baseline BENCH_build.json: counted work must match
# the baseline exactly, build-path allocations must stay within tolerance,
# and the blocked min-plus closure kernel must hold its speedup floor over
# the naive reference on the current machine (see DESIGN.md "Build
# performance"). bench-build-baseline re-records the baseline after an
# intentional kernel change.
bench-build:
	$(call bench_gate,BENCH_build.json,E-build)

bench-build-baseline:
	$(GO) run ./cmd/benchtab -exp E-build -json > BENCH_build.json

# bench-query runs the query-path experiment (E-query) and gates it against
# the recorded baseline BENCH_query.json: counted work must match the
# baseline exactly (the optimized query's must equal the reference's, and
# the batched wave's must be independent of P), steady-state query
# allocations must stay within tolerance, the optimized single-source
# executor must hold its speedup floor over the retained naive reference
# relaxer at the largest n, and the k=32 wave must scale on multi-CPU
# runners (see DESIGN.md "Query performance").
# bench-query-baseline re-records the baseline after an intentional kernel
# change.
bench-query:
	$(call bench_gate,BENCH_query.json,E-query)

bench-query-baseline:
	$(GO) run ./cmd/benchtab -exp E-query -json > BENCH_query.json

# bench-cache runs the result-cache experiment (E-cache) and gates it
# against the recorded baseline BENCH_cache.json: the recompute path's
# counted work must match the baseline exactly, a cache hit must stay within
# its absolute allocation budget, hold the >= 10x speedup floor over
# recomputation at the largest n, and return a vector bit-identical to a
# fresh SSSP, and concurrent misses on one source must compute exactly once
# (see DESIGN.md "Result caching"). bench-cache-baseline re-records the
# baseline after an intentional change.
bench-cache:
	$(call bench_gate,BENCH_cache.json,E-cache)

bench-cache-baseline:
	$(GO) run ./cmd/benchtab -exp E-cache -json > BENCH_cache.json
