# Standard checks. `make check` is the tier-1 gate: everything a change
# must pass before merging.

GO ?= go

.PHONY: check build test race vet bench bench-diff bench-figures e2e gateway chaos soak coverage

check: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and everything scheduled on it must be clean under the race
# detector; the internal tree is where all the concurrency lives.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# The bench ledger: one `go test -bench` over the model kernels (neural,
# tree), the serving cache and active-learning acquisition → BENCH.json,
# the committed regression reference. Benchmark names are unique across
# these packages. -cpu 1 because allocs/op is pinned exactly and the
# engine's worker pools size to GOMAXPROCS: acquisition allocates 79-80
# times per op at one CPU but 89-90 at two, varying between runs there.
# TrainTree is skipped: its allocs/op drift by one across runs on the
# same host (232185 vs 232186), so the exact alloc pin would flake.
# Staged through a file (not a pipe) so benchjson's compilation does not
# run concurrently with — and perturb — the measurement.
BENCH_PKGS = ./internal/neural ./internal/tree ./internal/serve ./internal/active
BENCH_RUN = $(GO) test -run '^$$' -bench . -skip '^BenchmarkTrainTree$$' -cpu 1 -benchmem -count=2 $(BENCH_PKGS)

bench:
	$(BENCH_RUN) > bench.out.tmp
	$(GO) run ./cmd/benchjson -o BENCH.json < bench.out.tmp
	@rm -f bench.out.tmp

# Perf-regression gate: re-run the ledger's benchmarks and diff every
# entry against the committed BENCH.json. ns/op gets a 4x tolerance (CI
# hardware varies); allocs/op gets none, so every 0 allocs/op path
# (cached predict, score chunk, the predict kernels) is an exact pin. An
# intended regression is waived by regenerating the ledger (`make
# bench`) and committing it.
bench-diff:
	$(BENCH_RUN) > bench.out.tmp
	$(GO) run ./cmd/benchdiff -baseline BENCH.json < bench.out.tmp
	@rm -f bench.out.tmp

# End-to-end smoke of the serving daemon: train → serve → curl → drain,
# asserting daemon predictions are bit-identical to offline scoring.
e2e:
	./scripts/e2e_serve.sh

# End-to-end smoke of the replicated tier: two perfpredd replicas
# behind perfpredgw, cache affinity proven, one replica killed
# mid-stream with zero client-visible failures, ordered drain.
gateway:
	./scripts/e2e_gateway.sh

# Chaos/soak run against an in-process daemon with fault injection AND
# the prediction cache armed: deterministic seed-derived schedule with a
# duplicate-heavy hot-row class, every 200 bit-compared to offline
# scoring, cache accounting checked post-drain, and a generation-
# boundary epilogue proving no cache hit survives a reload. Invariant
# report written to chaos-report.json; any failure reproduces from the
# printed seed.
chaos:
	$(GO) run ./cmd/perfpredload -seed 7 -duration 30s -cache-entries 2048 -report chaos-report.json

# Gateway soak: the chaos run driven through the replicated topology —
# three daemons behind the cache-affine gateway, fault plans armed,
# one replica killed and restarted mid-schedule. The nightly workflow
# runs this for 5 minutes per seed; locally 60s is a solid smoke.
soak:
	$(GO) run ./cmd/perfpredload -seed 7 -duration 60s -gateway-replicas 3 -replica-kill -cache-entries 2048 -report soak-report.json

# Coverage summary for the core and serving packages (same profile the
# CI coverage job uploads as an artifact).
coverage:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/serve ./internal/core
	$(GO) tool cover -func=coverage.out

# Substrate micro-benchmarks only (full-fidelity figure regeneration is
# expensive; run those by name when needed).
bench-figures:
	$(GO) test -run xxx -bench 'PredictDataset|NeuralQuick|EstimateError|SimulateConfig' -benchmem .
