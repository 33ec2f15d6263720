# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Concurrency-sensitive packages that must stay race-clean. `make ci` and
# .github/workflows/ci.yml run exactly the same targets; the
# internal/ciparity test asserts the two lists cannot drift.
RACE_PKGS = ./internal/skyd/ ./internal/sim/ ./internal/metrics/ ./internal/cloudsim/ ./internal/router/ ./internal/chaos/ ./internal/faas/ ./internal/refresh/ ./internal/trace/ ./internal/admission/ ./internal/load/ ./internal/core/ ./internal/experiments/ ./internal/tenant/ ./internal/warmpool/

# Benchmark selection for `make bench` (regexp, per `go test -bench`).
# Example: make bench BENCH_PATTERN='RouteHotPath|ShardedMesh'
BENCH_PATTERN ?= .

# The benchmark-regression gate's subjects and baselines (see cmd/benchcheck
# and the README "Performance" section).
BENCH_GATE_PATTERN = BenchmarkRouteHotPath$$|BenchmarkShardedMesh$$|BenchmarkSkylintModule$$|BenchmarkWarmPoolTick$$
BENCH_BASELINES = -baseline BENCH_route.json -baseline BENCH_mesh.json -baseline BENCH_warmpool.json

.PHONY: all build vet fmt-check lint lint-fixtures test race ci smoke bench bench-check bench-baseline reproduce serve clean

all: build vet lint test

ci: build vet fmt-check lint test race smoke bench-check

# One reduced pass over every registered experiment (table1, EX-1..EX-11):
# proves each composes end to end outside the test harness.
smoke:
	$(GO) run ./cmd/skybench -ex all -scale reduced

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (determinism & concurrency invariants);
# see internal/lint and the README "Static analysis" section. Findings are
# mirrored into lint_findings.json for CI archival, and under GitHub
# Actions skylint emits ::error workflow commands so findings land as
# inline PR annotations.
lint:
	$(GO) run ./cmd/skylint -json lint_findings.json ./...

# Just the analyzer golden tests (fixture module, //want markers) — the
# fast inner loop when developing a lint rule. -short skips the repo-wide
# type-check that the full `go test ./internal/lint/` also performs.
lint-fixtures:
	$(GO) test -short ./internal/lint/ ./cmd/skylint/

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem ./...

# Benchmark-regression gate: run the routing/mesh microbenchmarks a few
# times and compare every reported metric against the checked-in baselines
# (±25% drift tolerance; 0 allocs/op baselines are exact). The bench output
# is kept in a file so a go test failure isn't masked by the pipe.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -benchtime 3x -benchmem . ./internal/router/ ./internal/warmpool/ > bench_check_output.txt || (cat bench_check_output.txt; exit 1)
	$(GO) run ./cmd/benchcheck $(BENCH_BASELINES) bench_check_output.txt

# Refresh the gate baselines in place (run on the benchmark machine after a
# deliberate performance change; review the diff like any other).
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -benchtime 3x -benchmem . ./internal/router/ ./internal/warmpool/ > bench_check_output.txt || (cat bench_check_output.txt; exit 1)
	$(GO) run ./cmd/benchcheck -update $(BENCH_BASELINES) bench_check_output.txt

# Regenerate every paper table/figure at full scale (writes data/*.csv).
reproduce:
	$(GO) run ./cmd/skybench -ex all -csvdir data | tee skybench_full.txt

serve:
	$(GO) run ./cmd/skyd -addr 127.0.0.1:8080

# Remove generated outputs only. data/ holds the checked-in fig*.csv
# reproduction artifacts (refreshed in place by `make reproduce`), so it
# must survive a clean.
clean:
	rm -f skybench_full.txt test_output.txt bench_output.txt bench_check_output.txt lint_findings.json
