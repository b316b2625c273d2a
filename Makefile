# Convenience targets for the RIPPLE reproduction.

GO ?= go

# Pinned linter versions for CI (and for anyone running `make tools`).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test race test-race test-faults test-benchmark fuzz-smoke verify ripple-vet vet-sarif staticcheck govulncheck lint tools bench bench-smoke bench-compare examples results results-paper trace-demo clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Shuffled so accidental inter-test ordering dependencies surface instead of
# calcifying.
test:
	$(GO) test -shuffle=on ./...

# Race-detect the concurrency hot spots only (fast).
race:
	$(GO) test -race ./internal/netpeer/ .

# Race-detect everything; part of the verify flow.
test-race:
	$(GO) test -race ./...

# Seeded fault matrix: every fault-injection, replication, and recovery test
# re-runs under the race detector with several shuffle seeds, so scheduling-
# dependent failover bugs surface instead of hiding behind one lucky order.
# The matrix is two-dimensional since PR 7: each seed runs once per storage
# engine (RIPPLE_STORAGE=scan|rtree), so recovery and failover are exercised
# over the R-tree stores too, not just the flat-scan baseline.
FAULT_SEEDS   = 1 7 42
FAULT_ENGINES = scan rtree
FAULT_TESTS = 'Fault|Recover|Failover|Replica|Killed|Churn|Partial|Canonical|Storage'
FAULT_PKGS  = ./internal/faults/ ./internal/overlay/ ./internal/core/ \
              ./internal/netpeer/ ./internal/bench/ .

test-faults:
	@for eng in $(FAULT_ENGINES); do \
		for seed in $(FAULT_SEEDS); do \
			echo "== fault matrix: -race -shuffle=$$seed RIPPLE_STORAGE=$$eng =="; \
			RIPPLE_STORAGE=$$eng $(GO) test -race -shuffle=$$seed -run $(FAULT_TESTS) $(FAULT_PKGS) || exit 1; \
		done; \
	done

# Time-boxed fuzzing: every Fuzz* target runs for FUZZ_TIME on top of its
# committed seed corpus (testdata/fuzz/<Target>/ in its package). -fuzz
# accepts one target per invocation, hence one go test call each. A crasher
# is written into that corpus directory; commit it together with the fix.
# CI runs this as its own step, not inside verify.
FUZZ_TIME    = 15s
FUZZ_TARGETS = ./internal/wire/:FuzzDecodeCall ./internal/wire/:FuzzDecodeReply \
               ./internal/wire/:FuzzCodecs ./internal/wire/:FuzzMuxStream \
               ./internal/netpeer/:FuzzReadConfig ./internal/cache/:FuzzDecodeAnswers

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== fuzz $$name ($$pkg) for $(FUZZ_TIME) =="; \
		$(GO) test -run=NONE -fuzz="^$$name\$$" -fuzztime=$(FUZZ_TIME) $$pkg || exit 1; \
	done

# benchmark/ is a module of its own, so ./... never reaches it: this runs the
# harness's tests (-short skips the fleet smoke run). It is what catches a
# change to a surface benchmark/sut compiles against.
test-benchmark:
	$(GO) test -C benchmark -short ./...

# ripple-vet: the repository's own invariant checker (internal/lint). It
# enforces the determinism, aliasing, locking, deadline, failure-accounting,
# pool-hygiene, wire-order, lock-order, store-invalidation, and shutdown-
# coverage contracts documented in DESIGN.md §10, and exits non-zero on any
# finding (including stale //lint:ignore suppressions). The driver caches
# the `go list -export` package graph per process and analyses packages in
# parallel, so the whole-tree run stays a small fraction of verify.
ripple-vet:
	$(GO) run ./cmd/ripple-vet ./...

# Same gate, emitting a SARIF 2.1.0 log for CI artifact upload / code
# scanning. `|| true` would hide findings, so the target fails like
# ripple-vet does but still leaves the log behind for the upload step.
vet-sarif:
	@mkdir -p results
	$(GO) run ./cmd/ripple-vet -sarif ./... > results/ripple-vet.sarif

# staticcheck and govulncheck run when installed (CI installs the pinned
# versions; locally they are optional so the gate works offline).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (run 'make tools' to install $(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (run 'make tools' to install $(GOVULNCHECK_VERSION))"; \
	fi

# Install the pinned external linters (network required).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# All static analysis beyond the compiler: go vet runs in build; this adds
# the project-specific invariants and the external linters.
lint: ripple-vet staticcheck govulncheck

# The full pre-merge gate: build + go vet + ripple-vet + external linters +
# shuffled tests + the benchmark harness's own tests + full race sweep +
# seeded fault matrix + benchmark smoke (every benchmark must still compile
# and run one iteration).
verify: build lint test test-benchmark test-race test-faults bench-smoke

# One testing.B benchmark per paper table/figure plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# Run every benchmark once: catches benchmarks that rot (fail to compile or
# panic). It records nothing and gates no timing; performance is judged by
# the BENCHMARK.json fleet (bench-compare).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The judge of BENCHMARK.json against its committed baseline: all four
# workloads on real ripple-serve fleets, three runs each (about eight
# minutes), then one row per (workload, metric); exits 1 if any end-to-end
# metric regressed beyond its bound. Timings are only comparable on the box
# the baseline was taken on, so CI runs this as a non-blocking job.
bench-compare:
	bash benchmark/run.sh -workload all -runs 3 -out benchmark/out/compare.json
	bash benchmark/run.sh -compare benchmark/baseline/seed.json benchmark/out/compare.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hotels-skyline
	$(GO) run ./examples/photo-diversify
	$(GO) run ./examples/custom-query
	$(GO) run ./examples/distributed

# Render one query's hop tree on both runtimes, plus a lossy run: the same
# overlay, query and seed must produce structurally identical trees.
trace-demo:
	$(GO) run ./cmd/ripple-trace -peers 16 -query skyline -r 2 -initiator 7 -runtime engine
	$(GO) run ./cmd/ripple-trace -peers 16 -query skyline -r 2 -initiator 7 -runtime tcp
	$(GO) run ./cmd/ripple-trace -peers 16 -query skyline -r fast -initiator 7 -fault-drop 0.15

# Regenerate every figure at laptop scale into results/.
results:
	mkdir -p results
	$(GO) run ./cmd/ripple-bench -scale default | tee results/all.txt

# The published Table 1 configuration (very slow; serious hardware).
results-paper:
	mkdir -p results
	$(GO) run ./cmd/ripple-bench -scale paper | tee results/all-paper.txt

clean:
	rm -f test_output.txt bench_output.txt
