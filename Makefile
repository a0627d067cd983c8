# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test check lint lint-sarif chaos fuzz soak soak-legacy soak-mono bench bench-json bench-check perfbench-check repro repro-full examples clean

all: build vet test

# check is the CI gate: formatting, vet, the project linter, build, and
# the full suite under the race detector (the telemetry layer is
# lock-free by design — prove it).
check: lint
	go build ./...
	go test -race ./...

# lint runs gofmt, go vet, and geoserplint — the project analyzer suite
# that machine-enforces the determinism, clock, concurrency, and span
# invariants (docs/LINTING.md). Any finding, or any stale //lint:allow,
# fails. `make lint-sarif` writes the same findings as a SARIF 2.1.0 log
# (lint.sarif) for code-scanning uploads; CI publishes it on every run.
lint:
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	go run ./cmd/geoserplint ./...

lint-sarif:
	go run ./cmd/geoserplint -format sarif ./... > lint.sarif || true
	@echo "wrote lint.sarif"

# soak runs the chaos soak harness under the race detector against the
# full replicated cluster topology — a serprouter-style coordinator
# scatter-gathering over 3 in-process shards x 2 replicas — through a
# multi-phase fault schedule that includes a deterministic 26-hour outage
# of replica 0 on every shard, asserting the overload-resilience
# invariants (no deadlock, breakers re-close, shed fraction within
# budget, zero terminal failures) plus the replication invariants (zero
# partial pages — failover absorbs every replica fault — background
# health probes re-admit the replicas, breaker ledger balanced), and
# writing the full span timeline to soak-trace.json. Cluster runs
# additionally assert the trace-stitching invariants (every sampled
# request stitches completely, fault attribution matches the schedule)
# and export the post-campaign probes' stitched critical-path reports and
# multi-process Chrome trace. `make soak-legacy` runs the single-replica
# cluster (whole-day shard-0 outage, graded degradation to partial
# pages); `make soak-mono` keeps the original single-node rig.
soak:
	go run -race ./cmd/soak -cluster-shards 3 -trace-out soak-trace.json \
		-clustertracez-out soak-clustertracez.json -cluster-trace-out soak-cluster-trace.json

soak-legacy:
	go run -race ./cmd/soak -cluster-shards 3 -cluster-replicas 1 -trace-out soak-trace.json \
		-clustertracez-out soak-clustertracez.json -cluster-trace-out soak-cluster-trace.json

soak-mono:
	go run -race ./cmd/soak -trace-out soak-trace.json

# chaos runs the fault-injection suite under the race detector: chaos
# transport/middleware, retry classification, failure budgets, and
# checkpoint resume (see docs/RELIABILITY.md).
chaos:
	go test -race -run 'Chaos|Retry|FailSoft|FailureBudget|Resume|Transient|SearchContext' \
		./internal/browser/ ./internal/crawler/ ./internal/serpserver/

# fuzz runs each fuzz target for 20 s, one after another (go test -fuzz
# takes one target per run):
# - FuzzShardReply, the shard reply frame decoder (internal/router/frame.go),
#   which reads untrusted bytes off the wire: no input may panic it, every
#   frame it accepts must re-encode to the identical bytes, and every doc ID
#   it accepts must index the corpus table.
# - FuzzComparePages, the page-comparison kernel (internal/metrics): fresh
#   and reused comparers must match Jaccard and EditDistance on the pages'
#   extracted URL lists.
# - FuzzParseHTML, the crawler's HTML parser (internal/serp): no document may
#   panic it, and every page it accepts must re-render and re-parse unchanged.
fuzz:
	go test -run '^$$' -fuzz '^FuzzShardReply$$' -fuzztime 20s ./internal/router
	go test -run '^$$' -fuzz '^FuzzComparePages$$' -fuzztime 20s ./internal/metrics
	go test -run '^$$' -fuzz '^FuzzParseHTML$$' -fuzztime 20s ./internal/serp

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-output:
	go test ./... 2>&1 | tee test_output.txt

bench:
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# bench-json runs the benchmarks and writes machine-readable results to
# BENCH_core.json (name -> ns/op, B/op, allocs/op; sorted keys, so
# successive runs diff cleanly). It runs them at the iteration count
# bench-check runs at: a benchmark that carries one-time setup (the lazily
# generated Places cells of AblationWidePlaces, for one) amortizes it over
# b.N, so its allocs/op compares only at equal counts. Override BENCHTIME
# for a quick smoke:
#   make bench-json BENCHTIME=10x
BENCHTIME ?= $(CHECK_BENCHTIME)
bench-json:
	go test -bench=. -benchmem -benchtime=$(BENCHTIME) -run='^$$' -timeout 30m ./... 2>&1 | tee bench_output.txt
	go run ./cmd/benchjson -in bench_output.txt -out BENCH_core.json

# bench-check is the benchmark regression gate: it re-runs the benchmarks
# briefly and fails when any allocs/op or B/op exceeds the committed
# BENCH_core.json baseline beyond tolerance. Allocation metrics are
# machine-independent, so the committed baseline holds on any hardware;
# wall-time gating stays opt-in (benchjson -check-ns). After an
# intentional perf change, regenerate the baseline with `make bench-json`
# and commit the diff. 1000x keeps one-time setup well amortized (at 100x
# the RunParallel benchmarks over-report allocs/op). At 1000x a run takes
# ~3.5-4.5 minutes on a 2-vCPU host, ~3 of them in the root package
# (BenchmarkStorageRoundTrip ~1.4, BenchmarkScorecardFigures ~0.9); both
# targets pass -timeout 30m so a slower host stays clear of go test's
# 10-minute per-package default.
CHECK_BENCHTIME ?= 1000x
bench-check:
	go test -bench=. -benchmem -benchtime=$(CHECK_BENCHTIME) -run='^$$' -timeout 30m ./... 2>&1 | tee bench_check_output.txt
	go run ./cmd/benchjson -in bench_check_output.txt -check BENCH_core.json

# perfbench-check compiles the end-to-end benchmark, a nested module
# (geoserp/perfbench) that imports this one through a replace directive
# and that no other target builds: vet, tests and geoserplint, then a
# 2-second traced run of each workload, which fails unless its JSON result
# line reports "correct":true (every check passed, every page was right).
perfbench-check:
	cd perfbench && go vet ./... && go test ./... && go run geoserp/cmd/geoserplint ./...
	@for w in mono-local cluster-news campaign; do \
		out="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 | tail -n 1)"; \
		echo "$$w: $$out"; \
		case "$$out" in *'"correct":true'*) ;; *) echo "perfbench $$w: not correct"; exit 1;; esac; \
	done

repro:
	go run ./cmd/repro

repro-full:
	go run ./cmd/repro -full -extended

examples:
	go run ./examples/quickstart
	go run ./examples/noiseaudit
	go run ./examples/geosweep
	go run ./examples/filterbubble
	go run ./examples/customworld
	go run ./examples/ipmethodology

clean:
	rm -f campaign.jsonl test_output.txt bench_output.txt bench_check_output.txt trace.json \
		soak-trace.json soak-clustertracez.json soak-cluster-trace.json
