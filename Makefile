# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test check lint lint-sarif chaos fuzz soak bench bench-json bench-check perfbench-check repro repro-full repro-check examples clean

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

# soak runs the chaos soak harness (cmd/soak, the repo's one soak rig)
# under the race detector against the replicated cluster topology — a
# coordinator like serpd -shards, scatter-gathering over 3 in-process shards
# x 2 replicas — through a multi-phase fault schedule that includes a
# deterministic 26-hour outage of replica 0 on every shard, asserting the
# overload-resilience invariants (no deadlock, breakers re-close, shed
# fraction within budget, zero terminal failures) plus the replication
# invariants (zero partial pages — failover absorbs every replica fault —
# background health probes re-admit the replicas, breaker ledger
# balanced), and writing the full span timeline to soak-trace.json. It
# also asserts the trace-stitching invariants (every sampled request
# stitches completely, fault attribution matches the schedule) and
# exports the post-campaign probes' stitched critical-path reports and
# multi-process Chrome trace. Graded degradation to partial pages, when
# every replica of a shard is down, is TestClusterPartialDegradation in
# internal/router.
soak:
	go run -race ./cmd/soak -trace-out soak-trace.json \
		-clustertracez-out soak-clustertracez.json -cluster-trace-out soak-cluster-trace.json

# chaos runs the fault-injection suite under the race detector: chaos
# transport/middleware, retry classification, the fetch policy's
# validation (TestPolicyValidate, TestNewRejectsInvalidFetchPolicy),
# failure budgets, checkpoint resume, and the circuit breaker both ends of
# the wire share (internal/breaker, whose TestBreakerProbeElection is the
# test that needs -race: 32 goroutines race for one half-open probe slot)
# with the browser's pinned breaker timeline (see docs/RELIABILITY.md).
chaos:
	go test -race -run 'Chaos|Retry|Policy|FailSoft|FailureBudget|Resume|Transient|SearchContext|Breaker' \
		./internal/breaker/ ./internal/browser/ ./internal/crawler/ ./internal/serpserver/

# fuzz runs each fuzz target for 20 s, one after another (go test -fuzz
# takes one target per run):
# - FuzzShardReply, the shard reply frame decoder (internal/router/frame.go),
#   which reads untrusted bytes off the wire: no input may panic it, every
#   frame it accepts must re-encode to the identical bytes, and every doc ID
#   it accepts must index the corpus table.
# - FuzzShardSearch, a spans-enabled shard node's /shard/search
#   (internal/router/shard.go): for any raw query and any X-Deadline-Ms,
#   X-Trace-Attempt and X-Parent-Span values it must not panic and must
#   answer 200, 400 or 503, and every 200 must be one frame that decodes
#   against the node's table, echoes its shard, replica and fingerprint,
#   and carries at most 512 hits.
# - FuzzSearch, /search on a handler recording spans and wide events
#   (internal/serpserver): for any raw query (q=, ll=, format=) and any
#   User-Agent, SID cookie, X-Datacenter, X-Deadline-Ms, X-Trace-Id and
#   X-Trace-Attempt values it must not panic and must answer 200, 400, 429
#   or 503; a format=json 200 must decode, any other 200, whatever its
#   User-Agent, must parse, be RenderHTML of what it parses to and carry its
#   length as Content-Length, and the request's engine.* spans and
#   search.wide stages must be one prefix of the engine's stage table, all
#   six on a 200.
# - FuzzComparePages, the page-comparison kernel (internal/metrics): fresh
#   and reused comparers must match Jaccard and EditDistance on the pages'
#   extracted URL lists.
# - FuzzParseHTML, the one HTML parser (internal/serp): no document may
#   panic it, and every page it accepts must survive RenderHTML and
#   ParseHTML unchanged.
# - FuzzPlacesNear, the Places lookup (internal/webcorpus): no coordinate may
#   panic it, an invalid point gets nil, and a valid one the full-rectangle
#   scan over the fmt-built reference generator, cold and warm.
# - FuzzRenderHTML, the page renderers (internal/serp): for any query,
#   location, datacenter, day and card stack, the page, appended after a
#   prefix, must be the fmt-built reference renderer's bytes.
# - FuzzParsePoint, the ll= parameter (internal/geo): no input may panic
#   ParsePoint, an accepted point is valid and survives String and
#   ParsePoint, and String is "%.6f,%.6f" for any float64 pair.
# - FuzzDeadline, the X-Deadline-Ms codec (internal/httpheader): no value
#   may panic Deadline, a deadline is read exactly from a positive base-10
#   int64, and SetDeadline writes back what Deadline reads.
# - FuzzSpanz, the /spanz span export (internal/telemetry): FetchSpanz over
#   fuzzed pages never panics or refetches a page that ends the fetch, and
#   SpanzHandler answers any cursor and limit with a 400 or SnapshotRange's
#   page. A run takes a few hundred µs through net/http, so a new input is
#   minimized for at most 1 s; the default 60 s would spend the budget.
# - FuzzClusterTracez, the coordinator's /clustertracez (internal/router)
#   over fuzzed shard /spanz pages, raw queries (trace=, limit=, format=)
#   and Accept headers: no panic, 400 exactly for a limit that is not a
#   non-negative integer and 200 otherwise, a JSON 200 decodes and with
#   trace= holds only that trace and no nodes block, and a format=chrome
#   200 is valid JSON. Its inputs go through net/http too, so it gets the
#   same 1 s minimization.
# - FuzzStatz, the campaign's /statz (internal/statz) over fuzzed raw
#   queries (sweep=, format=) and Accept headers: no panic, 200, 400 or 404
#   only, a JSON 200 decodes as a Snapshot, and sweep=N answers 200 exactly
#   when N lies within the X-Statz-Ring bounds, with SweepJSON(N)'s bytes.
# - FuzzSearchContext, the browser's response path (internal/browser): one
#   SearchContext against a server answering fuzzed statuses, Retry-After,
#   Content-Length and bodies, under a fuzzed policy, on a clock that
#   records its sleeps: no panic, at most Attempts + 8 shed retries reach
#   the server, no wait exceeds the larger of the 5-minute Retry-After cap
#   and the policy's own backoff and breaker cooldown, and the clock never
#   passes a policy deadline. Its inputs go through net/http, so it gets
#   the same 1 s minimization.
fuzz:
	go test -run '^$$' -fuzz '^FuzzShardReply$$' -fuzztime 20s ./internal/router
	go test -run '^$$' -fuzz '^FuzzShardSearch$$' -fuzztime 20s ./internal/router
	go test -run '^$$' -fuzz '^FuzzSearch$$' -fuzztime 20s ./internal/serpserver
	go test -run '^$$' -fuzz '^FuzzComparePages$$' -fuzztime 20s ./internal/metrics
	go test -run '^$$' -fuzz '^FuzzParseHTML$$' -fuzztime 20s ./internal/serp
	go test -run '^$$' -fuzz '^FuzzPlacesNear$$' -fuzztime 20s ./internal/webcorpus
	go test -run '^$$' -fuzz '^FuzzRenderHTML$$' -fuzztime 20s ./internal/serp
	go test -run '^$$' -fuzz '^FuzzParsePoint$$' -fuzztime 20s ./internal/geo
	go test -run '^$$' -fuzz '^FuzzDeadline$$' -fuzztime 20s ./internal/httpheader
	go test -run '^$$' -fuzz '^FuzzSpanz$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/telemetry
	go test -run '^$$' -fuzz '^FuzzClusterTracez$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/router
	go test -run '^$$' -fuzz '^FuzzStatz$$' -fuzztime 20s ./internal/statz
	go test -run '^$$' -fuzz '^FuzzSearchContext$$' -fuzztime 20s -fuzzminimizetime 1s ./internal/browser

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

# repro-check runs the paper-scale campaign and compares what repro -full
# prints, byte for byte, with docs/full_repro_output.txt, the one committed
# file that holds every line repro prints at that scale (~40 s on 2 vCPUs).
# Like the page and figure goldens it holds on amd64 below GOAMD64=v3 only:
# elsewhere the compiler may fuse x*y+z into one FMA instruction, and a
# 1-ULP score difference can reorder near-tied results.
repro-check:
	go run ./cmd/repro -full > repro_full_output.txt
	cmp repro_full_output.txt docs/full_repro_output.txt

examples:
	go run ./examples/quickstart
	go run ./examples/noiseaudit
	go run ./examples/geosweep
	go run ./examples/filterbubble
	go run ./examples/customworld
	go run ./examples/ipmethodology

clean:
	rm -f campaign.jsonl test_output.txt bench_output.txt bench_check_output.txt trace.json \
		soak-trace.json soak-clustertracez.json soak-cluster-trace.json repro_full_output.txt
