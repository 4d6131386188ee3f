GO ?= go

.PHONY: all build test race fuzz-smoke size vet fmt-check bench-module bench bench-pool bench-hit bench-obs tables golden chaos scenarios check

all: check

build:
	$(GO) build ./...

## test: the plain suite. The explicit -timeout turns a hung lifecycle
## path (a scrubber that never stops, a waiter that never wakes) into a
## stack-dumping failure instead of a stuck CI job.
test:
	$(GO) test -timeout 300s ./...

## race: the standard concurrency gate — the full suite under the race
## detector (includes the pool, replacer and disk stress tests).
race:
	$(GO) test -race -timeout 600s ./...

## fuzz-smoke: ten seconds of each replacement fuzz target — LRUK against
## the Figure 2.1 transcription, and Replacer and SyncReplacer against the
## brute-force replacer over pin/unpin/evict/restore streams at a fuzzed
## seed, K, CRP and RIP, both ending in the victim-index invariant check;
## then the A0 and Belady oracles against their linear-scan transcriptions
## at a fuzzed stream, capacity and β vector; then the B-tree builder
## against a map at a fuzzed fanout and frame count over ascending keys at
## fuzzed gaps, packed after every one, mixed with keys at or below the last
## one that it must refuse unchanged (go test takes one -fuzz target per
## run, hence four). Minimizing a new interesting input is capped at 100
## runs: Go's default allows 60 s per input, which left two targets reading
## 0 execs/sec for most of their 10 s budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLRUKMatchesFigure21 -fuzztime 10s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzReplacersMatchBruteForce -fuzztime 10s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzOraclesMatchBruteForce -fuzztime 10s -fuzzminimizetime 100x ./internal/policy/
	$(GO) test -run '^$$' -fuzz FuzzTreeMatchesSortedMap -fuzztime 10s -fuzzminimizetime 100x ./internal/btree/

## size: Go line counts — root module non-test, root module test, the
## nested bench/ module, and the daemon's closure (the non-test lines of
## every module package cmd/lrukd links) — the figures re-anchors and "net
## lines go down" criteria quote, then the five largest non-test files ("no
## file over N lines" is this one command).
size:
	@count() { find . -name '*.go' "$$@" -print0 | xargs -0 cat | wc -l; }; \
	echo "non-test $$(count -not -name '*_test.go' -not -path './bench/*')"; \
	echo "test     $$(count -name '*_test.go' -not -path './bench/*')"; \
	echo "bench    $$(count -path './bench/*')"; \
	echo "lrukd    $$($(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/lrukd | xargs cat | wc -l)"; \
	find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | \
		xargs -0 wc -l | grep -v ' total$$' | sort -n | tail -5

vet:
	$(GO) vet ./...

## fmt-check: fail if any file is not gofmt-clean (lists the offenders).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

## bench-module: vet and test the benchmark in bench/. It is a nested
## module (root `./...` patterns skip it) that builds layers below db
## directly in bench/probes.go, so a constructor or signature change that
## breaks it fails here, not at the next benchmark run.
bench-module:
	$(GO) -C bench vet .
	$(GO) -C bench test -timeout 300s .

## bench: the repo-root benchmarks — per-reference policy cost, the TPC-A
## ablation and BudgetedLRUK — then BenchmarkLoadCustomers, the set-up cost
## (Open plus the 20,000-customer load at 404 frames), and
## BenchmarkDurableSetup, the durable set-up (a fresh file store, 600
## customers at 404 frames, the first FlushAll) with its wal_fsyncs/op. The
## set-ups run 8 times each: the first pays the page faults of freshly
## mapped arena chunks (the disk's pages and the pool's frames), later ones
## reuse them, as the benchmark's setup_s
## (the quickest of its set-ups) does. -cpu 1,2 runs each set-up at
## GOMAXPROCS 1 and 2, so the load's heap page writes are timed on one
## worker and on two, side by side. The paper's tables are golden files,
## not benchmarks (see golden).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench 'BenchmarkLoadCustomers|BenchmarkDurableSetup' -benchtime 8x -cpu 1,2 -run '^$$' ./internal/db/

## bench-pool: Serial reference pool vs the concurrent Pool, scalability.
bench-pool:
	$(GO) test -bench BenchmarkPoolParallel -run '^$$' ./internal/bufferpool/

## bench-hit: the resident-hit-path regression gate — runs the pool's hit
## loop via testing.Benchmark and fails if a hit allocates, if ns/op
## exceeds the ceiling, or if it costs more than 0.8 of the Serial
## reference pool's (DESIGN.md §14); -v prints the measured figures.
bench-hit:
	$(GO) test -count=1 -run TestHitPathCeiling -v ./internal/bufferpool/

tables:
	$(GO) run ./cmd/tables

## golden: rewrite testdata/*.golden, the reduced-scale paper tables the
## root package's TestExperiment* tests compare byte for byte. Only after a
## deliberate change in replacement decisions, and say why in CHANGES.md.
golden:
	$(GO) test -count=1 -run 'TestExperiment' -update .

## chaos: the seeded disk-fault storm against the concurrent pool, under
## the race detector (DESIGN.md §9); then, 20 times each under -race, the
## three write-backs that race in-place updates — a FlushAll loop, the
## scrubber's forced rewrite and a FLUSH over the wire — each of which
## must write every record whole (DESIGN.md §8, the frame latch). Race
## builds keep page memory (frames and simulated-disk pages) on the Go heap
## (internal/storage/arena_race.go): the detector checks only heap
## addresses, so that is why these runs still see races on frame bytes.
chaos:
	$(GO) vet ./internal/bufferpool/
	$(GO) test -race -count=1 -timeout 300s -run TestChaosFaultStorm -v ./internal/bufferpool/
	$(GO) test -race -count=20 -timeout 300s -run 'RacingUpdates?WritesWholeRecords' ./internal/db/
	$(GO) test -race -count=20 -timeout 300s -run '^TestFlushBarrier$$' ./internal/server/

## bench-obs: hot-path cost of one counter increment plus one histogram
## observation, enabled vs disabled (DESIGN.md §12 quotes the numbers).
bench-obs:
	$(GO) test -bench BenchmarkObs -run '^$$' ./internal/obs/

## scenarios: the process-level proofs on their own, one PASS/FAIL line
## each — real lrukd processes booted, loaded, SIGKILLed, bit-rotted and
## rebalanced, every one held to the same invariant list (DESIGN.md §7).
## They also ride in `test` and, against race-built daemons, in `race`.
scenarios:
	$(GO) test -count=1 -v ./scenario/

## check: the gate. vet and the two test runs each compile every package,
## so there is no separate build step.
check: fmt-check vet test race fuzz-smoke bench-module bench-hit
