GO ?= go

.PHONY: all build test vet race bench bench-smoke bench-loadgen bench-obs bench-batch bench-net bench-shard bench-shard-smoke bench-trace bench-quorum bench-quorum-smoke profile-net check-obs-imports check-allocs check-admin fuzz-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke runs every benchmark for a single iteration — a fast compile-
# and-run sanity pass, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-loadgen is a short closed-loop data-plane smoke run (see README
# "Load generator"): it proves cmd/loadgen completes a mixed
# read/partial-write run on both data planes, not a measurement — the
# in-process sim, then three spawned daemons over TCP under SIGKILL churn,
# which fails on any one-copy serializability violation. Full methodology
# in BENCH_2.json.
bench-loadgen:
	$(GO) run ./cmd/loadgen -duration 1s -items 8 -workers 4 -disjoint
	$(GO) run ./cmd/loadgen -net tcp -nodes 3 -items 2 -workers 4 -duration 2s -churn 500ms

# bench produces benchstat-comparable numbers for the tracked hot paths
# (see README "Benchmarks" for methodology).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTable1Dynamic|BenchmarkSimAvailability' -benchmem -count=5 -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkQuorumMessages' -benchmem -count=5 -benchtime=50x .

# The bench-* targets run suites of the one benchmark driver,
# scripts/bench: each builds cmd/loadgen once, keeps every cell's best
# trial, and writes BENCH_<suite>.json with a stamp (commit, Go version,
# NumCPU), the kept cells and a gates array. A gate marked fatal exits 1
# on a miss; any other miss warns. -smoke variants write no file.

# bench-obs measures the observability overhead — loadgen with the full
# registry + flight recorder vs obs.Nop, at GOMAXPROCS=1 and 4 — and writes
# BENCH_obs.json. The budget is 5% (DESIGN.md §7); a miss warns.
bench-obs:
	$(GO) run ./scripts/bench -suite obs

# bench-batch measures the group-commit write pipeline — loadgen with
# batching off vs on, contended and disjoint, at GOMAXPROCS=1 and 4 — and
# writes BENCH_batch.json. Gate: >= 1.5x contended at GOMAXPROCS=4; a miss
# warns (DESIGN.md §8).
bench-batch:
	$(GO) run ./scripts/bench -suite batch

# bench-net measures the networked hot path — tcp-pipelined loadgen vs the
# BENCH_5 baseline, a 1->4 core scaling curve at 8 workers per core, a
# crash/recovery churn run, and a sim run for the sim-vs-TCP gap — and
# writes BENCH_net.json. Gates: >= 3x BENCH_5 tcp-pipelined ops/sec at
# GOMAXPROCS=1 and monotone non-decreasing scaling (misses warn), zero
# one-copy violations under churn (fatal; DESIGN.md §10, EXPERIMENTS.md
# BENCH_6).
bench-net:
	$(GO) run ./scripts/bench -suite net

# bench-shard measures the horizontally sharded data plane — a million-key
# Zipfian sweep over 4 daemons with stride-sampled one-copy checking, an
# unsharded-vs-sharded throughput comparison on the same hardware, and a
# hedged-reads run against a deliberately slow daemon — and writes
# BENCH_shard.json. Gates, all fatal: full keyspace coverage with zero
# violations, >= 1.8x sharded speedup, >= 30% read-p99 cut from hedging
# (DESIGN.md §11, EXPERIMENTS.md BENCH_7).
bench-shard:
	$(GO) run ./scripts/bench -suite shard

# bench-shard-smoke is the CI-sized version: a 2000-key sweep plus the
# hedging section, gating coverage, zero violations and the p99 cut; no
# report file.
bench-shard-smoke:
	$(GO) run ./scripts/bench -suite shard -smoke

# bench-trace measures the observability-plane overhead on the networked
# data path — sharded TCP loadgen dark vs with per-daemon admin endpoints,
# 1-in-16 trace sampling and the post-run cluster scrape — plus a hedged
# run that must produce non-zero hedge-attribution counters, and writes
# BENCH_trace.json. Gates: <= 2% overhead, non-zero hedge counters; misses
# warn (DESIGN.md §12).
bench-trace:
	$(GO) run ./scripts/bench -suite trace

# bench-quorum measures the quorum strategies (hint / load / optimized) —
# a strategy x workload loadgen matrix (uniform / zipf / slow-member /
# 95%-read) at GOMAXPROCS=4 plus the predicted-vs-measured availability
# table at the paper's Table 1 operating point — and writes
# BENCH_quorum.json. Gates: optimized >= 1.15x load-aware ops/sec under
# tail injection at equal-or-better read p99; optimized read p99 <= 0.8x
# load-aware's on the 95/5 mix. Misses warn here and are fatal in the
# smoke run (DESIGN.md §13, EXPERIMENTS.md BENCH_9).
bench-quorum:
	$(GO) run ./scripts/bench -suite quorum

# bench-quorum-smoke is the CI-sized version: only the two gated
# scenarios over the strategies the gates compare (load, optimized), with
# a short availability horizon and no report file; fails on a gate miss.
bench-quorum-smoke:
	$(GO) run ./scripts/bench -suite quorum -smoke

# check-admin smokes the admin plane: an in-process 3-daemon cluster with
# admin endpoints, fully-sampled client traffic, every route on every
# daemon, and an aggregator timeline that spans more than one node.
check-admin:
	$(GO) run ./scripts/checkadmin

# profile-net captures a CPU profile of the networked hot path: a
# tcp-pipelined loadgen run serves pprof on 127.0.0.1:6161 (its daemons'
# admin planes on 6162+) and the client process is sampled mid-run. The flat top lands on
# stdout; the raw profile stays under $$HOME/pprof for `go tool pprof`.
profile-net:
	$(GO) build -o /tmp/coterie-loadgen ./cmd/loadgen
	/tmp/coterie-loadgen -duration 18s -nodes 3 -items 8 -workers 8 -disjoint \
		-read-frac 0.5 -net tcp -pprof 6161 >/dev/null & \
	sleep 3 && $(GO) tool pprof -top -nodecount 25 \
		-seconds 10 http://127.0.0.1:6161/debug/pprof/profile; wait

# check-allocs runs the steady-state allocation gates: the combiner's
# submit/drain machinery, the batched-propagation capture path, the mux
# dispatch and wire encode hot paths, the tcpnet frame codec, and the
# weighted quorum pick (alias-table sampling in coterie and the
# coordinator's pick wrapper) must not allocate per operation (they gate
# with testing.AllocsPerRun and skip themselves under -race).
check-allocs:
	$(GO) test -run 'TestCombinerDrainDoesNotAllocate' ./internal/core/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestCaptureDataDoesNotAllocate' ./internal/replica/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestMuxDispatchDoesNotAllocate|TestMulticastFuncAllocs' ./internal/transport/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestAppendMarshalDoesNotAllocate|TestAppendTraceContextDoesNotAllocate|TestDecodeTraceContextDoesNotAllocate' ./internal/wire/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestRequestFrameEncodeDoesNotAllocate|TestReplyFrameEncodeDoesNotAllocate|TestFusedMessageEncodeDoesNotAllocate|TestRingFlushPathDoesNotAllocate|TestTracedRequestFrameEncodeDoesNotAllocate' ./internal/transport/tcpnet/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestZipfNextDoesNotAllocate|TestMixNextDoesNotAllocate' ./internal/workload/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestShardOfDoesNotAllocate' ./internal/placement/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestAliasPickAllocs' ./internal/coterie/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1
	$(GO) test -run 'TestOptimizedPickAllocs' ./internal/core/ -v -count=1 | grep -E 'PASS|FAIL|allocates' || exit 1

# fuzz-smoke runs the wire-layer fuzzers briefly: every generated input
# must either fail to decode or round-trip byte-identically (the canonical-
# encoding property the propagation and client paths rely on), for the
# message codec, the trace-context field, and the full TCP request frame.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshal' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceContext' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzParseRequest' -fuzztime 5s ./internal/transport/tcpnet/

# check-obs-imports enforces the obs data-plane discipline: internal/obs
# must not import fmt, log, os, io or encoding packages — formatting and
# exposition live in internal/obs/expose.
check-obs-imports:
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/obs | grep -Ex 'fmt|log|os|io|encoding(/.*)?' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal/obs imports forbidden data-plane packages:"; echo "$$bad"; exit 1; \
	fi; \
	echo "check-obs-imports: internal/obs is clean"

ci: vet build check-obs-imports check-allocs check-admin fuzz-smoke race bench-smoke bench-loadgen bench-obs bench-batch bench-net bench-shard-smoke bench-quorum-smoke
