GO ?= go

.PHONY: build vet test race race-core invariants serve-stress prefetch-stress tier-stress wire-stress fuzz-smoke serve-demo shard-demo stream-demo tier-demo bench bench-baseline bench-check check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy packages only — the CI race job. The serve tree
# is spelled out so the load generator stays covered even if the packages
# are ever reorganised.
race-core:
	$(GO) test -race ./internal/runtime/... ./internal/cache ./internal/p2f/... ./internal/fault/... ./internal/pq/... ./internal/lfht/... ./internal/serve ./internal/serve/loadgen ./internal/store ./internal/shard ./internal/stream ./internal/ckpt

# The P²F soundness suite under the race detector at several GOMAXPROCS
# values: the gate property and the random-trace invariant, the queue
# scan's self-healing below a raised lower bound (Top and ProcessBatch),
# the flush-before-dequeue protocol, concurrent queue and hash-table
# stress (single-winner and build-once GetOrInsert), the in-flight
# floor, the priority ring's slot recycling (wraps, and inserts,
# drainers and deletes racing a retire), and the ∞ slot's reset in place
# (inserts, deletes and drains racing a reset; a never-draining ∞ stays
# bounded).
invariants:
	$(GO) test -race -cpu 1,2,4 -count=3 \
		-run 'TestGatePropertyQuick|TestInvariantHoldsUnderRandomTraces|TestTopSelfHeals|TestProcessBatch|TestQueueConcurrentStress|TestConcurrent|TestGetOrInsertConcurrent|TestInFlight|TestRing|TestInfSlot' \
		./internal/pq ./internal/lfht ./internal/p2f

# The lookahead-prefetch suite under the race detector at several
# GOMAXPROCS values: window-pin blockades with 4 trainers, 4 prefetchers
# and the flusher pool running concurrently, prefetch on/off determinism,
# the fill tag against a racing flush, and the pin bookkeeping in the
# cache package.
prefetch-stress:
	$(GO) test -race -cpu 1,2,4 -count=3 -v \
		-run 'TestPrefetch|TestWindowPin|TestEpochAndWindowPins' \
		./internal/runtime ./internal/cache

# The tiered-slab suite under the race detector: a cold-tier training
# run with concurrent readers and the gate invariant checked every step,
# plus the tier round-trip and delta-log reconstruction tests.
tier-stress:
	$(GO) test -race -count=1 -v \
		-run 'TestTier|TestColdTier|TestCaptureRestoreRow|TestFollowerTieredLog' \
		./internal/runtime ./internal/ckpt ./internal/serve

# The overload-control suite under the race detector: open-loop shedding,
# the hot-key refresh storm, admission semantics, and the server
# shutdown goroutine-leak check. Then, at GOMAXPROCS 1, 2 and 4: the
# consistency resolver's matrix (lookup and top-K candidate on every
# store kind at every level), the follower suite, the log replayer's
# reconstruction, compaction and salvage tests, and a stream whose log
# and follower must keep every row's version.
serve-stress:
	$(GO) test -race -count=1 -v \
		-run 'TestOpenLoopOverloadSheds|TestRefreshStormCoalesces|TestEngineShedsUnderHeldCapacity|TestAdmission|TestHTTPServerShutdownNoLeak|TestFlushKeySharedCoalesces' \
		./internal/serve ./internal/serve/loadgen ./internal/p2f
	$(GO) test -race -cpu 1,2,4 -count=1 \
		-run 'TestResolverMatrix|TestFollower|TestReconstruct|TestWriterCompaction|TestTieredWriterCompaction|TestSalvage|TestStreamJobLogKeepsVersions' \
		./internal/serve ./internal/ckpt .

# The batched wire training path under the race detector at several
# GOMAXPROCS values: frames per worker-step and per flusher batch over
# two loopback shards, a slow shard holding flusher batches in flight
# with the gate invariant checked every step, the in-flight floor unit
# tests, sharded serve-while-training with its staleness pair, a serve
# engine over one in-process shard node, and the cluster dial's
# topology check.
wire-stress:
	$(GO) test -race -cpu 1,2,4 -count=3 \
		-run 'TestWireTrainFrameCounts|TestSlowShardGate|TestUncoordinatedScatterSkipsIdleShards|TestInFlight|TestShardedServeWhileTraining|TestShardedStalenessSamplesWatermarkFirst|TestEngineOverNode|TestDialShardedRefusesMisorderedAddrs' \
		./internal/shard ./internal/p2f ./internal/serve ./internal/store

# A short smoke of every fuzzer: 20s each on top of its seed corpus.
# go test fuzzes one target per call, hence one line per fuzzer.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime=20s ./internal/runtime
	$(GO) test -run '^$$' -fuzz '^FuzzReadKeyTrace$$' -fuzztime=20s ./internal/data
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundtrip$$' -fuzztime=20s ./internal/data
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime=20s ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentRead$$' -fuzztime=20s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzMetaRead$$' -fuzztime=20s ./internal/ckpt

# Train a small checkpoint, then hammer it with the serving load
# generator for 5s and print the latency report.
serve-demo: build
	$(GO) run ./cmd/frugal-train -micro -gpus 2 -steps 300 -keys 20000 -checkpoint-out /tmp/frugal-demo.ckpt
	$(GO) run ./cmd/frugal-serve -checkpoint /tmp/frugal-demo.ckpt -loadgen 5s -level 'bounded(2)'

# Spin a 3-shard loopback cluster, drive 150 training steps through the
# sharded store from a frugal-shard driver, then serve the cluster and
# hammer it with the load generator for 5s. The trap tears the nodes
# down however the demo exits.
shard-demo:
	@set -e; \
	$(GO) build -o /tmp/frugal-shard-demo ./cmd/frugal-shard; \
	/tmp/frugal-shard-demo -addr 127.0.0.1:7101 -rows 20000 -dim 32 -shard 0 -of 3 & P0=$$!; \
	/tmp/frugal-shard-demo -addr 127.0.0.1:7102 -rows 20000 -dim 32 -shard 1 -of 3 & P1=$$!; \
	/tmp/frugal-shard-demo -addr 127.0.0.1:7103 -rows 20000 -dim 32 -shard 2 -of 3 & P2=$$!; \
	trap 'kill $$P0 $$P1 $$P2 2>/dev/null; wait $$P0 $$P1 $$P2 2>/dev/null' EXIT; \
	sleep 1; \
	/tmp/frugal-shard-demo -connect 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -steps 150; \
	$(GO) run ./cmd/frugal-serve -shards 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -loadgen 5s -level 'bounded(4)'

# Continuous training with HA serving: a streaming primary cuts the
# delta-checkpoint log while a fault plan kills a flusher mid-run; a
# follower tails the log and is hammered by the serving load generator;
# after the primary exits, the follower self-promotes on log idleness and
# answers a fresh read as the new authority.
stream-demo:
	@set -e; \
	rm -rf /tmp/frugal-stream-log; \
	$(GO) build -o /tmp/frugal-train-demo ./cmd/frugal-train; \
	$(GO) build -o /tmp/frugal-serve-demo ./cmd/frugal-serve; \
	/tmp/frugal-train-demo -stream -stream-rate 20000 -stream-log /tmp/frugal-stream-log \
		-gpus 2 -keys 20000 -batch 64 -duration 8s -fault-plan 'crash:flusher=0@batch=50' & TP=$$!; \
	trap 'kill $$TP 2>/dev/null || true; wait $$TP 2>/dev/null || true' EXIT; \
	/tmp/frugal-serve-demo -follow /tmp/frugal-stream-log -wait-for-log 10s \
		-loadgen 6s -level 'bounded(8)'; \
	wait $$TP; \
	/tmp/frugal-serve-demo -follow /tmp/frugal-stream-log -promote-after 200ms -loadgen 2s -level 'bounded(8)'

# The frequency-aware tiered slab end to end: train on a cold-tier table
# (2% hot head, int8 cold tail) with the gate invariant checked every
# step, checkpoint it, then serve the same checkpoint through the tiered
# store and hammer it with the load generator — the top-K path scans
# quantized codes and rescores winners at full precision.
tier-demo: build
	$(GO) run ./cmd/frugal-train -micro -gpus 2 -steps 300 -keys 20000 \
		-cold-tier -hot-fraction 0.02 -obs -checkpoint-out /tmp/frugal-tier-demo.ckpt
	$(GO) run ./cmd/frugal-serve -checkpoint /tmp/frugal-tier-demo.ckpt \
		-cold-tier -hot-fraction 0.02 -loadgen 5s

# One pass over every benchmark (sanity, not measurement).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Re-measure the perf suite (tensor kernels, per-engine step loop, PQ
# enqueue/drain) with full 1s windows and overwrite the committed
# baseline. Run on a quiet machine from a clean tree (it refuses a dirty
# one, so the baseline's gitSHA names the code it measured), then commit
# BENCH_baseline.json.
bench-baseline:
	@test -z "$$(git status --porcelain)" || { echo "bench-baseline: the working tree has uncommitted changes; commit or stash them first" >&2; exit 1; }
	$(GO) run ./cmd/frugal-bench -perf -perf-out BENCH_baseline.json

# CI perf gate: quick re-run of the same suite diffed against the
# committed baseline. Fails only on allocs/op regressions (deterministic
# across machines); ns/op differences are advisory notes.
bench-check:
	$(GO) run ./cmd/frugal-bench -perf -quick -perf-out BENCH_current.json -perf-against BENCH_baseline.json

# Fast correctness pass (CI job 1); the race jobs run separately. The
# benchmark module (e2ebench/) builds against the internal packages, so
# vetting it here fails CI on an internal name it still uses, before a
# benchmark run would.
check: build vet test
	cd e2ebench && $(GO) vet ./...
