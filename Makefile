GO ?= go

.PHONY: all build vet test race check torture apicheck bench-concurrent bench-readscale bench-shardscale bench-netscale bench-multiget bench-stability bench-membalance bench-valuesize profile repro clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrent write path (group-commit queue, WAL batch appends,
# zero-copy merges under readers), the shard router (cross-shard
# batch splits, merged iterators, parallel flush/close), and the
# pipelined network front end (reader/writer split, cross-connection
# batcher, tag-matched client) must stay race-clean.
race:
	$(GO) test -race ./internal/core ./internal/wal ./internal/shard ./internal/server ./internal/client

# Crash-torture: randomized power failures, torn writes, and interrupted
# recoveries under the race detector (50+ cycles; deterministic per seed).
torture:
	$(GO) test -race ./internal/core -run 'TestCrashTorture|TestDoubleCrashDuringRecovery' -v

# Public-API break detection for the root miodb package, against the
# previous tag (or commit). Soft by default: skips without the apidiff
# tool, warns without APIDIFF_STRICT=1 — CI sets both.
apicheck:
	sh scripts/apidiff.sh

# check is the gate for every change: build, vet, full tests, the race
# detector over the concurrency-heavy packages, the crash-torture run,
# and the public-API diff.
check: vet build test race torture apicheck

# Multi-writer throughput sweep (group commit vs baselines).
bench-concurrent:
	$(GO) test ./internal/bench -run xxx -bench ConcurrentWrites -benchtime 1x

# Multi-reader throughput sweep (epoch-pinned reads, single engine and 4
# shards, read-only + YCSB-B/C mixes, 1..16 threads); also writes the
# machine-readable BENCH_readscale.json artifact to the repo root.
bench-readscale:
	$(GO) run ./cmd/miodb-repro -experiment readscale -json_dir .

# Shard-scaling sweep (fill + readrandom vs shard count, 8 threads);
# emits the EXPERIMENTS.md shard table and BENCH_shardscale.json.
bench-shardscale:
	$(GO) run ./cmd/miodb-repro -experiment shardscale -json_dir .

# Network front-end sweep (loopback connections × pipeline window vs a
# window=1 ablation and a local 8-writer reference); also writes the
# machine-readable BENCH_netscale.json artifact to the repo root.
bench-netscale:
	$(GO) run ./cmd/miodb-repro -experiment netscale -json_dir .

# Versioned read API: GetMulti vs the same lookups as N concurrent
# pipelined Gets, group sizes 1-16 over loopback; writes
# BENCH_multiget.json.
bench-multiget:
	$(GO) run ./cmd/miodb-repro -experiment multiget -json_dir .

# Sustained-fill stability: throughput-over-time and tail traces for
# MioDB (unbounded vs admission-bounded) against the baselines; writes
# BENCH_stability.json with the per-bin timelines.
bench-stability:
	$(GO) run ./cmd/miodb-repro -experiment stability -json_dir .

# Adaptive memory governor: skewed zipfian traffic over 8 shards,
# adaptive vs static budget split at equal total memory; writes
# BENCH_membalance.json with per-shard flush counts and memtable-target
# timelines.
bench-membalance:
	$(GO) run ./cmd/miodb-repro -experiment membalance -json_dir .

# Key-value separation: fillrandom/readrandom and write amplification
# across value sizes (128 B – 256 KB), value log on vs off at equal
# memory budget; writes BENCH_valuesize.json.
bench-valuesize:
	$(GO) run ./cmd/miodb-repro -experiment valuesize -json_dir .

# Capture mutex/block contention profiles from an 8-thread read-only
# readscale run of the epoch-pinned read path. Inspect with:
#   go tool pprof profiles/readscale.test profiles/mutex.out
#   go tool pprof profiles/readscale.test profiles/block.out
profile:
	mkdir -p profiles
	$(GO) test ./internal/bench -run xxx \
		-bench 'ConcurrentReads/readonly/miodb/threads=8' -benchtime 1x \
		-mutexprofile mutex.out -blockprofile block.out \
		-outputdir $(CURDIR)/profiles -o profiles/readscale.test

# Regenerate every paper table/figure (about an hour at full scale).
repro:
	$(GO) run ./cmd/miodb-repro -all

clean:
	$(GO) clean ./...
