# Local verification targets, kept in lock-step with .github/workflows/ci.yml
# so "make <target>" locally reproduces exactly what CI gates on.

.PHONY: all build test lint fmt bench-smoke perf-smoke arch-gate profile-smoke perf-full proptest-deep serve-smoke chaos perfbench-check clean

all: build test lint bench-smoke perf-smoke profile-smoke serve-smoke chaos perfbench-check

# CI job: build (release)
build:
	cargo build --release --locked

# CI job: test — exactly the tier-1 verify command
test:
	cargo test -q --locked

# CI job: fmt + clippy
lint:
	cargo fmt --check
	cargo clippy --all-targets --locked -- -D warnings

# Applies formatting (lint only checks it).
fmt:
	cargo fmt

# CI job: example + bench smoke (parallel runner + JSON artifact + result
# cache, mirroring the bench-artifact CI job: cold run fills the cache, the
# warm rerun must hit for every job and reproduce the jobs array exactly).
# The smoke cache is wiped first so the cold run is genuinely cold — the
# job_hash key does not cover simulator sources, and a stale cache would
# report pre-edit numbers (CI gets the same guarantee by keying its
# persisted cache on the hash of every .rs file).
bench-smoke:
	cargo run --release --locked --example quickstart
	cargo run --release --locked -p dmt-bench --bin fig11_speedup -- --smoke
	rm -rf artifacts/smoke-cache
	cargo run --release --locked -p dmt-bench --bin fig11_speedup -- \
		--smoke --threads 2 --json artifacts/smoke.json --cache artifacts/smoke-cache
	cargo run --release --locked -p dmt-bench --bin fig11_speedup -- \
		--smoke --threads 2 --json artifacts/smoke-warm.json --cache artifacts/smoke-cache
	python3 ci/bench_regress.py artifacts/smoke.json artifacts/smoke-warm.json \
		--require-identical

# CI step: perf-smoke — simulator wall-clock throughput (informational,
# host-dependent; the deterministic-cycles gate lives in bench-smoke),
# followed by the tracing-overhead gate: the untraced engine must stay
# ahead of the vendored pre-overhaul baseline.
perf-smoke:
	cargo run --release --locked -p dmt-bench --bin bench_hotpath -- \
		--json artifacts/BENCH_hotpath.json
	python3 ci/overhead_gate.py artifacts/BENCH_hotpath.json

# CI step: arch-gate — fresh hotpath measurement, then the per-arch
# throughput gate: MT-CGRA sim-cycles/sec must stay within 5% of the
# previous run's artifact (CI persists it as baseline-hotpath.json; the
# first run skips cleanly) and the absolute MT/SM slowdown ceiling
# (DMT_MAX_MT_SM_RATIO, kept in lockstep with the workflow env).
# Mirrors the bench-artifact job's step.
DMT_MAX_MT_SM_RATIO ?= 8.5
arch-gate:
	cargo run --release --locked -p dmt-bench --bin bench_hotpath -- \
		--json artifacts/BENCH_hotpath.json
	python3 ci/arch_gate.py artifacts/BENCH_hotpath.json \
		--baseline artifacts/trajectory/baseline-hotpath.json \
		--max-mt-sm-ratio $(DMT_MAX_MT_SM_RATIO)

# CI step: profile-smoke — the hot-spot profile of the smoke suite
# (byte-identical for any --threads N; locked by tests/golden_profile.rs).
profile-smoke:
	cargo run --release --locked -p dmt-bench --bin profile_hotspots -- \
		--smoke --threads 2 --json artifacts/BENCH_profile.json

# Full Table 3 throughput sweep (all nine benchmarks × three machines).
# Deliberately NOT part of `all` or CI's push path — the headline `total`
# block stays the smoke measurement either way, so trends remain
# like-for-like; run this locally when profiling engine changes.
perf-full:
	cargo run --release --locked -p dmt-bench --bin bench_hotpath -- \
		--full --json artifacts/BENCH_hotpath_full.json

# CI job (scheduled): proptest-deep — the differential property suites
# at 16x the push-path case count. DMT_PROPTEST_CASES overrides every
# suite's configured count; the vendored proptest scales its rejection
# budget to match. Override locally: make proptest-deep DEEP_CASES=512.
DEEP_CASES ?= 2048
proptest-deep:
	DMT_PROPTEST_CASES=$(DEEP_CASES) cargo test -q --locked \
		--test properties --test token_storm

# CI job: serve-smoke — boot the daemon, race 4 clients through the
# smoke grid over TCP, assert byte-identical results, memoized
# duplicates, and a clean drain (exit 0). The cache dir is wiped first
# so wave 1 genuinely simulates.
serve-smoke:
	cargo build --release --locked -p dmt-serve
	rm -rf artifacts/serve-smoke
	python3 ci/serve_smoke.py --binary target/release/dmt-serve --out artifacts/serve-smoke

# CI job: chaos-smoke — the built binaries under a fixed adversarial
# fault schedule: cache write/rename faults absorbed and replayed
# byte-identically, deadlines typed as timed_out, one pool.exec fault
# costs exactly one job, and the daemon survives a poisoned response
# plus a per-job deadline and still drains clean. The in-process chaos
# invariants live in tests/chaos.rs (part of `make test`); this drives
# the same seams over argv and TCP.
chaos:
	cargo build --release --locked -p dmt-bench -p dmt-serve
	python3 ci/chaos_smoke.py \
		--bench-binary target/release/fig11_speedup \
		--serve-binary target/release/dmt-serve \
		--out artifacts/chaos-smoke

# CI job: perfbench — build the benchmark program (its own Cargo
# workspace, so `make build` never compiles it), then run every workload
# once, untraced and traced, through perfbench/run.sh and check its
# correctness line, metric names and units. Both steps share run.sh's
# build directory, so the self-check reuses the first build.
perfbench-check:
	CARGO_TARGET_DIR=.bench_build cargo build --release --locked --offline \
		--manifest-path perfbench/Cargo.toml
	CARGO_TARGET_DIR=.bench_build python3 perfbench/selfcheck.py

clean:
	cargo clean
