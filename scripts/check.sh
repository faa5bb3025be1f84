#!/usr/bin/env bash
# Full offline verification: tier-1 (build + tests) plus lint gates.
# Everything resolves against the vendored compat/ crates, so this runs
# without network access; --offline makes that explicit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format (rustfmt drift) =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --offline

echo "== tests (workspace) =="
cargo test -q --offline --workspace

echo "== malformed inputs (release profile, whose panic=abort is what users run: bad input files exit 1 with an error) =="
cargo test -q --offline --release --test malformed_inputs

echo "== engine bit-identity (release profile, the fat-LTO build users and the benchmark run: golden run digests, compiled task walk vs the recursive oracle) =="
cargo test -q --offline --release --test engine_digests
cargo test -q --offline --release -p cluster-sim --lib task::

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== e2ebench (benchmark unit tests; 1 s traced smoke run per workload, which checks replay == pipeline artifact bytes at seeds 0x5EED and 0xDDBA11) =="
cargo test -q --offline --manifest-path e2ebench/Cargo.toml
for workload in train-sim train-calib; do
    cargo run -q --release --offline --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 > /dev/null
done

echo "== trace overhead (<5% budget; records results/BENCH_trace_overhead.json) =="
cargo bench --offline -p bench --bench trace_overhead

echo "== metrics overhead (<5% budget; records results/BENCH_metrics_overhead.json) =="
cargo bench --offline -p bench --bench metrics_overhead

echo "== chaos overhead (<5% armed-idle budget; records results/BENCH_chaos_overhead.json) =="
cargo bench --offline -p bench --bench chaos_overhead

echo "== sim throughput (hot-path speedup vs frozen pre-rework constants; records results/BENCH_sim_throughput.json) =="
cargo bench --offline -p bench --bench sim_throughput

echo "== tenants overhead (<5% single-tenant budget; records results/BENCH_tenants_overhead.json) =="
cargo bench --offline -p bench --bench tenants_overhead

echo "== profile overhead (<5% enabled budget; records results/BENCH_profile_overhead.json) =="
cargo bench --offline -p bench --bench profile_overhead

echo "== health overhead (<5% steady-state fold budget; records results/BENCH_health_overhead.json) =="
cargo bench --offline -p bench --bench health_overhead

echo "== perf report (fresh BENCH_*.json vs results/baselines/) =="
cargo run -q --release --offline --bin juggler -- perf-report

echo "all checks passed"
