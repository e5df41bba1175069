#!/usr/bin/env bash
# The benchmark's own CI entry point: build, unit tests, then every
# correctness gate of a run (`--check`) on all three workloads at a reduced
# size, untraced and traced. Under a minute after the first build.
set -euo pipefail
cd "$(dirname "$0")/.."

MANIFEST=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$MANIFEST"
cargo test --release --offline --manifest-path "$MANIFEST"

for workload in iptranse_15k_exact_zipf gcnalign_3k_exact_uniform scale_200k_ivf_uniform; do
    for trace in 0 1; do
        echo "== $workload --check --reduced --trace $trace"
        cargo run --release --offline --quiet --manifest-path "$MANIFEST" -- \
            --workload "$workload" --check --reduced --trace "$trace" \
            --out benchmark/out/check | grep -E '^(check|failed:|attempted)'
    done
    test -s benchmark/out/check/trace.json
done
echo "benchmark check OK"
