#!/usr/bin/env bash
# Same code, measured twice: runs every workload as two interleaved sets
# (A, B, A, B, ...) of one build, each set over seeds 1..RUNS, and prints for
# every metric × workload cell both medians, their gap, max/min and the spread
# between a set's runs (distance between quartiles over the median — what the
# driver holds against the bound, and the builder against a third of it).
#
# The end-to-end cells fail the script when their gap or spread exceeds the
# bound in BENCHMARK.json. The timed quiet-host estimates (`pipeline.*`) are
# per-layer on this host and are reported against the 10 % the issue wanted
# without failing the script. Then the host measurements the estimator rests
# on are re-run.
#
#   benchmark/noise.sh [RUNS] | tee benchmark/NOISE.md      (RUNS >= 5, default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${1:-5}
if [ "$RUNS" -lt 5 ]; then
    echo "noise.sh: at least 5 runs per set" >&2
    exit 2
fi
MANIFEST=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$MANIFEST" >&2
BIN=${CARGO_TARGET_DIR:-benchmark/target}/release/openea-benchmark
OUT=benchmark/out/noise
rm -rf "$OUT"
mkdir -p "$OUT"

echo "# Noise: the same build measured as two interleaved sets"
echo
echo "nproc $(nproc), $(date -u +%Y-%m-%d), $RUNS runs per set (seeds 1..$RUNS), \`benchmark/noise.sh $RUNS\`"
echo

for workload in iptranse_15k_exact_zipf gcnalign_3k_exact_uniform scale_200k_ivf_uniform; do
    for seed in $(seq 1 "$RUNS"); do
        for set in A B; do
            "$BIN" --workload "$workload" --seed "$seed" --out "$OUT/run" \
                >"$OUT/$workload.$set.$seed.txt"
        done
    done
done

status=0
python3 - "$OUT" "$RUNS" <<'PY' || status=$?
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
gated = [(m["name"], m["bound"]) for m in bench["end_to_end"]]
# Per-layer on this host; 10 % is what the issue wanted of them.
timed = [("pipeline.generation_s", 0.10), ("pipeline.eval_s", 0.10), ("pipeline.align_qps", 0.10)]


def load(path):
    """Every `name value unit` line of a run's listing, and its summary."""
    lines = open(path).read().splitlines()
    values = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            values[parts[0]] = (float(parts[1]), parts[2])
    summary = json.loads(lines[-1])
    for name, m in summary["metrics"].items():
        values[name] = (m["value"], m["unit"])
    return values, summary["correct"]


failed = False
for w in (w["name"] for w in bench["workloads"]):
    sets = {s: [load(f"{out}/{w}.{s}.{seed}.txt") for seed in range(1, runs + 1)] for s in "AB"}
    wrong = sum(not ok for s in sets.values() for _, ok in s)
    failed |= wrong > 0
    print(f"## {w}\n")
    print(f"{2 * runs} runs, {wrong} incorrect\n")
    print("| metric | unit | median A | median B | gap | bound | max/min | spread A | spread B | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for cells, gate in ((gated, True), (timed, False)):
        for name, bound in cells:
            vals = {s: [v[name][0] for v, _ in sets[s]] for s in "AB"}
            unit = sets["A"][0][0][name][1]
            med = {s: statistics.median(v) for s, v in vals.items()}
            gap = abs(med["B"] - med["A"]) / med["A"]
            both = vals["A"] + vals["B"]
            spread = {}
            for s, v in vals.items():
                q = statistics.quantiles(v, n=4)
                spread[s] = (q[2] - q[0]) / med[s]
            worst = max(spread.values())
            if not gate:
                verdict = "per-layer: " + (
                    "inside 10 %" if max(gap, worst) <= bound else "outside 10 %")
            elif gap > bound:
                verdict, failed = "GAP OVER BOUND", True
            elif name != "setup_s" and worst > bound:
                verdict, failed = "SPREAD OVER BOUND", True
            elif name != "setup_s" and worst > bound / 3:
                verdict = "spread over a third of the bound"
            else:
                verdict = "ok"
            print(f"| {name} | {unit} | {med['A']:.6g} | {med['B']:.6g} | {100 * gap:.2f} % "
                  f"| {100 * bound:.1f} % | {max(both) / min(both):.3f} "
                  f"| {100 * spread['A']:.2f} % | {100 * spread['B']:.2f} % | {verdict} |")
    print()
if failed:
    print("**FAILED**: an end-to-end cell is outside its bound or a run was incorrect.")
    sys.exit(1)
print("All end-to-end cells within their bounds.")
PY

echo
"$BIN" --host-noise
exit "$status"
