#!/usr/bin/env bash
# A/A check: run the suite as two interleaved sets of the same code
# (A B A B ..., set A on seeds 1..RUNS, set B on seeds 1001..1000+RUNS) and
# compare them the way the acceptance driver compares two commits.
#
#   benchmark/aa.sh [RUNS] [SECONDS]        defaults: 10 runs per set, 25 s
#
# Per workload and end-to-end metric it prints each set's median and
# quartiles (Python's statistics.quantiles, n=4), the spread (q3-q1)/median,
# how much worse B's median is than A's, and the metric's bound from
# BENCHMARK.json. Exits non-zero if a spread (setup_s excepted) or a
# difference is outside the bound. `tight` marks a spread above a third of
# the bound or a difference above half of it: add rounds or widen the bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
seconds="${2:-25}"
if [ "$runs" -lt 5 ]; then
    echo "aa.sh: need at least 5 runs per set" >&2
    exit 2
fi
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"
workloads=(sim-optimistic sim-abort thr-open thr-durable)
for i in $(seq 1 "$runs"); do
    for set in A B; do
        seed=$i
        [ "$set" = B ] && seed=$((1000 + i))
        for w in "${workloads[@]}"; do
            echo "run $i/$runs set $set $w (seed $seed)" >&2
            "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$set-$w-$i.json"
        done
    done
done
python3 - "$here/../BENCHMARK.json" "$out" "$runs" <<'PY'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
out, runs = sys.argv[2], int(sys.argv[3])
failed = False
print(f"{'workload':<15} {'metric':<15} {'A median [q1, q3]':<38} {'A spread':>9} "
      f"{'B median [q1, q3]':<38} {'B spread':>9} {'B worse by':>10} {'bound':>6}  verdict")
for w in (x["name"] for x in bench["workloads"]):
    sets = {}
    for s in "AB":
        results = [json.load(open(f"{out}/{s}-{w}-{i}.json")) for i in range(1, runs + 1)]
        assert all(r["correct"] and r["failed"] == 0 for r in results), f"{w}: incorrect run"
        sets[s] = results
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cols, med, spread = [], {}, {}
        for s in "AB":
            values = [r["metrics"][name]["value"] for r in sets[s]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med[s], spread[s] = q2, (q3 - q1) / q2
            cols.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        widest = max(spread.values())
        verdict = "ok"
        if widest > bound / 3 or abs(worse) > bound / 2:
            verdict = "tight"
        if (name != "setup_s" and widest > bound) or worse > bound:
            verdict, failed = "OUTSIDE", True
        print(f"{w:<15} {name:<15} {cols[0]:<38} {spread['A']:>9.2%} "
              f"{cols[1]:<38} {spread['B']:>9.2%} {worse:>+10.2%} {bound:>6.0%}  {verdict}")
sys.exit(1 if failed else 0)
PY
