#!/usr/bin/env python3
"""Compares a change against its parent commit on the end-to-end metrics.

  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced result files benchmark/run.py wrote (its
--out) for one commit. A workload's runs on the two commits pair up in the
order they ran: each pair is two adjacent runs, one per commit, with the same
seed; which commit runs first must alternate from pair to pair; and there
must be at least ten pairs. For every workload and every end-to-end metric of
BENCHMARK.json:

  gain        the change is better in at least 9 of every 10 pairs (ties
              count for neither), the medians differ by more than the
              parent's interquartile range, and no more calls failed
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (interquartile range over median) of
              either commit exceeds the bound, and not every change run is
              better than every parent run
  ok          none of the above

It prints one row per workload, then each side's median and quartiles.
Exit status: 1 if any metric regressed, 2 if the runs cannot be paired.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
GAIN_SHARE = 0.9


def fail(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_runs(directory):
    """Untraced results by workload, each list in the order the runs began."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.startswith("trace-"):
            continue
        result = json.loads(path.read_text())
        if result.get("trace") or "started_at" not in result:
            continue
        if not result["valid"]:
            fail(f"{path}: invalid run ({result['invalid_reason']})")
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["started_at"])
    return runs


def pair_up(workload, parent, change):
    """[(parent_run, change_run)], checked for adjacency and alternation."""
    if len(parent) != len(change):
        fail(f"{workload}: {len(parent)} parent runs but {len(change)} change runs")
    if len(parent) < MIN_PAIRS:
        fail(f"{workload}: {len(parent)} pairs; at least {MIN_PAIRS} are needed")
    timeline = sorted([(r["started_at"], "parent", r) for r in parent] +
                      [(r["started_at"], "change", r) for r in change],
                      key=lambda e: e[0])
    pairs = []
    previous_first = None
    for k in range(0, len(timeline), 2):
        (_, side_a, run_a), (_, side_b, run_b) = timeline[k], timeline[k + 1]
        if side_a == side_b:
            fail(f"{workload}: pair {k // 2 + 1} is two {side_a} runs; "
                 "runs must alternate between the commits")
        if side_a == previous_first:
            fail(f"{workload}: the {side_a} commit ran first in pairs "
                 f"{k // 2} and {k // 2 + 1}; which commit runs first must alternate")
        if run_a["seed"] != run_b["seed"]:
            fail(f"{workload}: pair {k // 2 + 1} mixes seeds")
        previous_first = side_a
        pairs.append((run_a, run_b) if side_a == "parent" else (run_b, run_a))
    return pairs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(spec, pairs):
    """Verdict, signed change of the median (+ = worse) and the details."""
    lower = spec["better"] == "lower"
    p = [a["metrics"][spec["name"]]["value"] for a, _ in pairs]
    c = [b["metrics"][spec["name"]]["value"] for _, b in pairs]
    pq, cq = quartiles(p), quartiles(c)
    med_p, med_c = pq[1], cq[1]
    worse = (med_c - med_p) / med_p * (1 if lower else -1)
    spread = max((pq[2] - pq[0]) / med_p, (cq[2] - cq[0]) / med_c)

    def better(x, y):  # x better than y
        return x < y if lower else x > y

    wins = sum(1 for a, b in zip(p, c) if better(b, a))
    every_run_better = all(better(b, a) for a in p for b in c)
    more_failures = (sum(r["failed"] for _, r in pairs) >
                     sum(r["failed"] for r, _ in pairs))
    if spread > spec["bound"] and not every_run_better:
        verdict = "unresolved"
    elif worse > spec["bound"]:
        verdict = "REGRESSION"
    elif (wins >= GAIN_SHARE * len(pairs) and abs(med_c - med_p) > pq[2] - pq[0]
          and not more_failures):
        verdict = "gain"
    else:
        verdict = "ok"
    detail = (f"parent {med_p:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
              f"change {med_c:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
              f"wins {wins}/{len(pairs)}  spread {spread * 100:.1f}% "
              f"(bound {spec['bound'] * 100:g}%)")
    return verdict, worse, detail


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    workloads = [w["name"] for w in bench["workloads"] if w["name"] in parent or
                 w["name"] in change]
    if not workloads:
        fail("no untraced result files found")

    width = max(len(s["name"]) for s in specs) + 12
    print(f"{'workload':10s}" + "".join(f"{s['name']:>{width}s}" for s in specs))
    details = []
    regressed = False
    for workload in workloads:
        pairs = pair_up(workload, parent.get(workload, []), change.get(workload, []))
        cells = []
        for spec in specs:
            verdict, worse, detail = judge(spec, pairs)
            regressed = regressed or verdict == "REGRESSION"
            cells.append(f"{verdict} {-worse * 100:+.1f}%")
            details.append(f"  {workload:10s} {spec['name']:16s} {verdict:10s} {detail}")
        print(f"{workload:10s}" + "".join(f"{cell:>{width}s}" for cell in cells))
    print("\n(percentages: change of the median, + = better)\n")
    print("\n".join(details))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
