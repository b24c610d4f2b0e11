#!/usr/bin/env python3
"""The ORB's end-to-end benchmark: builds bench_orb and runs its workloads.

Run from the root of a checkout (it builds from the sources there):

  python3 benchmark/run.py              all four workloads, seed 1, untraced:
                                        every end-to-end metric with its unit
  python3 benchmark/run.py --trace      the same, traced: the self-time table
                                        and every per-layer metric
  python3 benchmark/run.py --smoke      3 s per workload, traced; fails unless
                                        error_rate = 0, lat_n > 0 and the
                                        traced parts sum to the end-to-end p50
  python3 benchmark/run.py --workload ping --seed 3 --seconds 20 --trace 0
                                        one run; the last line of standard
                                        output is its JSON result

bench_orb is built into build-bench/. Each run's result file is kept in
build-bench/results/ (or --out), where benchmark/compare.py can read it.
The exit status is 1 when a reply was wrong (or a --smoke check failed).
An open-loop run whose generator could not keep its schedule is reported
as INVALID; compare.py refuses such runs.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
SMOKE_SECONDS = 3
# The traced parts must sum to the sampled calls' end-to-end p50 within this.
PARTS_TOLERANCE = 0.05


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def build():
    """Configures and builds bench_orb; build output goes to stderr."""
    if not (ROOT / "src").is_dir():
        fail(f"no sources to build: {ROOT / 'src'} is missing")
    # Configuring every time is cheap, and cmake refuses a build directory
    # that was configured for another source tree.
    configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (BUILD / "CMakeCache.txt").is_file() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "bench_orb", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "bench_orb"


def run_workload(binary, workload, seed, seconds, trace, out_dir):
    """Runs one workload in its own process; returns its result dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = time.time()
    kind = "trace" if trace else "e2e"
    result_path = out_dir / f"{workload}-seed{seed}-{kind}-{int(started_at * 1e3)}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--duration", str(seconds), "--json", str(result_path)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench_orb did not finish", 1)
    if proc.returncode != 0 or not result_path.is_file():
        fail(f"{workload}: bench_orb exited with {proc.returncode}", 1)
    result = json.loads(result_path.read_text())
    result["started_at"] = started_at
    result_path.write_text(json.dumps(result) + "\n")
    return result


def contract_metrics(result, specs):
    """The named metrics as {name: {value, unit}}; fails on a gap."""
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail(f"{result['workload']}: metric {spec['name']} is missing", 1)
        if got["unit"] != spec["unit"]:
            fail(f"{spec['name']}: unit {got['unit']} is not {spec['unit']}", 1)
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def print_metrics(result, names):
    for name in names:
        m = result["metrics"][name]
        print(f"  {name:28s} {m['value']:>16.6g}  {m['unit']}")


def print_self_time(result):
    parts = dict(result["self_time_p50_us"])
    parts_sum = parts.pop("parts_sum")
    sampled = parts.pop("sampled_lat_p50")
    traced = parts.pop("traced_lat_p50")
    untraced = result["metrics"]["lat_p50_us"]["value"]
    print(f"  self time of {int(result['spans'])} sampled calls, p50 (us):")
    for name, value in parts.items():
        share = value / parts_sum * 100 if parts_sum else 0.0
        print(f"    {name:22s} {value:12.2f}  {share:5.1f}%")
    print(f"    {'sum of parts':22s} {parts_sum:12.2f}")
    print(f"    {'sampled calls e2e':22s} {sampled:12.2f}  "
          f"(the sum is {(parts_sum / sampled - 1) * 100:+.1f}% off)")
    print(f"    {'all traced calls e2e':22s} {traced:12.2f}")
    print(f"    {'untraced e2e':22s} {untraced:12.2f}")


def parts_error(result):
    parts = result["self_time_p50_us"]
    return abs(parts["parts_sum"] / parts["sampled_lat_p50"] - 1)


def report(result, bench, trace):
    name = result["workload"]
    mode = "traced" if trace else "untraced"
    print(f"== {name} (seed {int(result['seed'])}, {result['duration_s']:g} s, {mode}) ==")
    if trace:
        print_self_time(result)
        print_metrics(result, [m["name"] for m in bench["per_layer"]])
    else:
        print_metrics(result, [m["name"] for m in bench["end_to_end"]])
        print_metrics(result, ["lat_p999_us", "lat_n", "proc.cpu_us_per_op"])
    m = result["metrics"]
    print(f"  {'error_rate':28s} {m['error_rate']['value']:>16.6g}  ratio "
          f"({int(result['failed'])} of {int(result['attempted'])} calls failed)")
    if not result["valid"]:
        print(f"  INVALID: {int(result['worlds_invalid'])} of "
              f"{int(result['worlds_measured'])} worlds: {result['invalid_reason']}")


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s traced run per workload, with checks")
    parser.add_argument("--out", type=Path, default=BUILD / "results",
                        help="directory for result files")
    args = parser.parse_args()

    trace = bool(args.trace) or args.smoke
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    binary = build()
    ok = True
    last = None
    for workload in [args.workload] if args.workload else workloads:
        result = run_workload(binary, workload, args.seed, seconds, trace, args.out)
        report(result, bench, trace)
        run_ok = result["failed"] == 0
        if args.smoke:
            checks = {
                "error_rate = 0": result["metrics"]["error_rate"]["value"] == 0,
                "lat_n > 0": result["metrics"]["lat_n"]["value"] > 0,
                "parts sum to e2e p50 within 5%": parts_error(result) <= PARTS_TOLERANCE,
                "run valid": result["valid"],
            }
            for check, passed in checks.items():
                print(f"  smoke: {check}: {'ok' if passed else 'FAILED'}")
            run_ok = run_ok and all(checks.values())
        ok = ok and run_ok
        last = result
        print()

    if args.workload:
        specs = bench["per_layer"] if trace else bench["end_to_end"]
        print(json.dumps({
            "correct": last["failed"] == 0,
            "attempted": int(last["attempted"]),
            "failed": int(last["failed"]),
            "metrics": contract_metrics(last, specs),
        }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
