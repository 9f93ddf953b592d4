"""Steadiness check: run each workload with ten seeds and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py                  # every workload
    python3 perfbench/steady.py paper_sim        # one workload

Each run is ``perfbench/run.py --trace 0`` with seeds 1-10 and the run
length from ``BENCHMARK.json``.  For every end-to-end metric the table
gives the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median`` and that spread as a share of the
metric's bound.  A spread at or under a third of its bound is marked
``ok``, one up to the bound ``within``, and a wider one ``WIDE``: the
bound is then not supported.  Every metric is judged alike, ``setup_s``
included.  A ``WIDE`` spread, a run that is not correct, or a share of
failed operations that differs between runs makes the command exit 1.
The bounds in ``BENCHMARK.json`` were set from this table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload: str, results: list, bounds: dict) -> bool:
    steady = True
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {r["failed"] / r["attempted"] for r in results}
    if len(ratios) != 1:
        steady = False
    print(
        f"{workload}: {len(results)} runs, correct "
        f"{sum(r['correct'] for r in results)}/{len(results)}, failed/attempted "
        f"{sorted(shares)} -> {'same share' if len(ratios) == 1 else 'SHARE DIFFERS'}"
    )
    print(
        f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>8} {'bound':>6} {'of bound':>8}"
    )
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(mid) if mid else float("inf")
        share = spread / bounds[name]
        mark = "ok" if share <= 1.0 / 3.0 else "within" if share <= 1.0 else "WIDE"
        if mark == "WIDE":
            steady = False
        print(
            f"  {name:<14} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{spread:>8.2%} {bounds[name]:>6} {share:>8.2f} {mark}"
        )
    if not all(r["correct"] for r in results):
        steady = False
    return steady


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="*", help=f"any of {', '.join(names)}")
    args = parser.parse_args(argv)
    for name in args.workload:
        if name not in names:
            parser.error(f"unknown workload {name!r}; choose from {names}")
    args.workload = args.workload or names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        results = []
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(
                f"  {workload} seed {seed}: "
                + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ),
                flush=True,
            )
        steady = summarise(workload, results, bounds) and steady
        out = os.path.join(ROOT, ".bench_out", "steady")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
