"""The repo's benchmark: one workload, measured from outside the program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up :data:`SETUPS` times (reporting the
median set-up time), then runs whole rounds of its operations until
``--seconds`` have passed, and prints the end-to-end metrics.

``--trace 1`` records spans around every call the benchmark makes into
a layer.  It alternates traced and untraced rounds of the workload for
``--seconds`` (their ratio is the tracing overhead), then runs one
traced round of every workload plus the per-layer probes, and prints
the per-layer metrics and a per-layer self-time table.  Spans are
written to ``.bench_out/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the
benchmark writes stays under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

from harness import (
    REFERENCE_LOOP_S,
    Ops,
    environment,
    median,
    peak_rss_mb,
    reference_loop_s,
)
from ledger_serve import LedgerServe
from paper_sim import PaperSim
from spans import SpanRecorder, format_table, self_times
from trace_campaign import TraceCampaign

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
#: This run's scratch space; removed when the run ends.
WORK = os.path.join(OUT, "work", str(os.getpid()))
SETUPS = 5
#: Reference-loop samples taken before and after each set-up.
SETUP_CAL = 5
WORKLOADS = {cls.name: cls for cls in (PaperSim, TraceCampaign, LedgerServe)}
#: Workloads whose operation times are divided by the machine's
#: slowdown: the time of a fixed loop of the benchmark's own
#: (``reference_loop_s``) over ``REFERENCE_LOOP_S``, timed just before
#: each operation.  The loop follows the core this process runs on, so
#: it corrects work done in this process: the operations of these two,
#: and every set-up (imports in process; for ``ledger_serve`` mostly the
#: in-process ledger fill).  ``ledger_serve``'s operations stay as
#: measured: most of a read is a fixed ~40 ms TCP timer and the rest runs
#: in ``repro serve`` or in CLI children, on either core, so dividing by
#: the loop over-corrected them (op_gmean_ms spread 6.8 % raw, 10.0 %
#: corrected over ten seeds).
ROUNDS_CORRECTED = ("paper_sim", "trace_campaign")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BOUNDS = {m["name"]: m["bound"] for m in json.load(_handle)["end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=tuple(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make(name, seed, rec, tag):
    work = os.path.join(WORK, f"{name}-{seed}-{tag}")
    os.makedirs(work)
    return WORKLOADS[name](ROOT, work, seed, rec)


def run_rounds(workload, seconds, alternate=False):
    """Whole rounds until ``seconds`` have passed.

    Returns ``(untraced, traced, warm_up)`` :class:`Ops`.  With
    ``alternate`` the first round is a warm-up, then rounds alternate
    traced and untraced, at least one of each; otherwise every round is
    untraced.
    """
    rec = workload.rec
    plain, spanned, warm = Ops(rec), Ops(rec), Ops(rec)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        if not alternate:
            ops = plain
        elif k == 0:
            ops = warm
        else:
            ops = spanned if k % 2 else plain
        rec.enabled = ops is spanned
        try:
            workload.round(ops, k)
        finally:
            rec.enabled = False
        ops.rounds += 1
        k += 1
        if time.perf_counter() >= deadline and (not alternate or k >= 3):
            return plain, spanned, warm


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def print_ops(label, ops):
    print(f"{label}: attempted {sum(ops.attempted.values())}, "
          f"failed {sum(ops.failed.values())}")
    print(ops.table())
    for error in ops.errors:
        print(f"  failure: {error}")
    for message in ops.check_failures:
        print(f"  CHECK FAILED: {message}")


def untraced(args, rec):
    setups, setup_speed = [], []
    workload = None
    try:
        for k in range(SETUPS):
            if workload is not None:
                workload.close()
            workload = make(args.workload, args.seed, rec, f"s{k}")
            loops = [reference_loop_s() for _ in range(SETUP_CAL)]
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            loops += [reference_loop_s() for _ in range(SETUP_CAL)]
            setup_speed.append(median(loops) / REFERENCE_LOOP_S)
        ops, _, _ = run_rounds(workload, args.seconds)
        details = workload.details(ops)
    finally:
        if workload is not None:
            workload.close()
    print_ops(f"workload {args.workload}, {ops.rounds} rounds", ops)
    corrected = args.workload in ROUNDS_CORRECTED
    raw = {
        "setup_s": median(setups),
        "round_s": ops.round_s(),
        "op_gmean_ms": 1e3 * ops.op_gmean_s(),
    }
    metrics = {
        "op_gmean_ms": metric(1e3 * ops.op_gmean_s(corrected), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "round_s": metric(ops.round_s(corrected), "s"),
        "setup_s": metric(
            median([t / f for t, f in zip(setups, setup_speed)]), "s"
        ),
    }
    print(
        f"machine speed: reference loop {1e3 * median(ops.cal):.3f} ms "
        f"(median before {len(ops.cal)} operations) and "
        f"{1e3 * REFERENCE_LOOP_S * median(setup_speed):.3f} ms (around "
        f"set-ups), against {1e3 * REFERENCE_LOOP_S:.3f} ms.  Each set-up"
        + (" and operation" if corrected else "")
        + " is divided by the slowdown measured next to it."
    )
    print("end-to-end:")
    for name, value in metrics.items():
        as_measured = f"  (as measured {raw[name]:.6g})" if name in raw else ""
        print(
            f"  {name:<28} {value['value']:>14.6g} {value['unit']}{as_measured}"
        )
    print(
        f"  {'set-ups (s)':<28} {', '.join(f'{s:.3f}' for s in setups)}"
        f"  (slowdown {', '.join(f'{f:.3f}' for f in setup_speed)})"
    )
    print("single-class slowdown that fails each gate on its own:")
    print(ops.sensitivity(BOUNDS))
    print(f"workload figures ({args.workload}), as measured:")
    for name, value, unit in details:
        print(f"  {name:<28} {value:>14.6g} {unit}")
    extra = {"as_measured": raw, "setups_s": setups, "setup_speed": setup_speed}
    return ops, metrics, extra


def traced(args, rec):
    workload = make(args.workload, args.seed, rec, "t")
    try:
        workload.setup()
        first_span = len(rec.spans)
        plain, spanned, ops = run_rounds(workload, args.seconds, alternate=True)
        last_span = len(rec.spans)
    finally:
        workload.close()
    ops.absorb(plain)
    ops.absorb(spanned)
    print_ops(
        f"workload {args.workload}, 1 warm-up + {plain.rounds} untraced + "
        f"{spanned.rounds} traced rounds",
        ops,
    )
    overhead = 100.0 * (spanned.round_s() / plain.round_s() - 1.0)
    print(format_table(
        self_times(rec.spans[:last_span], first_span),
        f"self time, traced rounds of {args.workload}",
        sum(sum(values) for values in spanned.wall.values()),
    ))

    layer = {"bench.span_overhead_pct": (overhead, "%")}
    loops = list(ops.cal)
    ladder_first = len(rec.spans)
    ladder_wall = 0.0
    for name in WORKLOADS:
        probe = make(name, args.seed, rec, "ladder")
        probe_ops = Ops(rec)
        try:
            probe.setup()
            rec.enabled = True
            started = time.perf_counter()
            probe.round(probe_ops, 0)
            rec.start_op(f"{name} probes")
            layer.update(probe.layer_metrics(probe_ops))
            ladder_wall += time.perf_counter() - started
        finally:
            rec.enabled = False
            probe.close()
        print_ops(f"layer round {name}", probe_ops)
        ops.check_failures.extend(probe_ops.check_failures)
        loops.extend(probe_ops.cal)
    print(format_table(
        self_times(rec.spans, ladder_first),
        "self time, one traced round of every workload plus probes",
        ladder_wall,
    ))
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    path = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    written = rec.write(path)
    print(f"spans: {written} written to {os.path.relpath(path, ROOT)}")
    layer["bench.ref_loop_ms"] = (1e3 * median(loops), "ms")
    print(f"tracing overhead: {overhead:+.2f}% "
          f"(traced round {spanned.round_s():.4f}s vs untraced "
          f"{plain.round_s():.4f}s)")
    print("per-layer:")
    for name in sorted(layer):
        value, unit = layer[name]
        print(f"  {name:<32} {value:>14.6g} {unit}")
    metrics = {name: metric(*layer[name]) for name in sorted(layer)}
    return ops, metrics, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: no program source at {os.path.join(ROOT, 'src')}; "
            "run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = tmp
    env = environment(ROOT)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    rec = SpanRecorder()
    try:
        ops, metrics, extra = (traced if args.trace else untraced)(args, rec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = {
        "correct": ops.correct,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = dict(result, **extra, environment=env, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  operations={cls: [ops.attempted[cls], ops.failed[cls]]
                              for cls in sorted(ops.attempted)},
                  op_wall_s={cls: ops.wall[cls] for cls in sorted(ops.wall)},
                  cal_s=ops.cal)
    path = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
