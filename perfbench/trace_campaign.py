"""Workload ``trace_campaign``: a traced fault campaign, both formats.

One round runs the whole fault zoo against the paper's three
contenders (SRAA, SARAA, CLTA; one replication per cell, horizon
:data:`HORIZON_S`) through ``run_campaign`` on a 2-worker process pool,
with the program's event trace on at ``spans`` level:

* collected as columnar, written to ``.rcol`` (``rcol_trace``),
  re-scored with ``score_trace`` (``rcol_rescore``) and rendered with
  ``write_report`` (``report``);
* collected as JSONL, written (``jsonl_trace``) and re-scored
  (``jsonl_rescore``).

Collecting twice lets a change to one collector or reader show against
the other.  Round ``k`` runs the campaign with seed ``1000 * seed + k``.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import Counter
from typing import Dict, List, Tuple

from harness import Ops, fresh_import, median

HORIZON_S = 300.0
REPLICATIONS = 1
WORKERS = 2
TRACE_LEVEL = "spans"
FORMATS = (("rcol", "columnar"), ("jsonl", "jsonl"))

#: User-facing figure -> the operation class it is the median of.
FIGURES = (
    ("trace_rcol_s", "rcol_trace"),
    ("trace_jsonl_s", "jsonl_trace"),
    ("rescore_rcol_s", "rcol_rescore"),
    ("rescore_jsonl_s", "jsonl_rescore"),
    ("report_s", "report"),
)

MODULES = (
    "repro.faults.campaign",
    "repro.obs.columnar.query",
    "repro.obs.live.report",
)


class TraceCampaign:
    name = "trace_campaign"

    def __init__(self, root: str, work: str, seed: int, rec) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.rec = rec
        self.stats: Dict[str, Dict[str, float]] = {}
        self.records: Dict[str, int] = {}
        self.result_mb: Dict[str, float] = {}
        self.counted_jsonl = False

    def setup(self) -> None:
        """Import the campaign layers afresh in this process, then the zoo."""
        fresh_import(MODULES)
        from repro.faults.campaign import DEFAULT_POLICIES
        from repro.faults.zoo import builtin_scenarios

        self.scenarios = list(builtin_scenarios(HORIZON_S).values())
        self.policies = dict(DEFAULT_POLICIES)

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def _collect(self, ext: str, trace_format: str, path: str, seed: int):
        """Campaign launch until the trace file is on disk."""
        from repro.exec.backends import ProcessPoolBackend
        from repro.faults.campaign import run_campaign
        from repro.obs.session import TraceSession, use_tracing

        rec = self.rec
        events: List[Tuple[float, object]] = []

        def hook(event) -> None:
            events.append((time.perf_counter(), event))

        class Pool(ProcessPoolBackend):
            def map(self, fn, items, progress=None):
                with rec.span("exec.ProcessPoolBackend.map", "exec"):
                    return super().map(fn, items, progress)

        session = TraceSession(TRACE_LEVEL, trace_format=trace_format)
        with rec.span("faults.run_campaign", "faults"):
            with use_tracing(session):
                result = run_campaign(
                    self.scenarios,
                    self.policies,
                    replications=REPLICATIONS,
                    seed=seed,
                    backend=Pool(WORKERS),
                    progress=hook,
                )
        returned = time.perf_counter()
        with rec.span("obs.TraceSession.write_trace", "obs"):
            records = session.write_trace(path)
        written = time.perf_counter()
        self.stats[ext] = {
            "busy_s": sum(event.job_s for _, event in events),
            "wall_s": events[-1][1].elapsed_s,
            "post_map_s": returned - events[-1][0],
            "write_s": written - returned,
        }
        return result, records

    def round(self, ops: Ops, k: int) -> None:
        from repro.faults.campaign import score_trace
        from repro.obs.live.report import write_report

        rec = self.rec
        scores = {}
        for ext, trace_format in FORMATS:
            path = os.path.join(self.work, f"campaign.{ext}")
            collected = ops.call(
                f"{ext}_trace",
                self._collect,
                ext,
                trace_format,
                path,
                1000 * self.seed + k,
            )
            if collected is None:
                continue
            result, records = collected
            scores[ext] = result.scores
            self.records[ext] = records
            expected = [
                (run.completed, run.rejuvenations)
                for _, cell in result.runs
                for run in cell
            ]
            if rec.enabled:
                runs = [run for _, cell in result.runs for run in cell]
                self.result_mb[ext] = len(pickle.dumps(runs)) / 1e6
            # Drop the traced results before the next pool forks.
            del result, collected

            def rescore(path=path):
                with rec.span("faults.score_trace", "faults"):
                    return score_trace(path, HORIZON_S)

            rescored = ops.call(f"{ext}_rescore", rescore)
            if rescored is not None:
                ops.check(
                    rescored == scores[ext],
                    f"{ext}: score_trace differs from the in-run scores",
                )
            if ext == "rcol":

                def report():
                    with rec.span("obs.write_report", "obs"):
                        return write_report(
                            path, os.path.join(self.work, "report.html")
                        )

                rendered = ops.call("report", report)
                if rendered is not None:
                    ops.check(
                        rendered == records,
                        f"report rendered {rendered} of {records} records",
                    )
                self._check_counts_rcol(ops, path, expected)
            elif not self.counted_jsonl:
                self._check_counts_jsonl(ops, path, expected)
                self.counted_jsonl = True
        if len(scores) == 2:
            ops.check(
                scores["rcol"] == scores["jsonl"],
                "campaign scores differ between the two collectors",
            )
            ops.check(
                self.records["rcol"] == self.records["jsonl"],
                f"record counts differ: rcol {self.records['rcol']}, "
                f"jsonl {self.records['jsonl']}",
            )

    def _check_counts_rcol(
        self, ops: Ops, path: str, expected: List[Tuple[int, int]]
    ) -> None:
        from repro.obs.columnar.query import load_query
        from repro.obs.events import REQUEST_COMPLETE, SYSTEM_REJUVENATION

        got = []
        for view in load_query(path).run_views():
            counts = view.counts()
            got.append(
                (counts.get(REQUEST_COMPLETE, 0), counts.get(SYSTEM_REJUVENATION, 0))
            )
        ops.check(
            got == expected,
            "rcol: per-run completions/rejuvenations differ from the runs",
        )

    def _check_counts_jsonl(
        self, ops: Ops, path: str, expected: List[Tuple[int, int]]
    ) -> None:
        """Counts read back with plain ``json``, not the program's reader."""
        from repro.obs.events import REQUEST_COMPLETE, SYSTEM_REJUVENATION

        per_run: Dict[int, Counter] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                per_run.setdefault(record["run"], Counter())[record["type"]] += 1
        got = [
            (per_run[run][REQUEST_COMPLETE], per_run[run][SYSTEM_REJUVENATION])
            for run in sorted(per_run)
        ]
        ops.check(
            got == expected,
            "jsonl: per-run completions/rejuvenations differ from the runs",
        )

    # ------------------------------------------------------------------
    def details(self, ops: Ops) -> List[Tuple[str, float, str]]:
        """The workload's user-facing figures (medians over rounds)."""
        return [
            (name, median(ops.times[cls]), "s")
            for name, cls in FIGURES
            if ops.times[cls]
        ]

    def layer_metrics(self, ops: Ops) -> Dict[str, Tuple[float, str]]:
        """Per-layer figures from one traced round plus the probes."""
        from repro.faults.campaign import score_records
        from repro.obs.columnar.query import load_query

        rec = self.rec
        out: Dict[str, Tuple[float, str]] = {}
        busy = sum(self.stats[ext]["busy_s"] for ext, _ in FORMATS)
        wall = sum(self.stats[ext]["wall_s"] for ext, _ in FORMATS)
        out["exec.busy_s"] = (busy, "s")
        out["exec.wall_s"] = (wall, "s")
        out["exec.efficiency"] = (busy / (wall * WORKERS), "ratio")
        for ext, _ in FORMATS:
            out[f"exec.result_mb.{ext}"] = (self.result_mb[ext], "MB")
            out[f"obs.post_map_s.{ext}"] = (self.stats[ext]["post_map_s"], "s")
            out[f"obs.write_s.{ext}"] = (self.stats[ext]["write_s"], "s")
            path = os.path.join(self.work, f"campaign.{ext}")
            out[f"obs.trace_mb.{ext}"] = (os.path.getsize(path) / 1e6, "MB")
            with rec.span("obs.load_query", "obs"):
                started = time.perf_counter()
                query = load_query(path)
                out[f"obs.query.load_s.{ext}"] = (
                    time.perf_counter() - started,
                    "s",
                )
            if ext == "rcol":
                with rec.span("faults.score_records", "faults"):
                    started = time.perf_counter()
                    score_records(query)
                    out["faults.score_s"] = (time.perf_counter() - started, "s")
        out["obs.records"] = (float(self.records["rcol"]), "count")
        out["obs.report_s"] = (ops.times["report"][-1], "s")
        return out
