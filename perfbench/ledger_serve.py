"""Workload ``ledger_serve``: ``repro serve`` over a growing run ledger.

Set-up fills a fresh ledger with :data:`LEDGER_ENTRIES` entries through
``Ledger.append``, records one traced campaign with a ``trace``
artifact, and starts ``repro serve`` as a subprocess.  One round is a
closed loop on one keep-alive HTTP connection, mixing:

* ``GET /api/runs?last=50`` (``list``) and ``GET /api/runs/<id>`` of a
  seeded random earlier id (``entry``);
* appends through ``record_run``, as every CLI run makes (``append``);
* one ``GET /api/runs/<campaign>/trace/summary?limit=10`` (``summary``);
* one ``repro runs list --json --last 50`` subprocess (``cli_list``),
  compared byte for byte with ``GET /api/runs?last=50``;
* one ``repro runs list --json --last 50`` over a copy of the ledger
  whose last record is cut mid-line, as a crash mid-append leaves it
  (``torn_list``).  ``Ledger.entries`` raises on the torn line, so this
  class fails on every round until torn tails are tolerated; when it
  succeeds its listing must equal the listing of the intact prefix.

Where the mix comes from: the program's own HTTP client, the dashboard
(``repro/serve/dashboard.py``), reads ``/api/runs`` on load and again
after every ``job.*`` event, so run-list reads follow the runs being
recorded; a user who sees a new run opens it, hence one ``entry`` read
per ``list`` read.  Four such pairs per append and one trace summary per
round are choices, not measurements: they keep HTTP reads the bulk of
the operations while every class gets samples in each round.  The CLI
calls are few because each pays ~2 s of start-up: the two already take
about 60 % of a round.  Every run prints each class's share.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from harness import Ops, OpFailed, median, python_env, run_python, tail

#: Entries appended at set-up.  A ledger that has recorded every run
#: for a while holds thousands (2,051 in the repo's own working ledger,
#: parsed in 174 ms), but ``Ledger.append`` re-parses the whole file to
#: number each entry, so filling one costs ~N^2/2 entry parses: 300
#: entries take ~3 s, 2,051 would take ~2 min, and a run sets up five
#: times.  At 300 entries one parse takes ~16 ms, a quarter of a read.
LEDGER_ENTRIES = 300
#: Distinct small simulations whose manifests fill the ledger.
SEED_RUNS = 8
SEED_RUN_TXN = 300
#: Set-up campaign: the whole zoo, one replication, this horizon.
CAMPAIGN_HORIZON_S = 300.0
#: Per round: (list, entry) read pairs, and an append after every
#: APPEND_EVERY pairs.
READ_PAIRS = 20
APPEND_EVERY = 4
LAST = 50
SUMMARY_LIMIT = 10
#: Interleaved (interpreter, import, CLI call) start-up probes.
CLI_PROBES = 2
SERVER_START_TIMEOUT_S = 60.0


class LedgerServe:
    name = "ledger_serve"

    def __init__(self, root: str, work: str, seed: int, rec) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.rec = rec
        self.rng = random.Random(seed)
        self.server: Optional[subprocess.Popen] = None
        self.conn: Optional[http.client.HTTPConnection] = None
        self.ledger_dir = os.path.join(work, "ledger")
        self.torn_dir = os.path.join(work, "torn")
        #: (id, manifest hash) of every entry appended, in order.
        self.appended: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.core.spec import PolicySpec
        from repro.ecommerce.config import PAPER_CONFIG
        from repro.ecommerce.runner import run_replications
        from repro.ecommerce.spec import ArrivalSpec
        from repro.obs.ledger import Ledger
        from repro.obs.ledger.manifest import simulate_manifest
        from repro.obs.ledger.outcome import replicated_outcomes, timing_block

        shutil.rmtree(self.ledger_dir, ignore_errors=True)
        arrival = ArrivalSpec.poisson(PAPER_CONFIG.arrival_rate_for_load(8))
        policy = PolicySpec.sraa(2, 5, 3)
        self.seed_runs = []
        for k in range(SEED_RUNS):
            seed = self.seed * 100 + k
            result = run_replications(
                PAPER_CONFIG,
                arrival=arrival,
                policy=policy,
                n_transactions=SEED_RUN_TXN,
                replications=1,
                seed=seed,
                backend="serial",
            )
            manifest = simulate_manifest(
                PAPER_CONFIG, arrival, policy, SEED_RUN_TXN, 1, seed
            )
            self.seed_runs.append(
                (manifest, replicated_outcomes(result), timing_block(0.0))
            )
        ledger = Ledger(self.ledger_dir)
        for i in range(LEDGER_ENTRIES):
            manifest, outcomes, timing = self.seed_runs[i % SEED_RUNS]
            entry = ledger.append(manifest, outcomes, timing)
            self.appended.append((entry["id"], entry["manifest"]["manifest_hash"]))
        self._record_campaign()
        self._start_server()

    def _record_campaign(self) -> None:
        from repro.faults.campaign import DEFAULT_POLICIES, run_campaign
        from repro.faults.zoo import builtin_scenarios
        from repro.obs.ledger import record_run
        from repro.obs.ledger.manifest import campaign_manifest
        from repro.obs.ledger.outcome import campaign_outcomes, timing_block
        from repro.obs.session import TraceSession, use_tracing

        scenarios = list(builtin_scenarios(CAMPAIGN_HORIZON_S).values())
        session = TraceSession("spans", trace_format="columnar")
        with use_tracing(session):
            campaign = run_campaign(
                scenarios,
                DEFAULT_POLICIES,
                replications=1,
                seed=self.seed,
                backend="serial",
            )
        trace = os.path.abspath(os.path.join(self.work, "setup-campaign.rcol"))
        session.write_trace(trace)
        entry = record_run(
            campaign_manifest(scenarios, DEFAULT_POLICIES, 1, self.seed),
            campaign_outcomes(campaign),
            timing_block(0.0),
            directory=self.ledger_dir,
            artifacts={"trace": trace},
        )
        if entry is None:
            raise OpFailed("record_run did not record the set-up campaign")
        self.appended.append((entry["id"], entry["manifest"]["manifest_hash"]))
        self.campaign_id = entry["id"]
        self.campaign_runs = [
            (run.completed, run.rejuvenations)
            for _, cell in campaign.runs
            for run in cell
        ]

    def _start_server(self) -> None:
        self.server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--ledger",
                self.ledger_dir,
                "--schedule-tick",
                "0",
            ],
            cwd=self.work,
            env=python_env(self.root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith("repro serve on http://"):
            raise OpFailed(f"repro serve did not start: {line!r}")
        host, port = line.split()[3][len("http://") :].split(":")
        self.conn = http.client.HTTPConnection(
            host, int(port), timeout=SERVER_START_TIMEOUT_S
        )

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    # ------------------------------------------------------------------
    def _get(self, route: str, path: str) -> bytes:
        with self.rec.span(f"serve.GET {route}", "serve"):
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            body = response.read()
        if response.status != 200:
            raise OpFailed(f"GET {path}: HTTP {response.status}")
        return body

    def _list(self, ops: Ops) -> Optional[bytes]:
        body = ops.call("list", self._get, "list", f"/api/runs?last={LAST}")
        if body is None:
            return None
        payload = json.loads(body)
        ops.check(
            payload["total"] == len(self.appended),
            f"list total {payload['total']}, appended {len(self.appended)}",
        )
        ids = [run["id"] for run in payload["runs"]]
        ops.check(
            ids == [entry_id for entry_id, _ in self.appended[-LAST:]],
            "list ids are not the newest appended ids in order",
        )
        seqs = [int(entry_id.split("-")[1]) for entry_id in ids]
        ops.check(
            all(a < b for a, b in zip(seqs, seqs[1:])),
            "list ids are not strictly increasing",
        )
        return body

    def _entry(self, ops: Ops) -> None:
        entry_id, manifest_hash = self.appended[
            self.rng.randrange(len(self.appended))
        ]
        body = ops.call("entry", self._get, "entry", f"/api/runs/{entry_id}")
        if body is not None:
            got = json.loads(body)["manifest"]["manifest_hash"]
            ops.check(
                got == manifest_hash,
                f"entry {entry_id}: manifest hash {got} != appended {manifest_hash}",
            )

    def _append(self, ops: Ops) -> None:
        from repro.obs.ledger import record_run

        manifest, outcomes, timing = self.seed_runs[
            self.rng.randrange(SEED_RUNS)
        ]

        def append():
            with self.rec.span("obs.ledger.record_run", "obs"):
                entry = record_run(
                    manifest, outcomes, timing, directory=self.ledger_dir
                )
            if entry is None:
                raise OpFailed("record_run recorded nothing")
            return entry

        entry = ops.call("append", append)
        if entry is not None:
            self.appended.append((entry["id"], entry["manifest"]["manifest_hash"]))
            ops.check(
                entry["manifest"]["manifest_hash"] == manifest.manifest_hash,
                "append returned a different manifest hash",
            )

    def _summary(self, ops: Ops) -> None:
        body = ops.call(
            "summary",
            self._get,
            "summary",
            f"/api/runs/{self.campaign_id}/trace/summary?limit={SUMMARY_LIMIT}",
        )
        if body is not None:
            runs = json.loads(body)["runs"]
            got = [(run["completions"], run["rejuvenations"]) for run in runs]
            ops.check(
                got == self.campaign_runs[:SUMMARY_LIMIT],
                "trace summary completions/rejuvenations differ from the "
                "set-up campaign",
            )

    def _cli_list(self, ledger_dir: str) -> bytes:
        with self.rec.span("cli.repro runs list", "cli"):
            done = run_python(
                self.root,
                [
                    "-m",
                    "repro",
                    "runs",
                    "list",
                    "--json",
                    "--last",
                    str(LAST),
                    "--ledger",
                    ledger_dir,
                ],
                cwd=self.work,
            )
        if done.returncode != 0:
            last = done.stderr.decode(errors="replace").strip().splitlines()
            raise OpFailed(
                f"exit {done.returncode}: {last[-1] if last else 'no output'}"
            )
        return done.stdout

    def _torn(self, ops: Ops) -> None:
        from repro.obs.ledger import Ledger, runs_payload

        shutil.rmtree(self.torn_dir, ignore_errors=True)
        os.makedirs(self.torn_dir)
        with open(Ledger(self.ledger_dir).runs_path, "rb") as handle:
            data = handle.read()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        cut = last_start + (len(data) - last_start) // 2
        torn_path = Ledger(self.torn_dir).runs_path
        with open(torn_path, "wb") as handle:
            handle.write(data[:cut])
        listing = ops.call("torn_list", self._cli_list, self.torn_dir)
        if listing is None:
            return
        intact = [json.loads(line) for line in data[:last_start].splitlines()]
        total = len(intact)
        expected = json.dumps(
            runs_payload(intact, {}, limit=LAST, offset=max(0, total - LAST)),
            indent=2,
            sort_keys=True,
        )
        ops.check(
            listing == (expected + "\n").encode(),
            "torn ledger listing differs from the intact prefix",
        )

    def round(self, ops: Ops, k: int) -> None:
        for i in range(READ_PAIRS):
            self._list(ops)
            self._entry(ops)
            if i % APPEND_EVERY == APPEND_EVERY - 1:
                self._append(ops)
        self._summary(ops)
        listing = ops.call("cli_list", self._cli_list, self.ledger_dir)
        served = self._list(ops)
        if listing is not None and served is not None:
            ops.check(
                listing == served,
                "repro runs list --json differs from GET /api/runs",
            )
        self._torn(ops)

    # ------------------------------------------------------------------
    def details(self, ops: Ops) -> List[Tuple[str, float, str]]:
        from repro.obs.ledger import Ledger

        reads = [
            t for route in ("list", "entry", "summary") for t in ops.times[route]
        ]
        out = []
        if reads:
            out.append(("api_p50_ms", 1e3 * median(reads), "ms"))
            high = tail(reads)
            if high is not None:
                pct, value, n = high
                out.append((f"api_tail_ms(p{pct:.1f},n={n})", 1e3 * value, "ms"))
            served = reads + ops.times["append"]
            out.append(("api_ops_per_s", len(served) / sum(served), "ops/s"))
        if ops.times["cli_list"]:
            out.append(("cli_call_s", median(ops.times["cli_list"]), "s"))
        # Every GET re-parses the ledger: how much of a read that is.
        ledger = Ledger(self.ledger_dir)
        parse = []
        for _ in range(3):
            started = time.perf_counter()
            entries = ledger.entries()
            parse.append(time.perf_counter() - started)
        out.append((f"ledger_parse_ms(n={len(entries)})", 1e3 * median(parse), "ms"))
        if reads:
            out.append(("parse_share_of_read", median(parse) / median(reads), "ratio"))
        return out

    def _timed_python(self, args: List[str]) -> float:
        with self.rec.span(f"cli.python {' '.join(args)}", "cli"):
            started = time.perf_counter()
            done = run_python(self.root, args, cwd=self.work)
            elapsed = time.perf_counter() - started
        if done.returncode != 0:
            raise OpFailed(f"python {' '.join(args)} exited {done.returncode}")
        return elapsed

    def layer_metrics(self, ops: Ops) -> Dict[str, Tuple[float, str]]:
        from repro.obs.ledger import Ledger

        rec = self.rec
        out: Dict[str, Tuple[float, str]] = {}
        out["obs.ledger.append_ms"] = (1e3 * median(ops.times["append"]), "ms")
        ledger = Ledger(self.ledger_dir)
        parse = []
        for _ in range(5):
            with rec.span("obs.ledger.entries", "obs"):
                started = time.perf_counter()
                entries = ledger.entries()
                parse.append(time.perf_counter() - started)
        out["obs.ledger.entries_ms"] = (1e3 * median(parse), "ms")
        out["obs.ledger.entries"] = (float(len(entries)), "count")
        for route in ("list", "entry", "summary"):
            out[f"serve.{route}_ms"] = (1e3 * median(ops.times[route]), "ms")
        # Start-up probes, interleaved so drift hits each alike; the CLI
        # call adds to this round's one sample.
        interp, imports, calls = [], [], list(ops.times["cli_list"])
        for _ in range(CLI_PROBES):
            interp.append(self._timed_python(["-c", "pass"]))
            imports.append(self._timed_python(["-c", "import repro.cli"]))
            started = time.perf_counter()
            self._cli_list(self.ledger_dir)
            calls.append(time.perf_counter() - started)
        out["cli.interp_s"] = (median(interp), "s")
        out["cli.import_s"] = (median(imports), "s")
        out["cli.dispatch_s"] = (median(calls) - median(imports), "s")
        return out
