"""Workload ``paper_sim``: the Section-5 evaluation loop, in process.

One round runs, serially and with no event trace:

* SRAA(2,5,3), SARAA(2,5,3), CLTA(30, z=1.96) and no policy at 8 CPUs
  of offered load, one replication of :data:`N_SINGLE` transactions
  each, through ``run_replications``;
* the M/M/16 reduction at 12 CPUs (``simulate_mmc_response_times``);
* a 100-node, 4-shard fleet under a rolling scheduler with capacity
  floor 0.9 and a 60 s restart downtime (``FleetSpec.build(...).run``);
* the exact CLTA false-alarm probabilities at n = 15 and 30.

Round ``k`` draws its streams from seed ``1000 * seed + 10 * k``, so the
median over rounds averages over several independent input sets.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Dict, List, Tuple

import numpy as np

import oracles
from harness import Ops, fresh_import, median

N_SINGLE = 20_000
N_MMC = 20_000
N_FLEET = 40_000
LOAD_CPUS = 8.0
MMC_LOAD_CPUS = 12.0
FLEET_NODES = 100
FLEET_SHARDS = 4
FLEET_FLOOR = 0.9
FLEET_RATE = 1.8
FLEET_DOWNTIME_S = 60.0
#: Batches for the M/M/16 batch-means standard error, and how many
#: standard errors the simulated mean may sit from the oracle.  With 19
#: degrees of freedom a correct model misses 6 SE about once in 10^5.
MMC_BATCHES = 20
MMC_TOLERANCE_SE = 6.0
#: The tail point checked against the exact M/M/c response-time tail.
MMC_TAIL_AT_S = 15.0
#: No-op events in the raw engine probe.
NOOP_EVENTS = 200_000
#: Transactions of the events-per-transaction probe.
EVENTS_PROBE_TXN = 10_000

MODULES = ("repro.ecommerce.runner", "repro.systems", "repro.ctmc.sample_mean")


@functools.lru_cache(maxsize=None)
def oracle_values() -> Tuple[float, float, Dict[int, float]]:
    """M/M/16 mean and tail at 12 CPUs, exact CLTA false alarms (once)."""
    config_mmc = (16, 0.2 * MMC_LOAD_CPUS, 0.2)
    return (
        oracles.mmc_mean_response(*config_mmc),
        oracles.mmc_response_sf(MMC_TAIL_AT_S, *config_mmc),
        {n: oracles.clta_false_alarm(n) for n in (15, 30)},
    )


class PaperSim:
    name = "paper_sim"

    def __init__(self, root: str, work: str, seed: int, rec) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.rec = rec
        self.mmc_mean, self.mmc_tail, self.false_alarm = oracle_values()
        self.mmc_rts = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Import the simulation layers afresh in this process, then specs."""
        fresh_import(MODULES)
        from repro.core.spec import PolicySpec
        from repro.ecommerce.config import PAPER_CONFIG
        from repro.ecommerce.spec import ArrivalSpec
        from repro.systems import FleetSpec, SchedulerSpec

        self.policies = {
            "sraa": PolicySpec.sraa(2, 5, 3),
            "saraa": PolicySpec.saraa(2, 5, 3),
            "clta": PolicySpec.clta(30, z=1.96),
            "none": None,
        }
        self.config = PAPER_CONFIG
        self.arrival = ArrivalSpec.poisson(
            PAPER_CONFIG.arrival_rate_for_load(LOAD_CPUS)
        )
        self.fleet_spec = FleetSpec(
            n_nodes=FLEET_NODES,
            shards=FLEET_SHARDS,
            scheduler=SchedulerSpec.rolling(capacity_floor=FLEET_FLOOR),
        )
        self.fleet_config = dataclasses.replace(
            PAPER_CONFIG, rejuvenation_downtime_s=FLEET_DOWNTIME_S
        )
        self.fleet_arrival = ArrivalSpec.poisson(FLEET_RATE)

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def round(self, ops: Ops, k: int) -> None:
        from repro.ecommerce.runner import run_replications

        rec = self.rec
        seed = 1000 * self.seed + 10 * k
        means = {}
        for label, policy in self.policies.items():

            def single(policy=policy):
                with rec.span("ecommerce.run_replications", "ecommerce"):
                    return run_replications(
                        self.config,
                        arrival=self.arrival,
                        policy=policy,
                        n_transactions=N_SINGLE,
                        replications=1,
                        seed=seed,
                        backend="serial",
                    ).runs[0]

            run = ops.call(label, single)
            if run is None:
                continue
            self._check_conservation(ops, label, run, N_SINGLE)
            if label == "none":
                ops.check(
                    run.rejuvenations == 0,
                    f"no-policy run rejuvenated {run.rejuvenations} times",
                )
            means[label] = run.avg_response_time
        if "none" in means:
            for label in ("sraa", "saraa", "clta"):
                if label in means:
                    ops.check(
                        means[label] < means["none"],
                        f"{label} mean RT {means[label]:.3f}s not below "
                        f"no-policy {means['none']:.3f}s",
                    )
        self._mmc(ops, seed + 1)
        self._fleet(ops, seed + 2)
        self._ctmc(ops)

    def _check_conservation(self, ops: Ops, label: str, run, n: int) -> None:
        ops.check(
            run.completed + run.lost == run.arrivals == n,
            f"{label}: completed {run.completed} + lost {run.lost} vs "
            f"arrivals {run.arrivals}, N {n}",
        )

    def _mmc(self, ops: Ops, seed: int) -> None:
        from repro.ecommerce.runner import simulate_mmc_response_times

        def mmc():
            with self.rec.span(
                "ecommerce.simulate_mmc_response_times", "ecommerce"
            ):
                return simulate_mmc_response_times(
                    0.2 * MMC_LOAD_CPUS, N_MMC, seed=seed
                )

        rts = ops.call("mmc", mmc)
        if rts is None:
            return
        self.mmc_rts = rts
        ops.check(len(rts) == N_MMC, f"mmc: {len(rts)} of {N_MMC} completed")
        for what, series, expected in (
            ("mean RT", rts, self.mmc_mean),
            (
                f"P(RT > {MMC_TAIL_AT_S:g}s)",
                (rts > MMC_TAIL_AT_S).astype(float),
                self.mmc_tail,
            ),
        ):
            usable = len(series) // MMC_BATCHES * MMC_BATCHES
            batches = series[:usable].reshape(MMC_BATCHES, -1).mean(axis=1)
            se = float(batches.std(ddof=1) / math.sqrt(MMC_BATCHES))
            value = float(series.mean())
            ops.check(
                abs(value - expected) <= MMC_TOLERANCE_SE * se,
                f"mmc {what} {value:.5f} vs oracle {expected:.5f} "
                f"(batch-means SE {se:.5f})",
            )

    def _fleet(self, ops: Ops, seed: int) -> None:
        fleet_box = []

        def fleet():
            with self.rec.span("systems.FleetSystem.run", "systems"):
                system = self.fleet_spec.build(
                    self.fleet_config,
                    self.fleet_arrival,
                    self.policies["sraa"],
                    seed=seed,
                )
                result = system.run(N_FLEET)
            fleet_box.append(system)
            return result

        result = ops.call("fleet", fleet)
        if result is None:
            return
        system = fleet_box[0]
        self._check_conservation(ops, "fleet", result, N_FLEET)
        self.grants = len(system.grant_log)
        spec = self.fleet_spec
        for offset, size in zip(spec.shard_offsets(), spec.shard_sizes()):
            allowed = math.floor((1.0 - FLEET_FLOOR) * size + 1e-9)
            windows = [
                (start, until)
                for start, node, until in system.grant_log
                if offset <= node < offset + size
            ]
            peak = max_concurrent(windows)
            ops.check(
                peak <= allowed,
                f"fleet shard at {offset}: {peak} nodes down at once, "
                f"floor allows {allowed}",
            )

    def _ctmc(self, ops: Ops) -> None:
        from repro.ctmc.sample_mean import clt_false_alarm_probability
        from repro.queueing.mmc import MMcModel

        def false_alarm():
            with self.rec.span("ctmc.clt_false_alarm_probability", "ctmc"):
                model = MMcModel(
                    arrival_rate=1.6, service_rate=0.2, servers=16
                )
                return {
                    n: clt_false_alarm_probability(model, n) for n in (15, 30)
                }

        probabilities = ops.call("ctmc", false_alarm)
        if probabilities is None:
            return
        for n, value in probabilities.items():
            ops.check(
                math.isclose(value, self.false_alarm[n], rel_tol=1e-6),
                f"CLTA n={n}: program {value:.6f} vs exact oracle "
                f"{self.false_alarm[n]:.6f}",
            )
            # The exact value is 3.71 % / 3.40 %; the paper quotes 3.69 %
            # / 3.37 %, so the quoted figures are held to 0.05 points.
            ops.check(
                abs(value - oracles.PAPER_FALSE_ALARM[n]) <= 5e-4,
                f"CLTA n={n}: {100 * value:.2f}% vs paper "
                f"{100 * oracles.PAPER_FALSE_ALARM[n]:.2f}%",
            )

    # ------------------------------------------------------------------
    def details(self, ops: Ops) -> List[Tuple[str, float, str]]:
        """The workload's user-facing figures (medians over rounds)."""
        rounds = min(len(ops.times[label]) for label in self.policies)
        single = [
            len(self.policies)
            * N_SINGLE
            / sum(ops.times[label][i] for label in self.policies)
            for i in range(rounds)
        ]
        out = []
        if single:
            out.append(("sim_txn_per_s", median(single), "txn/s"))
        if ops.times["fleet"]:
            out.append(
                (
                    "fleet_txn_per_s",
                    median([N_FLEET / t for t in ops.times["fleet"]]),
                    "txn/s",
                )
            )
        return out

    def layer_metrics(self, ops: Ops) -> Dict[str, Tuple[float, str]]:
        """Per-layer figures from one traced round plus the probes."""
        from repro.des.engine import Simulator
        from repro.ecommerce.system import ECommerceSystem
        from repro.ecommerce.workload import PoissonArrivals

        rec = self.rec
        out: Dict[str, Tuple[float, str]] = {}
        for label in self.policies:
            out[f"ecommerce.txn_per_s.{label}"] = (
                N_SINGLE / ops.times[label][-1],
                "txn/s",
            )
        out["ecommerce.txn_per_s.mmc"] = (N_MMC / ops.times["mmc"][-1], "txn/s")
        out["systems.fleet_s"] = (ops.times["fleet"][-1], "s")
        out["systems.grants"] = (float(self.grants), "count")
        out["ctmc.false_alarm_ms"] = (1e3 * ops.times["ctmc"][-1], "ms")

        rng = np.random.default_rng(self.seed)
        delays = rng.uniform(0.0, 1000.0, NOOP_EVENTS).tolist()

        def noop() -> None:
            pass

        sim = Simulator()
        with rec.span("des.Simulator.schedule+run", "des"):
            started = time.perf_counter()
            for delay in delays:
                sim.schedule(delay, noop)
            fired = sim.run()
            elapsed = time.perf_counter() - started
        out["des.events_per_s"] = (fired / elapsed, "1/s")

        policy = self.policies["sraa"].build()
        system = ECommerceSystem(
            self.config,
            PoissonArrivals(self.config.arrival_rate_for_load(LOAD_CPUS)),
            policy=policy,
            seed=self.seed,
        )
        with rec.span("ecommerce.ECommerceSystem.run", "ecommerce"):
            system.run(EVENTS_PROBE_TXN)
        out["des.events_per_txn"] = (
            system.sim.events_fired / EVENTS_PROBE_TXN,
            "events/txn",
        )

        stream = self.mmc_rts.tolist()
        for label in ("sraa", "saraa", "clta"):
            policy = self.policies[label].build()
            observe = policy.observe
            with rec.span(f"core.{label}.observe", "core"):
                started = time.perf_counter()
                for value in stream:
                    observe(value)
                elapsed = time.perf_counter() - started
            out[f"core.observe_ns.{label}"] = (1e9 * elapsed / len(stream), "ns")
        return out


def max_concurrent(windows) -> int:
    """Most ``[start, until)`` windows open at one instant."""
    live = [(start, until) for start, until in windows if until > start]
    # At equal times the -1 of a closing window sorts before the +1 of
    # an opening one: back-to-back downtimes do not overlap.
    edges = sorted([(start, 1) for start, _ in live] + [(until, -1) for _, until in live])
    peak = current = 0
    for _, step in edges:
        current += step
        peak = max(peak, current)
    return peak
