"""Shared machinery: operation accounting, checks, timing and reporting.

Every workload runs whole *rounds*: a fixed list of operations, each
in a named class.  :class:`Ops` counts attempts and failures per class,
keeps the wall time of each operation, and collects the
output checks that failed.  Check time is never part of an
operation's time.
"""

from __future__ import annotations

import importlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class OpFailed(Exception):
    """An operation the program did not complete (e.g. a CLI exit != 0)."""


class Ops:
    """Attempted/failed counts, per-operation times and failed checks."""

    def __init__(self, rec: Any) -> None:
        self.rec = rec
        self.rounds = 0
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        #: Wall seconds of each successful operation, per class.
        self.times: Dict[str, List[float]] = defaultdict(list)
        #: Wall seconds of every operation, failed ones included.
        self.wall: Dict[str, List[float]] = defaultdict(list)
        self.errors: List[str] = []
        self.check_failures: List[str] = []
        #: Seconds of the reference loop, timed before every operation.
        self.cal: List[float] = []
        #: Per class, the machine's slowdown when each operation started:
        #: that loop's time over ``REFERENCE_LOOP_S``.
        self.speed: Dict[str, List[float]] = defaultdict(list)

    def call(
        self, cls: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Run one operation of class ``cls``; ``None`` when it failed."""
        loop = reference_loop_s()
        self.cal.append(loop)
        self.speed[cls].append(loop / REFERENCE_LOOP_S)
        self.rec.start_op(cls)
        self.attempted[cls] += 1
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - counted, not raised
            self.wall[cls].append(time.perf_counter() - started)
            self.failed[cls] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{cls}: {type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - started
        self.wall[cls].append(elapsed)
        self.times[cls].append(elapsed)
        return result

    def check(self, ok: bool, message: str) -> bool:
        """Record an output check; a failure makes the run incorrect."""
        if not ok and len(self.check_failures) < 50:
            self.check_failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.check_failures

    def scaled(self, corrected: bool) -> Dict[str, List[float]]:
        """Every operation's wall time, per class; with ``corrected``,
        each divided by the slowdown measured just before it started."""
        if not corrected:
            return self.wall
        return {
            cls: [t / f for t, f in zip(self.wall[cls], self.speed[cls])]
            for cls in self.wall
        }

    def op_gmean_s(self, corrected: bool = False) -> float:
        """Typical operation time: the geometric mean, over every operation
        class attempted, of each class's median wall time.

        Failed operations count with the time they took, so the set of
        classes is fixed by the workload: mending a class that fails
        today changes its time, not which classes the figure covers.
        Every kind of operation weighs the same whatever its size, so
        the figure moves by the same factor when any one class gets
        faster, and one noisy class cannot dominate it.
        """
        times = self.scaled(corrected)
        medians = [median(times[cls]) for cls in self.attempted]
        return math.exp(sum(math.log(m) for m in medians) / len(medians))

    def round_s(self, corrected: bool = False) -> float:
        """One round's wall time, each operation at its class median.

        Costing the fixed operation mix at per-class medians keeps one
        slow outlier (a subprocess start-up hit by a neighbour) from
        moving the figure, while any change to one class still moves
        it by exactly that class's share of the round.
        """
        return sum(self.class_round_s(corrected).values())

    def class_round_s(self, corrected: bool = False) -> Dict[str, float]:
        """Each class's share of :meth:`round_s`, in seconds."""
        times = self.scaled(corrected)
        return {
            cls: median(times[cls]) * count / self.rounds
            for cls, count in self.attempted.items()
        }

    def sensitivity(self, bounds: Dict[str, float]) -> str:
        """How much one class alone must slow down to fail each gate.

        ``round_s`` rises by ``bound`` once a class with share ``s`` of
        the round slows by ``1 + bound / s``; ``op_gmean_ms`` once any
        one of ``k`` classes slows by ``(1 + bound) ** k``.
        """
        shares = self.class_round_s()
        total = sum(shares.values())
        k = len(shares)
        gmean = (1.0 + bounds["op_gmean_ms"]) ** k
        lines = [
            f"  {'operation':<18} {'share':>7} {'round_s fails at':>17} "
            f"{'op_gmean_ms fails at':>21}"
        ]
        for cls in sorted(shares, key=shares.get, reverse=True):
            share = shares[cls] / total
            lines.append(
                f"  {cls:<18} {share:>7.1%} "
                f"{1.0 + bounds['round_s'] / share:>16.2f}x {gmean:>20.2f}x"
            )
        return "\n".join(lines)

    def absorb(self, other: "Ops") -> None:
        """Add another set of rounds' counts and checks to these."""
        self.rounds += other.rounds
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)
        for cls, values in other.times.items():
            self.times[cls].extend(values)
        for cls, values in other.wall.items():
            self.wall[cls].extend(values)
        for cls, values in other.speed.items():
            self.speed[cls].extend(values)
        self.cal.extend(other.cal)
        self.errors.extend(other.errors)
        self.check_failures.extend(other.check_failures)

    def table(self) -> str:
        lines = [
            f"  {'operation':<18} {'attempted':>9} {'failed':>7} "
            f"{'median_s':>10}  (failed operations included)"
        ]
        for cls in sorted(self.attempted):
            median = f"{statistics.median(self.wall[cls]):10.4f}"
            lines.append(
                f"  {cls:<18} {self.attempted[cls]:>9d} "
                f"{self.failed[cls]:>7d} {median}"
            )
        return "\n".join(lines)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, n)`` at the highest percentile that has ten
    samples beyond it, or ``None`` below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def python_env(root: str) -> Dict[str, str]:
    """Environment for child interpreters running the program from source."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_python(
    root: str, args: Sequence[str], cwd: str, timeout: float = 120.0
) -> subprocess.CompletedProcess:
    """Run ``python3 <args>`` against the source tree; wait for it."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=python_env(root),
        capture_output=True,
        timeout=timeout,
        check=False,
    )


def fresh_import(modules: Sequence[str]) -> None:
    """Import ``modules`` afresh in this process: the set-up a run pays.

    Every ``repro`` module is dropped from ``sys.modules`` first, so the
    package's module code runs again (numpy and scipy stay loaded).
    Objects made before the call belong to the dropped modules: callers
    rebuild what they use.
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)


#: The reference loop's time at the reference interpreter speed (the
#: 2-core x86_64 machine of the README's figures, when it ran fast).
REFERENCE_LOOP_S = 1.5e-3


def reference_loop_s() -> float:
    """Seconds of a fixed pure-Python loop (about 1.5 ms).

    Timed before every operation.  The shared machines this runs on
    change speed by tens of percent within minutes; dividing a run's
    operation times by ``median(loop) / REFERENCE_LOOP_S`` expresses
    them at the reference speed, which removes that drift without
    touching what the program does.
    """
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - started


def environment(root: str) -> Dict[str, Any]:
    """Where the numbers came from, so runs on other machines never mix."""
    import numpy
    import scipy

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git", *args),
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10.0,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only the checkout's own repository counts, not one enclosing it.
    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and os.path.realpath(top) == os.path.realpath(
        root
    )
    sha = git("rev-parse", "HEAD") if inside else None
    status = git("status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }
