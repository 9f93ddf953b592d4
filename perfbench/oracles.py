"""Independent oracles for the benchmark's output checks.

Everything here is written from the textbook formulas, without
importing ``repro.queueing`` or ``repro.ctmc``, so a fault in the
program's own analytics cannot hide behind a matching fault in the
check.

* Erlang C: the probability that an M/M/c arrival waits, and the mean
  response time ``1/mu + C / (c mu - lambda)``.
* The exact FCFS M/M/c response-time tail: the response time is a
  service time ``Exp(mu)`` plus, with probability ``C``, a wait
  ``Exp(c mu - lambda)``.
* The exact CLTA false-alarm probability: the sum of ``n`` i.i.d.
  response times is ``Erlang(n, mu)`` plus ``Erlang(K, c mu - lambda)``
  with ``K ~ Binomial(n, C)``; its tail beyond the normal 97.5 %
  quantile is integrated numerically.
* The paper's quoted false-alarm figures (Section 4.1).
"""

from __future__ import annotations

import math
from typing import Dict

#: Section 4.1: exact CLTA false-alarm probability at the 97.5 % normal
#: quantile, M/M/16 at lambda = 1.6, mu = 0.2, as the paper quotes it.
PAPER_FALSE_ALARM: Dict[int, float] = {15: 0.0369, 30: 0.0337}


def _check_stable(servers: int, arrival_rate: float, service_rate: float):
    if servers < 1 or arrival_rate <= 0.0 or service_rate <= 0.0:
        raise ValueError("need servers >= 1 and positive rates")
    if arrival_rate >= servers * service_rate:
        raise ValueError("unstable queue: lambda >= c * mu")


def erlang_c(servers: int, arrival_rate: float, service_rate: float) -> float:
    """Probability that an arrival has to wait in an M/M/c queue."""
    _check_stable(servers, arrival_rate, service_rate)
    offered = arrival_rate / service_rate
    rho = offered / servers
    # Terms a^k / k! built incrementally (no overflow for c in the tens).
    term = 1.0
    below = 0.0
    for k in range(servers):
        below += term
        term *= offered / (k + 1)
    waiting = term / (1.0 - rho)
    return waiting / (below + waiting)


def mmc_mean_response(
    servers: int, arrival_rate: float, service_rate: float
) -> float:
    """Mean response time (wait + service) of an M/M/c queue."""
    wait_rate = servers * service_rate - arrival_rate
    return 1.0 / service_rate + erlang_c(
        servers, arrival_rate, service_rate
    ) / wait_rate


def mmc_response_sf(
    t: float, servers: int, arrival_rate: float, service_rate: float
) -> float:
    """``P(T > t)`` for the FCFS M/M/c response time ``T``."""
    if t < 0.0:
        return 1.0
    waits = erlang_c(servers, arrival_rate, service_rate)
    mu = service_rate
    theta = servers * service_rate - arrival_rate
    if math.isclose(theta, mu):
        hypo = math.exp(-mu * t) * (1.0 + mu * t)
    else:
        hypo = (theta * math.exp(-mu * t) - mu * math.exp(-theta * t)) / (
            theta - mu
        )
    return (1.0 - waits) * math.exp(-mu * t) + waits * hypo


def clta_false_alarm(
    n: int,
    servers: int = 16,
    arrival_rate: float = 1.6,
    service_rate: float = 0.2,
) -> float:
    """Exact ``P(mean of n response times > mu_T + z_.975 sigma_T/sqrt(n))``."""
    from scipy import integrate, special, stats

    if n < 1:
        raise ValueError("need n >= 1")
    waits = erlang_c(servers, arrival_rate, service_rate)
    mu = service_rate
    theta = servers * service_rate - arrival_rate
    mean = 1.0 / mu + waits / theta
    var = 1.0 / mu**2 + waits * (2.0 - waits) / theta**2
    threshold = n * (mean + stats.norm.ppf(0.975) * math.sqrt(var / n))
    log_norm = n * math.log(mu) - math.lgamma(n)

    def service_pdf(s: float) -> float:
        # Erlang(n, mu) density.
        if s <= 0.0:
            return 0.0
        return math.exp(log_norm + (n - 1) * math.log(s) - mu * s)

    service_sf = special.gammaincc(n, mu * threshold)
    total = 0.0
    for k in range(n + 1):
        weight = math.comb(n, k) * waits**k * (1.0 - waits) ** (n - k)
        tail = service_sf
        if k:
            # P(S + W > x) = P(S > x) + int_0^x f_S(s) P(W > x - s) ds.
            inner, _ = integrate.quad(
                lambda s: service_pdf(s)
                * special.gammaincc(k, theta * (threshold - s)),
                0.0,
                threshold,
                limit=200,
            )
            tail += inner
        total += weight * tail
    return total
