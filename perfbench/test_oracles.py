"""Hand-derivable checks of the benchmark's oracles.

Run with ``python3 -m pytest perfbench/test_oracles.py``.
"""

import math

import pytest

import oracles


def test_mm1_reduces_to_textbook():
    # M/M/1: P(wait) = rho, E[T] = 1/(mu - lambda), T ~ Exp(mu - lambda).
    lam, mu = 0.5, 1.0
    assert oracles.erlang_c(1, lam, mu) == pytest.approx(0.5)
    assert oracles.mmc_mean_response(1, lam, mu) == pytest.approx(2.0)
    for t in (0.0, 1.0, 3.7):
        assert oracles.mmc_response_sf(t, 1, lam, mu) == pytest.approx(
            math.exp(-(mu - lam) * t)
        )


def test_mm2_erlang_c_by_hand():
    # c=2, a=1: C = (a^2/2 / (1 - 1/2)) / (1 + a + a^2/2 / (1/2)) = 1/3.
    assert oracles.erlang_c(2, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    # E[T] = 1 + (1/3) / (2 - 1).
    assert oracles.mmc_mean_response(2, 1.0, 1.0) == pytest.approx(4.0 / 3.0)


def test_tail_equal_rates_branch():
    # theta == mu (c=2, lambda=mu): hypoexponential becomes Erlang(2, mu).
    lam = mu = 1.0
    waits = oracles.erlang_c(2, lam, mu)
    t = 1.5
    expected = (1 - waits) * math.exp(-t) + waits * math.exp(-t) * (1 + t)
    assert oracles.mmc_response_sf(t, 2, lam, mu) == pytest.approx(expected)


def test_tail_starts_at_one_and_integrates_to_mean():
    from scipy import integrate

    args = (16, 2.4, 0.2)
    assert oracles.mmc_response_sf(0.0, *args) == pytest.approx(1.0)
    mean, _ = integrate.quad(
        lambda t: oracles.mmc_response_sf(t, *args), 0.0, math.inf
    )
    assert mean == pytest.approx(oracles.mmc_mean_response(*args))


def test_unstable_queue_rejected():
    with pytest.raises(ValueError):
        oracles.erlang_c(2, 2.0, 1.0)


def test_clta_false_alarm_n1_is_the_tail():
    # n=1: P(T > mean + z sigma), straight from the tail formula.
    from scipy import stats

    args = (16, 1.6, 0.2)
    waits = oracles.erlang_c(*args)
    theta = 16 * 0.2 - 1.6
    mean = 5.0 + waits / theta
    sigma = math.sqrt(25.0 + waits * (2 - waits) / theta**2)
    threshold = mean + stats.norm.ppf(0.975) * sigma
    assert oracles.clta_false_alarm(1, *args) == pytest.approx(
        oracles.mmc_response_sf(threshold, *args), rel=1e-7
    )


def test_clta_false_alarm_near_paper_figures():
    # The exact value sits within 0.05 percentage points of the figures
    # the paper quotes (3.71 % and 3.40 % exactly, 3.69 % and 3.37 %
    # quoted) and shrinks towards the nominal 2.5 % as n grows.
    p15 = oracles.clta_false_alarm(15)
    p30 = oracles.clta_false_alarm(30)
    assert p15 == pytest.approx(oracles.PAPER_FALSE_ALARM[15], abs=5e-4)
    assert p30 == pytest.approx(oracles.PAPER_FALSE_ALARM[30], abs=5e-4)
    assert 0.025 < p30 < p15
