"""Mittag-Leffler evaluation against frozen external references."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwave import (
    GrowthEnvelope,
    MittagLefflerRangeError,
    MlParams,
    TruncationError,
    check_growth_bound,
    mittag_leffler,
    mittag_leffler_hp,
    series_term_count,
)
from fracwave import special, validation
from fracwave.cli import entrypoint

# 60-digit series sums, computed once with mpmath and frozen
REFERENCE = [
    (1.5, 1.0, 2.3 + 0.0j, 3.8881877517691728458 + 0.0j),
    (0.7, 1.3, -2.5 + 0.0j, 0.26376151727226788852 + 0.0j),
    (1.1, 1.1, 1.0 + 2.0j, -0.21804173037332171954 + 2.5670996129911913115j),
    (1.9, 2.8, -7.0 + 0.0j, 0.26305087278626612269 + 0.0j),
]


def test_frozen_references():
    for alpha, beta, z, ref in REFERENCE:
        val = mittag_leffler(MlParams(alpha, beta), z)
        assert abs(val - ref) <= 5e-14 * abs(ref)


def test_exponential_special_case():
    p = MlParams(1.0, 1.0)
    for t in np.linspace(-5.0, 5.0, 41):
        assert abs(mittag_leffler(p, t) - math.exp(t)) <= 1e-13 * math.exp(abs(t))


def test_cosine_special_case():
    p = MlParams(2.0, 1.0)
    for t in np.linspace(0.0, 10.0, 81):
        assert abs(mittag_leffler(p, -(t**2)) - math.cos(t)) <= 5e-14


def test_half_order_erfc_identity():
    # E_{1/2}(1) = e * erfc(-1)
    val = mittag_leffler(MlParams(0.5, 1.0), 1.0)
    ref = math.e * math.erfc(-1.0)
    assert abs(val - ref) <= 1e-14 * ref


def _oracle_dps(alpha, z):
    """Digits for a fixed-precision series sum at z: the largest term is near
    exp(|z|**(1/alpha)), so the digits grow with |z|."""
    return 40 + int(abs(z) ** (1.0 / alpha) / 2.2)


def test_cancellation_retry_matches_hp():
    # large negative argument forces the high precision path; the largest
    # term is near 1e102, so the oracle needs about as many digits
    p = MlParams(0.8, 1.0)
    val = mittag_leffler(p, -80.0)
    ref = mittag_leffler_hp(0.8, 1.0, -80.0, dps=_oracle_dps(0.8, -80.0))
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_params_validation():
    with pytest.raises(ValueError):
        MlParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MlParams(2.2, 1.0)
    with pytest.raises(ValueError):
        MlParams(1.5, 0.0)
    with pytest.raises(ValueError):
        MlParams(1.5, 1.0, tol=0.0)
    # the closed upper endpoint is allowed
    MlParams(2.0, 1.0)


def test_argument_range_gate():
    p = MlParams(1.5, 1.0)
    with pytest.raises(MittagLefflerRangeError):
        mittag_leffler(p, 250.0)
    with pytest.raises(MittagLefflerRangeError):
        mittag_leffler(p, complex(math.nan, 0.0))


def test_term_count_monotonicity():
    n_loose = series_term_count(1.5, 1.0, 4.0, 1e-6)
    n_tight = series_term_count(1.5, 1.0, 4.0, 1e-12)
    assert 0 < n_loose <= n_tight
    assert series_term_count(1.5, 1.0, 0.0, 1e-12) == 0
    assert series_term_count(1.5, 1.0, 8.0, 1e-12) >= n_tight
    with pytest.raises(ValueError):
        series_term_count(1.5, 1.0, -1.0, 1e-12)
    with pytest.raises(TruncationError):
        series_term_count(0.1, 1.0, 150.0, 1e-300)


def test_term_count_rejects_an_overflowing_majorant():
    # the partial sum overflows to inf before the tail test passes, so a
    # stop there would certify nothing
    with pytest.raises(TruncationError, match="overflows"):
        series_term_count(1.05, 1.0, 1065.54, 1e-12)
    # an argument that itself overflowed is the same failure, not a bad argument
    with pytest.raises(TruncationError, match="overflows"):
        series_term_count(1.5, 1.0, math.inf, 1e-12)
    with pytest.raises(ValueError):
        series_term_count(1.5, 1.0, math.nan, 1e-12)


def test_series_stops_at_the_first_infinite_term():
    # term 466 of this majorant overflows; summing on to the term cap
    # cannot certify anything
    _, stopped, n, _, abs_sum = special._series(
        1065.54, 1.0, special._ratio_table(1.05, 1.0, None), 1e-12, 1e-300
    )
    assert not stopped and abs_sum == math.inf
    assert n < special._MAX_TERMS


def test_growth_envelope():
    env = check_growth_bound(MlParams(1.5, 1.0), np.linspace(0.0, 4.0, 9), np.linspace(0.0, 5.0, 11))
    assert isinstance(env, GrowthEnvelope)
    assert env.n_nonfinite == 0
    assert env.c >= 1.0
    assert np.all(env.ratios <= env.c + 1e-12)
    with pytest.raises(ValueError):
        check_growth_bound(MlParams(2.0, 1.0), [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        check_growth_bound(MlParams(1.5, 1.0), [-1.0], [1.0])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    alpha=st.floats(0.7, 2.0),
    beta=st.floats(0.3, 3.0),
    re=st.floats(-12.0, 12.0),
    im=st.floats(-12.0, 12.0),
)
def test_double_path_agrees_with_hp(alpha, beta, re, im):
    # alpha and |z| are kept where the cancellation budget stays in the
    # hundreds of digits; the far corners take minutes, not milliseconds
    z = complex(re, im)
    val = mittag_leffler(MlParams(alpha, beta), z)
    ref = mittag_leffler_hp(alpha, beta, z, dps=40)
    assert abs(val - ref) <= 1e-11 * max(abs(ref), 1e-30)


# negative real arguments the double path cannot certify, so every one takes
# a retry rung: the double-double sum, or past its budget (alpha = 1 at -60)
# the mpmath retry, which escalates to 80 digits at (1, 1, -60)
RETRY_CASES = [
    (alpha, beta, -x)
    for alpha in (1.0, 1.5, 2.0)
    for beta in (0.1, 1.0, 1.9)
    for x in (10.0, 60.0)
] + [(1.5, 1.0, complex(-28.5, 9.25))]


def _counting_retry(monkeypatch):
    calls = []
    retry = special._series_hp

    def counted(alpha, beta, z, tol):
        calls.append(z)
        return retry(alpha, beta, z, tol)

    monkeypatch.setattr(special, "_series_hp", counted)
    return calls


def _counting_rungs(monkeypatch):
    """Record the arguments every retry rung is handed: double-double arrays and mpmath-retry scalars."""
    calls = _counting_retry(monkeypatch)
    rung = special._series_dd

    def counted(z, table, tol):
        calls.extend(z.tolist())
        return rung(z, table, tol)

    monkeypatch.setattr(special, "_series_dd", counted)
    return calls


@pytest.mark.parametrize("alpha, beta, z", RETRY_CASES)
def test_retry_tables_give_cold_values_warm(monkeypatch, alpha, beta, z):
    calls = _counting_rungs(monkeypatch)
    p = MlParams(alpha, beta)
    special._ratio_table.cache_clear()
    cold = mittag_leffler(p, z)
    assert calls, "the double path certified this argument; pick one that forces a retry rung"
    warm = mittag_leffler(p, z)
    special._ratio_table.cache_clear()
    mittag_leffler(p, z / 4.0)  # a shorter table, then extended by the full argument
    extended = mittag_leffler(p, z)
    assert repr(cold) == repr(warm) == repr(extended)
    # the oracle sums the same series definition at a fixed, higher precision
    ref = mittag_leffler_hp(alpha, beta, z, dps=120)
    assert abs(cold - complex(ref)) <= p.tol * abs(ref)


@pytest.mark.parametrize("alpha, beta, z", RETRY_CASES)
def test_retry_compares_against_its_context_constants_bit_for_bit(monkeypatch, alpha, beta, z):
    value = special._series_hp(alpha, beta, z, 1e-14)
    series = special._series
    # the same sums with their stop and overflow tests against Python floats
    monkeypatch.setattr(special, "_series", lambda *args, half, inf, **kwargs: series(*args, **kwargs))
    assert repr(special._series_hp(alpha, beta, z, 1e-14)) == repr(value)


def _held(alpha, beta, dps):
    hits = special._ratio_table.cache_info().hits
    special._ratio_table(alpha, beta, dps)
    return special._ratio_table.cache_info().hits == hits + 1


def test_retry_escalates_past_forty_digits():
    special._ratio_table.cache_clear()
    mittag_leffler(MlParams(1.0, 1.0), -60.0)
    assert _held(1.0, 1.0, 80)


@pytest.mark.parametrize("alpha, beta, z", [case for case in RETRY_CASES if isinstance(case[2], float)])
def test_real_retry_sums_the_complex_retry_bit_for_bit(alpha, beta, z):
    real = special._series_hp(alpha, beta, z, 1e-14)
    assert repr(real) == repr(special._series_hp(alpha, beta, complex(z, 0.0), 1e-14))


@pytest.mark.parametrize("alpha, beta, z", [case for case in RETRY_CASES if isinstance(case[2], float)])
def test_real_retry_lies_within_tol_of_the_oracle(alpha, beta, z):
    special._ratio_table.cache_clear()
    p = MlParams(alpha, beta)
    val = special._series_hp(alpha, beta, z, p.tol)
    ref = mittag_leffler_hp(alpha, beta, z, dps=120)
    assert abs(val - complex(ref)) <= p.tol * abs(ref)


def test_a_real_argument_past_the_double_double_budget_takes_the_mpmath_retry(monkeypatch):
    # e**60 of cancellation: the double-double rung cannot certify it
    calls = _counting_retry(monkeypatch)
    special._ratio_table.cache_clear()
    p = MlParams(1.0, 0.1)
    val = mittag_leffler(p, -60.0)
    assert calls == [-60.0]
    ref = mittag_leffler_hp(1.0, 0.1, -60.0, dps=120)
    assert abs(val - complex(ref)) <= p.tol * abs(ref)


def _check_arguments(monkeypatch):
    """(params, argument array) of every mittag_leffler call of validate checks 1, 4 and 10."""
    seen = []

    def recording(p, z):
        seen.append((p, np.array(z, dtype=float)))
        return mittag_leffler(p, z)

    with monkeypatch.context() as m:
        m.setattr(validation, "mittag_leffler", recording)
        for index in (1, 4, 10):
            validation.run_one(index)
    return seen


def test_validate_checks_1_4_and_10_need_no_mpmath_retry(monkeypatch):
    # the double-double rung certifies every argument the double path leaves
    # (395 of them, each once a high-precision sum)
    cases = _check_arguments(monkeypatch)
    calls = _counting_retry(monkeypatch)
    for p, z in cases:
        mittag_leffler(p, z)
    assert len(cases) == 17 and calls == []


def _refusing_retry(monkeypatch):
    def refuse(alpha, beta, z, tol):
        raise AssertionError(f"the high-precision retry ran at {z!r}")

    monkeypatch.setattr(special, "_series_hp", refuse)


@pytest.mark.parametrize(
    "alpha, beta, z, reason",
    [
        # the largest term, near term 80000, lies past the 10000 the sums may take
        (0.5, 1.0, -200.0, "needs more than 10000 terms"),
        # every term is positive, and the largest is near exp(6290)
        (0.6, 1.0, 190.0, "overflows double precision"),
    ],
)
def test_a_hopeless_argument_is_refused_before_the_retry(monkeypatch, alpha, beta, z, reason):
    _refusing_retry(monkeypatch)
    for arg in (z, np.array([0.5, z])):
        with pytest.raises(MittagLefflerRangeError, match=reason):
            mittag_leffler(MlParams(alpha, beta), arg)


@pytest.mark.parametrize("source", ["retry cases", "checks 1, 4 and 10"])
def test_the_refusal_leaves_every_value_it_lets_through(monkeypatch, source):
    if source == "retry cases":
        cases = [(MlParams(a, b), np.array([z])) for a, b, z in RETRY_CASES]
    else:
        cases = _check_arguments(monkeypatch)
    judged = []
    hopeless = special._hopeless
    monkeypatch.setattr(special, "_hopeless", lambda *args: judged.append(args) or hopeless(*args))
    values = [mittag_leffler(p, z) for p, z in cases]
    monkeypatch.setattr(special, "_hopeless", lambda *args: None)
    for (p, z), value in zip(cases, values):
        assert value.tobytes() == mittag_leffler(p, z).tobytes()
    # the retry cases past the double-double budget were judged, and let through
    assert (len(judged) == 4) if source == "retry cases" else (judged == [])


@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 1.9, 2.0])
@pytest.mark.parametrize("beta", [0.1, 1.0, 1.9])
def test_double_double_values_lie_within_tol_of_the_oracle(alpha, beta):
    z = -np.geomspace(0.25, 200.0, 15)
    tol = 1e-14
    value, certified = special._series_dd(z, special._ratio_table(alpha, beta, 40), tol)
    # the small arguments certify, and at alpha = 1 the far end cancels past the budget
    assert certified[:4].all() and (alpha != 1.0 or not certified[-1])
    for zk, vk in zip(z[certified].tolist(), value[certified].tolist()):
        ref = complex(mittag_leffler_hp(alpha, beta, zk, dps=_oracle_dps(alpha, zk)))
        assert abs(vk - ref) <= tol * abs(ref)


@pytest.mark.parametrize("source", ["retry cases", "checks 1, 4 and 10"])
def test_double_double_values_are_the_mpmath_retry_bit_for_bit(monkeypatch, source):
    if source == "retry cases":
        cases = [(MlParams(a, b), np.array([z])) for a, b, z in RETRY_CASES if isinstance(z, float)]
    else:
        cases = _check_arguments(monkeypatch)
    n_both = 0
    for p, z in cases:
        z = z.ravel()
        value, certified = special._series_dd(z, special._ratio_table(p.alpha, p.beta, 40), p.tol)
        for zk, vk in zip(z[certified].tolist(), value[certified].tolist()):
            assert repr(complex(vk)) == repr(special._series_hp(p.alpha, p.beta, zk, p.tol))
            n_both += 1
    # only alpha = 1 at -60 lies past the budget
    assert n_both == (15 if source == "retry cases" else sum(z.size for _, z in cases))


def test_an_argument_past_the_double_double_budget_reaches_the_retry_at_80_digits(monkeypatch):
    calls = _counting_retry(monkeypatch)
    special._ratio_table.cache_clear()
    value = mittag_leffler(MlParams(1.0, 1.0), -60.0)
    assert calls == [-60.0]
    assert not special._series_dd(np.array([-60.0]), special._ratio_table(1.0, 1.0, 40), 1e-14)[1][0]
    assert _held(1.0, 1.0, 80)
    assert abs(value - math.exp(-60.0)) <= 1e-14 * math.exp(-60.0)


def test_double_double_tables_give_cold_values_warm_and_extended():
    z = -np.linspace(0.5, 60.0, 25)
    for alpha, beta in ((1.5, 0.1), (2.0, 1.9), (1.25, 1.0)):
        special._ratio_table.cache_clear()
        cold = special._series_dd(z, special._ratio_table(alpha, beta, 40), 1e-14)
        warm = special._series_dd(z, special._ratio_table(alpha, beta, 40), 1e-14)
        special._ratio_table.cache_clear()
        special._series_dd(z / 4.0, special._ratio_table(alpha, beta, 40), 1e-14)
        extended = special._series_dd(z, special._ratio_table(alpha, beta, 40), 1e-14)
        assert cold[1].any()
        for got in (warm, extended):
            assert got[0].tobytes() == cold[0].tobytes() and np.array_equal(got[1], cold[1])


def test_threads_extend_the_double_double_pairs_in_order():
    table = special._RatioTable(1.3, 0.7, 40)
    barrier = threading.Barrier(6)

    def walk(offset):
        barrier.wait()
        for n in range(offset, 400, 7):
            table.pair(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    fresh = special._RatioTable(1.3, 0.7, 40)
    assert len(table.pairs) >= 394
    assert table.pairs == [fresh.pair(n) for n in range(len(table.pairs))]
    # hi is the nearest double to the 40-digit ratio, and hi + lo carries it to about 106 bits
    with mpmath.workdps(60):
        for n in (0, 17, len(table.pairs) - 1):
            ratio, (hi, lo) = table.ratios[n], table.pairs[n]
            assert hi == float(ratio) and abs(hi + mpmath.mpf(lo) - ratio) <= mpmath.mpf(2) ** -105 * ratio


def test_nonnegative_arguments_certify_in_double(monkeypatch):
    # the growth-envelope grid: no term cancels, so the double path's split
    # budget certifies every argument without the retry
    calls = _counting_retry(monkeypatch)
    omega = np.linspace(0.0, 4.0, 17)
    times = np.linspace(0.0, 5.0, 26)
    for alpha in (1.1, 1.5, 1.9):
        for beta in (alpha - 1.0, 1.0, alpha, 2.0 * alpha - 2.0):
            mittag_leffler(MlParams(alpha, beta), np.multiply.outer(omega, times**alpha))
    assert calls == []


# real, negative and complex arguments up to |z| = 60, where the negative and
# complex sums cancel: stops the double path certifies and stops it does not
ARRAY_ARGUMENTS = np.concatenate(
    [
        np.linspace(0.0, 60.0, 13),
        -np.linspace(0.25, 60.0, 13),
        np.linspace(-20.0, 20.0, 9) + 1j * np.linspace(15.0, -15.0, 9),
        [-28.5 + 9.25j, 3.0j, -3.0j],
    ]
)


@pytest.mark.parametrize("alpha", [1.0, 1.1, 1.5, 1.9, 2.0])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 1.7, 2.8])
def test_array_loop_steps_like_the_scalar_loop(alpha, beta):
    table = special._ratio_table(alpha, beta, None)
    for z in (ARRAY_ARGUMENTS.real[:26].copy(), ARRAY_ARGUMENTS):
        total, stopped, n_terms, tail, abs_sum = special._series_array(z, table.first, table, 0.5e-14, 1e-300)
        for k, zk in enumerate(z.tolist()):
            want, want_stopped, want_n, want_tail, want_abs = special._series(
                complex(zk), complex(table.first), table, 0.5e-14, 1e-300
            )
            assert (bool(stopped[k]), int(n_terms[k])) == (want_stopped, want_n)
            if z.dtype == float:
                # a real argument's complex loop multiplies by zero imaginary
                # parts only, so the real loop gives its numbers bit for bit
                assert total[k] == want and abs_sum[k] == want_abs
                assert tail[k] == (want_tail if want_stopped else math.inf)
            else:
                # numpy's complex product may round differently from Python's in
                # the last bit, so term n, a product of n factors, may drift by
                # n units of roundoff relative to its magnitude
                drift = 2.0 * (want_n + 1) * special._EPS * want_abs
                assert abs(total[k] - want) <= drift and abs(abs_sum[k] - want_abs) <= drift


def test_array_loop_stops_at_the_first_infinite_term():
    table = special._ratio_table(1.05, 1.0, None)
    z = np.array([1065.54, 1.0, 2000.0])
    _, stopped, n_terms, _, abs_sum = special._series_array(z, table.first, table, 1e-12, 1e-300)
    for k, zk in enumerate(z.tolist()):
        _, want_stopped, want_n, _, want_abs = special._series(zk, table.first, table, 1e-12, 1e-300)
        assert (bool(stopped[k]), int(n_terms[k]), abs_sum[k]) == (want_stopped, want_n, want_abs)
    assert list(stopped) == [False, True, False] and abs_sum[0] == abs_sum[2] == math.inf


def test_array_call_keeps_the_shape_and_retries_per_element(monkeypatch):
    calls = _counting_retry(monkeypatch)
    p = MlParams(1.0, 1.0)
    z = np.array([[1.0, -60.0], [0.5 + 0.5j, 2.0]])
    values = mittag_leffler(p, z)
    assert values.shape == (2, 2) and values.dtype == complex
    # only the cancelling argument was retried, and as a real number
    assert calls == [-60.0] and isinstance(calls[0], float)
    assert values[0, 1] == special._series_hp(1.0, 1.0, -60.0, p.tol)
    for zk, value in zip(z.ravel().tolist(), values.ravel().tolist()):
        assert abs(value - complex(mpmath.exp(zk))) <= 1e-14 * abs(value)
    # a scalar, a zero-dimensional array and an empty array
    assert isinstance(mittag_leffler(p, 1.0), complex)
    assert isinstance(mittag_leffler(p, np.float64(1.0)), complex)
    assert mittag_leffler(p, np.array(1.0)) == mittag_leffler(p, 1.0)
    assert mittag_leffler(p, np.zeros((0, 3))).shape == (0, 3)


def test_array_with_one_argument_out_of_range_raises():
    p = MlParams(1.5, 1.0)
    z = np.linspace(0.0, 10.0, 8)
    mittag_leffler(p, z)
    for bad in (250.0, -250.0, 200.0 + 1.0j, math.inf, math.nan):
        arg = z.astype(complex)
        arg[3] = bad
        with pytest.raises(MittagLefflerRangeError):
            mittag_leffler(p, arg)


def test_growth_grid_past_the_range_reads_nan_exactly_there():
    omega = np.linspace(0.0, 40.0, 9)
    times = np.linspace(0.0, 5.0, 11)
    p = MlParams(1.5, 1.0)
    env = check_growth_bound(p, omega, times)
    outside = np.multiply.outer(omega, times**1.5) > special.ML_HP_RANGE
    assert 0 < outside.sum() < outside.size
    assert np.array_equal(np.isnan(env.ratios), outside)
    assert env.n_nonfinite == int(outside.sum())
    # the cells inside the range are those of the grid restricted to them
    inner = check_growth_bound(p, omega[:3], times)
    assert not outside[:3].any() and np.array_equal(env.ratios[:3], inner.ratios)


def test_growth_cell_whose_retry_overflows_reads_nan_alone():
    # E_0.7(110) is near exp(110**(1/0.7)) = exp(824): its retry overflows double
    # precision, which fails that cell and no other
    env = check_growth_bound(MlParams(0.7, 1.0), [0.0, 1.0, 110.0], [1.0])
    assert env.n_nonfinite == 1 and np.isnan(env.ratios[2, 0])
    inner = check_growth_bound(MlParams(0.7, 1.0), [0.0, 1.0], [1.0])
    assert np.array_equal(env.ratios[:2], inner.ratios)


def _growth_ratio_by_cell(p, omega, t, value):
    """One envelope ratio as a scalar loop forms it, in libm's pow, log1p and exp."""

    def pow_nonneg(base, expo):
        if base > 0.0:
            return math.pow(base, expo)
        return 0.0 if expo > 0.0 else (1.0 if expo == 0.0 else math.inf)

    log_env = (
        math.log1p(pow_nonneg(omega, (1.0 - p.beta) / p.alpha))
        + math.log1p(pow_nonneg(t, 1.0 - p.beta))
        + pow_nonneg(omega, 1.0 / p.alpha) * t
    )
    if math.isinf(log_env):
        return 0.0
    if value > 0.0:
        return math.exp(math.log(value) - log_env)
    return 0.0 if value == 0.0 else math.nan


def test_growth_ratios_match_the_scalar_loop():
    # exp turns an absolute error in its argument into a relative one, and the
    # log-envelope here reaches about 20, so a few ulps of 20 bound the gap
    omega = np.linspace(0.0, 4.0, 17)
    times = np.linspace(0.0, 5.0, 26)
    for alpha in (1.1, 1.5, 1.9):
        for beta in (alpha - 1.0, 1.0, alpha, 2.0 * alpha - 2.0):
            p = MlParams(alpha, beta)
            env = check_growth_bound(p, omega, times)
            values = mittag_leffler(p, np.multiply.outer(omega, special._scalar_powers(times, alpha))).real
            want = np.array(
                [[_growth_ratio_by_cell(p, om, t, v) for t, v in zip(times, row)] for om, row in zip(omega, values)]
            )
            assert np.array_equal(env.ratios == 0.0, want == 0.0) and np.isfinite(want).all()
            assert np.allclose(env.ratios, want, rtol=1e-13, atol=0.0)
            assert env.c == 1.0 and env.n_nonfinite == 0


def test_growth_power_past_the_double_range_reads_an_infinite_envelope():
    # (1e-300)**((1 - 3)/1.1) and (1e-300)**(1 - 3) leave the double range: the
    # envelope there is infinite in double precision, so the ratio reads 0
    env = check_growth_bound(MlParams(1.1, 3.0), [1e-300, 1.0], [1e-300, 1.0])
    assert env.ratios[0, 0] == env.ratios[0, 1] == env.ratios[1, 0] == 0.0
    assert env.ratios[1, 1] > 0.0 and env.n_nonfinite == 0


def test_retry_tables_stay_at_their_cap():
    special._ratio_table.cache_clear()
    orders = [(1.0 + k / 1000.0, 1.0) for k in range(special._TABLE_CAP)]
    for alpha, beta in orders:
        mittag_leffler(MlParams(alpha, beta), -5.0)  # retried: two tables per order
    assert special._ratio_table.cache_info().currsize == special._TABLE_CAP
    # least recently used first out: the last orders are still held
    assert _held(*orders[-1], None) and _held(*orders[-1], 40)
    assert not _held(*orders[0], 40)


def test_threads_extend_one_table_in_order():
    # more threads than cores and a short switch interval, so extensions
    # interleave; a skipped or repeated term would shift every later ratio
    table = special._RatioTable(1.3, 0.7, 40)
    barrier = threading.Barrier(6)

    def walk(offset):
        barrier.wait()
        for n in range(offset, 400, 7):
            table(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    fresh = special._RatioTable(1.3, 0.7, 40)
    assert len(table.ratios) >= 394
    assert table.ratios == [fresh(n) for n in range(len(table.ratios))]


# cold arguments that read digit tables: a real and a complex one that take
# the mpmath retry, and a real one the double-double rung certifies
INTERFERENCE_CASES = [(1.0, 0.1, -60.0), (1.5, 1.0, complex(-28.5, 9.25)), (1.0, 1.0, -10.0)]


def test_values_ignore_the_precision_left_in_mpmath(monkeypatch):
    def cold_values():
        values = []
        for alpha, beta, z in INTERFERENCE_CASES:
            special._ratio_table.cache_clear()
            values.append(repr(mittag_leffler(MlParams(alpha, beta), z)))
        return values

    want = cold_values()

    def at_low_precision(f):
        # what another thread's workdps exit leaves in mpmath's shared context
        def patched(*args, **kwargs):
            mpmath.mp.prec = 20
            return f(*args, **kwargs)

        return patched

    monkeypatch.setattr(mpmath.mp, "prec", mpmath.mp.prec)  # restored after the test
    monkeypatch.setattr(special, "_series", at_low_precision(special._series))
    monkeypatch.setattr(mpmath, "gammaprod", at_low_precision(mpmath.gammaprod))
    assert cold_values() == want


def test_threads_give_the_single_threaded_values():
    # two threads on cold tables, one on real and one on complex retries,
    # switching every microsecond
    orders = [1.0 + k / 1000.0 for k in range(6)]
    work = {
        "real": [(MlParams(alpha, 0.1), -60.0) for alpha in orders],
        "complex": [(MlParams(alpha, 0.3), complex(-50.0, 1.0)) for alpha in orders],
    }
    special._ratio_table.cache_clear()
    want = {key: [repr(mittag_leffler(p, z)) for p, z in cases] for key, cases in work.items()}
    special._ratio_table.cache_clear()
    got = {}
    barrier = threading.Barrier(2)

    def walk(key):
        barrier.wait()
        got[key] = [repr(mittag_leffler(p, z)) for p, z in work[key]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(key,)) for key in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_the_retry_loads_no_decimal_module():
    probe = (
        "import sys; from fracwave import MlParams, mittag_leffler; "
        "mittag_leffler(MlParams(1.0, 0.1), -60.0); "
        "print('mpmath' in sys.modules, 'decimal' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(special.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"]


def _direct_sum(alpha, beta, z):
    """sum z**n / Gamma(beta + n*alpha), term by term in mpf with alpha and beta exact.

    Past the peak near n = |z|**(1/alpha) the terms fall faster than
    geometrically, so one term below 1e-30 of the sum ends it.
    """
    peak = abs(z) ** (1.0 / alpha)
    with mpmath.workdps(_oracle_dps(alpha, z)):
        a, b, zm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpmathify(z)
        total, power, n = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = power * mpmath.rgamma(b + n * a)
            total += term
            if n > 2.0 * peak + 10.0 and abs(term) <= mpmath.mpf(10) ** -30 * abs(total):
                return complex(total)
            power *= zm
            n += 1


# beta + n*alpha is inexact in double for these orders, and the sums cancel
EXACT_ORDER_CASES = [(1.0, 0.1, -60.0), (1.0, 1.9, -60.0), (1.5, 0.1, -60.0)] + [
    (alpha, beta, -r) for alpha in (1.0, 1.5) for beta in (0.1, 0.3) for r in (30.0, 150.0)
] + [(1.5, 0.3, 60.0 * complex(-0.6, 0.8)), (0.8, 1.0, -80.0)]


@pytest.mark.parametrize("alpha, beta, z", EXACT_ORDER_CASES)
def test_retry_and_oracle_take_the_orders_exactly(alpha, beta, z):
    ref = _direct_sum(alpha, beta, z)
    p = MlParams(alpha, beta)
    assert abs(mittag_leffler(p, z) - ref) <= p.tol * abs(ref)
    oracle = complex(mittag_leffler_hp(alpha, beta, z, dps=_oracle_dps(alpha, z)))
    assert abs(oracle - ref) <= 1e-15 * abs(ref)


def test_ml_verb_prints_the_exact_order_value(capsys):
    assert entrypoint(["ml", "--alpha", "1", "--beta", "0.1", "--z-re", "-60", "--z-im", "0"]) == 0
    re, im = map(float, capsys.readouterr().out.split())
    ref = _direct_sum(1.0, 0.1, -60.0)
    assert abs(re - ref.real) <= 1e-14 * abs(ref) and im == 0.0
    assert abs(ref - (-1.6292188499058e-3)) <= 1e-15


@pytest.mark.parametrize(
    "alpha, beta, z, dps", [(1.0, 0.1, -150.0, 50), (1.0, 0.3, -150.0, 50), (0.8, 1.0, -80.0, 60)]
)
def test_oracle_certifies_its_own_rounding(alpha, beta, z, dps):
    # each sum cancels more digits than the requested precision carries; the
    # oracle raises its working digits until its rounding bound holds
    ref = _direct_sum(alpha, beta, z)
    oracle = complex(mittag_leffler_hp(alpha, beta, z, dps=dps))
    assert abs(oracle - ref) <= 1e-15 * abs(ref)
