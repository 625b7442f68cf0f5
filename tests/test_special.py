"""Mittag-Leffler evaluation against frozen external references."""

import math

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
from fracwave import special

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


def test_cancellation_retry_matches_hp():
    # large negative argument forces the high precision path
    p = MlParams(0.8, 1.0)
    val = mittag_leffler(p, -80.0)
    ref = mittag_leffler_hp(0.8, 1.0, -80.0, dps=60)
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


def test_series_stops_at_the_first_infinite_term():
    # term 466 of this majorant overflows; summing on to the term cap
    # cannot certify anything
    _, stopped, n, _, abs_sum = special._series(
        1065.54, 1.0, special._lgamma_ratio(1.05, 1.0), 1e-12, 1e-300
    )
    assert not stopped and abs_sum == math.inf
    assert n < special._MAX_TERMS


def test_growth_envelope():
    env = check_growth_bound(MlParams(1.5, 1.0), np.linspace(0.0, 4.0, 9), np.linspace(0.0, 5.0, 11))
    assert isinstance(env, GrowthEnvelope)
    assert env.ok and env.n_nonfinite == 0
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
