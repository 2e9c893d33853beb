import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import (
    BudgetError,
    ExcludedPhaseError,
    IndexValue,
    PrecisionExhaustedError,
    RangeError,
    beta,
    cf_from_coeffs,
    cf_from_real,
    cf_from_text,
    cf_to_text,
    delta_index,
    gamma,
    golden_cf,
    liouville_cf,
    min_sine_index,
    qualifying_levels,
    silver_cf,
    sine_product_check,
    torus_norm,
)
from qpspec.arithmetic import as_mpf, exact_fraction, torus_norm_exact

coeff_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=2,
                       max_size=12)


# ---------------------------------------------------------------------------
# exact plumbing


def test_exact_fraction_float_is_exact():
    f = exact_fraction(0.1)
    assert isinstance(f, Fraction)
    assert float(f) == 0.1
    assert f != Fraction(1, 10)  # 0.1 is not exactly representable


def test_exact_fraction_passthrough():
    assert exact_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert exact_fraction("3/7") == Fraction(3, 7)


@given(st.fractions(min_value=-10, max_value=10))
@settings(max_examples=50, deadline=None)
def test_torus_norm_exact_properties(x):
    n = torus_norm_exact(x)
    assert 0 <= n <= Fraction(1, 2)
    assert torus_norm_exact(-x) == n
    assert torus_norm_exact(x + 3) == n


def test_torus_norm_matches_exact():
    for num in range(-7, 8):
        x = Fraction(num, 16)
        assert torus_norm(x) == torus_norm_exact(x)


# ---------------------------------------------------------------------------
# continued fractions


def test_golden_convergents_are_fibonacci():
    cf = golden_cf(10)
    assert cf.q == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    assert cf.p == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_silver_convergents_are_pell():
    cf = silver_cf(6)
    assert cf.q == (1, 2, 5, 12, 29, 70, 169)


@given(coeff_lists)
@settings(max_examples=50, deadline=None)
def test_convergent_determinant_identity(coeffs):
    cf = cf_from_coeffs(coeffs)
    for n in range(1, cf.depth + 1):
        assert cf.p[n] * cf.q[n - 1] - cf.p[n - 1] * cf.q[n] == (-1) ** (n - 1)


@given(coeff_lists)
@settings(max_examples=30, deadline=None)
def test_denominator_gap_bounds_exact(coeffs):
    cf = cf_from_coeffs(coeffs)
    for n in range(cf.depth - 1):
        assert cf.check_gap_bounds(n)


@given(coeff_lists)
@settings(max_examples=20, deadline=None)
def test_approx_dist_is_nonincreasing(coeffs):
    cf = cf_from_coeffs(coeffs)
    dists = [cf.approx_dist_exact(n) for n in range(cf.depth)]
    for a, b in zip(dists, dists[1:]):
        assert b <= a


def test_check_gap_bounds_range_guard():
    cf = golden_cf(10)
    with pytest.raises(RangeError):
        cf.check_gap_bounds(9)
    with pytest.raises(RangeError):
        cf.check_gap_bounds(-1)


def test_cf_from_real_certified_golden():
    with mp.workprec(200):
        val = (mp.sqrt(5) - 1) / 2
        cf = cf_from_real(val, 30, precision=200)
    assert cf.coefficients == (1,) * 30
    assert cf.valid_prefix == 30


def test_cf_from_real_float_emits_only_certified_terms():
    val = (math.sqrt(5) - 1) / 2
    cf = cf_from_real(val, 60)
    # 53 bits certify far fewer than 60 golden terms
    assert 20 <= cf.depth < 60
    assert all(a == 1 for a in cf.coefficients)


def test_cf_from_real_dyadic_boundary_raises():
    with pytest.raises(PrecisionExhaustedError):
        cf_from_real(0.5, 10)


def test_cf_from_real_rational_roundtrip():
    cf0 = cf_from_coeffs([2, 6, 1, 4, 3])
    cf1 = cf_from_real(cf0.as_fraction(), 10)
    assert cf1.coefficients == cf0.coefficients


def test_cf_text_roundtrip():
    cf = cf_from_coeffs([3, 1, 4, 1, 5, 9])
    assert cf_from_text(cf_to_text(cf)).coefficients == cf.coefficients


def test_liouville_growth_tracks_target():
    cf = liouville_cf(1.0, 4)
    b = beta(cf)
    assert abs(b.per_level[-1] - 1.0) < 0.01


def test_liouville_coefficient_cap():
    cf = liouville_cf(2.0, 8, max_coeff_bits=64)
    assert max(a.bit_length() for a in cf.coefficients) <= 65


# ---------------------------------------------------------------------------
# index surrogates


def test_beta_per_level_matches_direct_logs():
    cf = cf_from_coeffs([1, 1, 1, 2, 1, 3, 1, 1])
    b = beta(cf)
    for n in range(1, cf.depth):
        expect = math.log(cf.q[n + 1]) / cf.q[n]
        assert abs(b.per_level[n - 1] - expect) < 1e-12
    m = len(b.per_level)
    tail = -(-m // 2)
    assert b.value == max(b.per_level[tail - 1:])


def test_qualifying_levels_cutoff():
    iv = IndexValue(value=1.0, per_level=(0.5, 0.99, 1.0, float("-inf")),
                    tail_start=2, terms_used=4)
    assert qualifying_levels(iv, 0.2) == [2, 3]
    assert qualifying_levels(iv, 0.001) == [3]


def test_band_is_nested():
    cf = golden_cf(20)
    b = beta(cf)
    lo, hi = b.band()
    assert lo <= hi <= b.value or math.isclose(hi, b.value)


def test_delta_equals_beta_without_poles(golden40):
    d = delta_index(golden40, Fraction(1, 3), [])
    b = beta(golden40)
    assert d.per_level == b.per_level
    assert d.value == b.value


def test_delta_excluded_phase():
    # theta = pole + k alpha is rejected, naming the pole and k, exactly
    # when |k| is within the default horizon of 1000
    cf = golden_cf(20)
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [(half, 0, [half], (half, 0)),
             (half, 3, [half], (half, 3)),
             (half, 1000, [half], (half, 1000)),
             (half, -1000, [third, half], (half, -1000)),
             (third, 7, [third, half], (third, 7)),
             (half, 1001, [half], None)]
    for pole, k, poles, hit in cases:
        with mp.workprec(cf.precision):
            theta = as_mpf(pole) + k * cf.value
        if hit is None:
            delta_index(cf, theta, poles)
            continue
        with pytest.raises(ExcludedPhaseError) as exc:
            delta_index(cf, theta, poles)
        assert (exc.value.pole, exc.value.translate) == hit


def test_gamma_exact_resonance_reports_witness():
    cf = golden_cf(20)
    with mp.workprec(cf.precision):
        theta = (1 - 3 * cf.value) / 2  # 2 theta + 3 alpha = 1
        g = gamma(cf, theta, n_max=50)
    assert g.value == math.inf
    assert g.witness == 3


def test_gamma_bounded_type_is_small(golden40):
    g = gamma(golden40, Fraction(1, 3), n_max=3000)
    assert 0 <= g.value < 0.5


# ---------------------------------------------------------------------------
# sine products


def test_min_sine_index_brute_force_oracle(golden40):
    theta = Fraction(1, 7)
    for n in (4, 6, 8):
        j0, val = min_sine_index(theta, golden40, n)
        qn = golden40.q[n]
        alpha = float(golden40.value)
        brute = min(range(qn),
                    key=lambda j: abs(math.sin(math.pi * (1 / 7 + j * alpha))))
        assert j0 == brute
        assert abs(float(val) - abs(math.sin(math.pi * (1 / 7 + j0 * alpha)))) < 1e-9


def test_min_sine_budget_guard(golden40):
    with pytest.raises(BudgetError):
        min_sine_index(Fraction(1, 7), golden40, 30, budget=100)


def test_sine_product_centering(golden40):
    S, lnq = sine_product_check(Fraction(1, 7), golden40, 8)
    assert lnq == pytest.approx(math.log(golden40.q[8]))
    assert abs(S) / lnq < 10


def test_gamma_logs_match_full_precision_logs():
    # 956-bit walks, 113-bit logs; ||207 alpha|| lies just above 1/4, where
    # mpmath's 113-bit log of the unrounded 956-bit norm returns about 0
    cf = liouville_cf(1.12, 4)
    g = gamma(cf, 0, 300)
    with mp.workprec(cf.precision):
        direct = [float(-mp.log(torus_norm(n * cf.value)) / n)
                  for n in range(1, 301)]
    assert g.per_level == pytest.approx(direct, rel=1e-13)


def test_orbit_walks_pinned():
    # floats from the open-coded walks that torus_orbit replaced; theta = 7/8
    # starts gamma's walks from 2 theta >= 1
    g = gamma(liouville_cf(1.0, 4), Fraction(7, 8), 2000)
    assert (g.value, g.terms_used, g.witness) == (0.005296922564833601, 2000, None)
    assert g.per_level[0] == 5.429345628954441
    assert g.per_level[-1] == 0.0019099538582601702
    cf = golden_cf(40)
    assert min_sine_index(0.1, cf, 12)[0] == 194
    assert sine_product_check(0.1, cf, 12) == (4.913755587892461, 5.4510384535657)
    # at theta = 0 the left-out j = 0 factor is exactly 0
    assert sine_product_check(0, cf, 12) == (5.2971114194237146, 5.4510384535657)
    assert sine_product_check(0, cf, 1) == (0.0, 0.0)
