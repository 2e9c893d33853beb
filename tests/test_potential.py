import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qpspec import (
    DegenerateModelError,
    InvalidInputError,
    PoleProximityError,
    SubsequenceError,
    delta_index,
    eval_V,
    f_product_check,
    golden_cf,
    liouville_cf,
    make_amo,
    make_custom,
    make_maryland,
)
from qpspec.potential import G_REGISTRY, orbit


def test_amo_is_plain_cosine(amo2):
    xs = np.linspace(0, 1, 13, endpoint=False)
    np.testing.assert_allclose(amo2.V_array(xs), 2.0 * np.cos(2 * np.pi * xs),
                               atol=1e-14)
    assert amo2.m == 0
    assert float(eval_V(amo2, Fraction(1, 3))) == pytest.approx(
        2.0 * math.cos(2 * math.pi / 3), abs=1e-14)


def test_maryland_matches_tangent(maryland1):
    for x in (0.1, 0.26, 0.4, 0.73):
        got = float(eval_V(maryland1, x))
        assert got == pytest.approx(math.tan(math.pi * x), rel=1e-12)


def test_maryland_pole_raises(maryland1):
    with pytest.raises(PoleProximityError):
        eval_V(maryland1, Fraction(1, 2))
    with pytest.raises(PoleProximityError) as exc:
        eval_V(maryland1, 0.5 + 1e-14)
    assert exc.value.dist <= maryland1.eps_floor


def test_maryland_zero_coupling_degenerate():
    with pytest.raises(DegenerateModelError):
        make_maryland(0.0)


def test_f_is_chord_product(maryland1):
    # |f(x)| must equal |e^{2 pi i x} - e^{2 pi i theta_1}| for the single pole
    for x in (0.05, 0.2, 0.77):
        chord = abs(mp.exp(2j * mp.pi * x) - mp.exp(2j * mp.pi * mp.mpf(0.5)))
        assert float(abs(maryland1.f(mp.mpf(x)))) == pytest.approx(float(chord),
                                                                   rel=1e-12)


def test_f_scalar_and_array_agree(maryland1):
    xs = np.array([0.05, 0.2, 0.77])
    arr = maryland1.f(xs)
    for x, fx in zip(xs, arr):
        assert float(maryland1.f(mp.mpf(float(x)))) == pytest.approx(float(fx),
                                                                     rel=1e-12)


def test_log_f_integral_vanishes(maryland1):
    assert abs(maryland1.log_f_integral()) < 1e-10
    two = make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=1.0)
    assert abs(two.log_f_integral()) < 1e-8


def test_two_pole_f_is_chord_product():
    pot = make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=1.0)
    x = mp.mpf(0.11)
    chord = abs(mp.exp(2j * mp.pi * x) - mp.exp(2j * mp.pi / 3)) * \
        abs(mp.exp(2j * mp.pi * x) - mp.exp(2j * mp.pi * mp.mpf(0.7)))
    assert float(abs(pot.f(x))) == pytest.approx(float(chord), rel=1e-12)


def test_spurious_pole_rejected():
    # sin(2 pi x) vanishes at 1/2, so a declared pole there is spurious
    with pytest.raises(InvalidInputError):
        make_custom([Fraction(1, 2)], "sin2pi", coupling=1.0)


def test_registry_entries_handle_both_input_kinds():
    xs = np.array([0.1, 0.3])
    for name, factory in G_REGISTRY.items():
        g = factory(1.5)
        arr = np.asarray(g(xs), dtype=float)
        assert arr.shape == xs.shape
        scalar = float(g(mp.mpf(0.1)))
        assert scalar == pytest.approx(float(arr[0]), rel=1e-12)


def test_v_array_cap(maryland1):
    xs = np.array([0.5, 0.25])
    v = maryland1.V_array(xs, cap=100.0)
    assert abs(v[0]) == 100.0
    assert abs(v[1]) < 100.0


def test_f_product_bound_holds_at_qualifying_level():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    theta = Fraction(3, 8)
    d = delta_index(cf, theta, pot.poles)
    level = 3
    lhs_log, bound_log = f_product_check(pot, theta, cf, level, 0.2, delta_iv=d)
    assert lhs_log >= bound_log


def test_f_product_rejects_non_qualifying_level():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    d = delta_index(cf, Fraction(3, 8), pot.poles)
    bad = [n for n in range(1, cf.depth) if d.per_level[n - 1] < d.value - 0.05]
    with pytest.raises(SubsequenceError):
        f_product_check(pot, Fraction(3, 8), cf, bad[0], 0.2, delta_iv=d)


def test_pole_free_product_check_is_trivial(amo2):
    cf = liouville_cf(1.0, 4)
    lhs_log, bound_log = f_product_check(amo2, Fraction(3, 8), cf, 3, 0.3)
    assert lhs_log == 0.0


def test_orbit_matches_open_coded_walks():
    # orbit is bit for bit the walks it replaced: the scalar form
    # (theta + ks alpha) mod 1 and the phase-grid form with one column per
    # base point, here over a window that starts below zero
    alpha = float(liouville_cf(1.0, 4).value)
    ks = np.arange(-17, 40, dtype=float)
    for theta in (0.1, 0.8731, 0.0):
        assert np.array_equal(orbit(theta, alpha, -17, 40),
                              np.mod(theta + ks * alpha, 1.0))
    xs = np.array([0.5, 0.013, 0.999, math.sqrt(2.0) - 1.0])
    got = orbit(xs, alpha, -17, 40)
    assert got.shape == (57, 4)
    assert np.array_equal(got, np.mod(xs[None, :] + ks[:, None] * alpha, 1.0))


def test_f_product_check_pinned(maryland1):
    # floats from the open-coded add-and-wrap walk the torus orbit replaced
    cf = golden_cf(40)
    d = delta_index(cf, 0.1, maryland1.poles)
    assert f_product_check(maryland1, 0.1, cf, 5, 0.5, delta_iv=d) == (
        0.9704327097451656, -6.558469802948412)


def test_f_product_check_pinned_at_full_precision():
    # floats from the per-site evaluation of f that the sine-product walk
    # replaced: 9148 bits, and a repeated pole
    cf = liouville_cf(1.12, 5)
    pot = make_maryland(1.0)
    d = delta_index(cf, Fraction(3, 8), pot.poles)
    assert f_product_check(pot, Fraction(3, 8), cf, 3, 0.2, delta_iv=d) == (
        0.6931471805599453, -55.89314718055988)
    cf = golden_cf(30)
    pot = make_custom([Fraction(1, 3), Fraction(1, 3)], "cos2pi", coupling=0.8)
    assert f_product_check(pot, 0.1, cf, 10, 0.2) == (
        -0.08862378409384158, -22.32184333805511)
