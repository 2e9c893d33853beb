import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qpspec import (
    NumericError,
    OrbitPoleError,
    RangeError,
    SubsequenceError,
    bounded_candidate,
    delta_index,
    exclusion_certificate,
    gordon_lhs,
    gordon_lhs_uniform,
    gordon_matrices,
    golden_cf,
    smallness_check,
    liouville_cf,
    lyapunov,
    make_amo,
    make_custom,
    make_maryland,
    max_inequality,
    product,
    solve_recurrence,
    trace_dichotomy,
)
from qpspec.arithmetic import as_mpf
from qpspec.cocycle import TransferMatrix2


def _mat_close(m1, m2, tol):
    return max(abs(float(m1.a - m2.a)), abs(float(m1.b - m2.b)),
               abs(float(m1.c - m2.c)), abs(float(m1.d - m2.d))) < tol


# ---------------------------------------------------------------------------
# solution segments


def test_solve_recurrence_satisfies_three_term(maryland1):
    cf = golden_cf(20)
    seg = solve_recurrence(maryland1, 0.3, Fraction(1, 7), (1, 0), (-12, 12),
                           cf.value, precision=120)
    assert seg.max_residual(maryland1, precision=120) < 1e-25


def test_solve_recurrence_matches_product(amo2):
    cf = golden_cf(20)
    with mp.workprec(120):
        seg = solve_recurrence(amo2, 0.3, Fraction(1, 7), (0.6, 0.8), (-10, 10),
                               cf.value, precision=120)
        fwd = product(amo2, mp.mpf(0.3), as_mpf(Fraction(1, 7)), cf.value, 8)
        expect = fwd.apply(seg.initial)
        got = seg.vec(8)
        assert abs(float(got[0] - expect[0])) < 1e-25
        assert abs(float(got[1] - expect[1])) < 1e-25


# theta + k alpha hits the tangent model's pole 1/2 exactly at k = -3 (and
# next at k = 5); phi over [k_min, k_max] depends on the sites strictly
# between k_min and k_max only
_POLE_AT_MINUS_3 = (Fraction(13, 8), Fraction(3, 8))


def test_solve_recurrence_ignores_pole_at_k_min(maryland1):
    theta, alpha = _POLE_AT_MINUS_3
    seg = solve_recurrence(maryland1, 0.3, theta, (1, 0), (-3, 4), alpha,
                           precision=120)
    assert seg.max_residual(maryland1, precision=120) < 1e-25


def test_solve_recurrence_names_pole_site(maryland1):
    theta, alpha = _POLE_AT_MINUS_3
    with pytest.raises(OrbitPoleError) as exc:
        solve_recurrence(maryland1, 0.3, theta, (1, 0), (-4, 4), alpha)
    assert exc.value.step == -3


def test_solve_recurrence_window_guard(amo2):
    cf = golden_cf(20)
    with pytest.raises(RangeError):
        solve_recurrence(amo2, 0.3, 0.1, (1, 0), (1, 5), cf.value)
    seg = solve_recurrence(amo2, 0.3, 0.1, (1, 0), (-3, 3), cf.value)
    with pytest.raises(RangeError):
        seg.phi(4)


# ---------------------------------------------------------------------------
# the q-scale matrices


def test_gordon_matrices_consistency(amo2):
    cf = golden_cf(20)
    q = cf.q[6]  # 13
    mats = gordon_matrices(amo2, 0.4, Fraction(1, 7), cf.value, q)
    with mp.workprec(mats.precision):
        # A_2q is the fresh 2q-step product and factors through the q-shift
        direct = product(amo2, mp.mpf(0.4), as_mpf(Fraction(1, 7)), cf.value,
                         2 * q)
        assert _mat_close(mats.A_2q, direct, 1e-20)
        shifted = product(amo2, mp.mpf(0.4),
                          as_mpf(Fraction(1, 7)) + q * cf.value, cf.value, q)
        assert _mat_close(mats.A_2q, shifted.matmul(mats.A_q), 1e-18)
        # inverse products really invert
        assert _mat_close(mats.A_q.matmul(mats.Ainv_q),
                          TransferMatrix2.identity(), 1e-18)
        assert abs(float(mats.A_q.det()) - 1.0) < 1e-15


def _user_g(x):
    # deliberately without a ``phasor`` form: evaluated directly at each site
    if isinstance(x, np.ndarray):
        return 1.0 + 0.5 * np.cos(2 * np.pi * x)
    return 1 + mp.cospi(2 * x) / 2


@pytest.mark.parametrize("pot", [
    make_amo(2.0),
    make_maryland(0.7),
    make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=0.8),
    make_custom([Fraction(1, 3)], "user", coupling=1.0, g=_user_g),
], ids=["amo", "maryland", "two-pole-cos2pi", "user-g"])
def test_gordon_matrices_match_direct_products(pot):
    cf = golden_cf(20)
    q = cf.q[6]  # 13
    E, theta = 0.4, Fraction(1, 7)
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    with mp.workprec(mats.precision):
        Ev, th, av = mp.mpf(E), as_mpf(theta), as_mpf(cf.value)
        direct = {
            "A_q": product(pot, Ev, th, av, q),
            "A_2q": product(pot, Ev, th, av, 2 * q),
            "Ainv_q": product(pot, Ev, th, av, q).inv(),
            "Ainv_q_shift": product(pot, Ev, th - q * av, av, q).inv(),
        }
        for name, expect in direct.items():
            got = getattr(mats, name)
            tol = 1e-40 * max(float(expect.norm()), 1.0)
            assert _mat_close(got, expect, tol), name


def test_gordon_matrices_pole_in_backward_window(maryland1):
    cf = golden_cf(20)
    q = cf.q[6]  # 13
    with mp.workprec(200):
        # site -2 lies 1e-14 from the pole at 1/2; sites [0, 2q) stay far off
        theta = mp.mpf(1) / 2 + 2 * cf.value + mp.mpf("1e-14")
    with pytest.raises(OrbitPoleError) as exc:
        gordon_matrices(maryland1, 0.3, theta, cf.value, q)
    assert exc.value.step == -2
    assert exc.value.dist <= maryland1.eps_floor


def test_gordon_lhs_rejects_unresolvable_difference(amo2):
    # alpha = 1/4 exactly: the q=4 window repeats, the true difference is
    # zero, and what remains is rounding noise below the precision floor
    with pytest.raises(NumericError):
        gordon_lhs(amo2, 0.4, Fraction(1, 7), Fraction(1, 4), 4)


def test_gordon_lhs_log_survives_underflow():
    cf = liouville_cf(math.log(4.0), 4)
    pot = make_amo(2.0)
    lhs = gordon_lhs(pot, 0.5, Fraction(1, 10), cf.value, cf.q[3])
    # the true differences are far below float64 range but nonzero
    assert lhs.square == 0.0 or lhs.square < 1e-300
    assert -2500 < lhs.square_log < -100
    assert -2500 < lhs.inverse_log < -100


# ---------------------------------------------------------------------------
# every direction in closed form, and the bounded candidate


@pytest.mark.parametrize("pot", [
    make_amo(2.0),
    make_maryland(1.0),
    make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=0.8),
], ids=["amo", "maryland", "two-pole-cos2pi"])
def test_gordon_lhs_uniform_against_direction_grid(pot):
    cf = golden_cf(20)
    E, theta, q, n = 0.4, Fraction(1, 7), cf.q[4], 90  # q = 5
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    lhs, v = gordon_lhs_uniform(mats)
    assert float(v[0]) ** 2 + float(v[1]) ** 2 == pytest.approx(1.0, abs=1e-15)
    grid = [gordon_lhs(pot, E, theta, cf.value, q, mats=mats,
                       v=(math.cos(math.pi * i / n), math.sin(math.pi * i / n)))
            for i in range(n)]
    # the grid's nearest line is at most pi/2n off an optimal direction
    gap = -math.log(math.cos(math.pi / (2 * n)))
    for field in ("square_log", "inverse_log"):
        grid_max = max(getattr(x, field) for x in grid)
        assert grid_max - 1e-12 <= getattr(lhs, field) <= grid_max + gap, field
    assert lhs.max_norm <= min(x.max_norm for x in grid) * (1 + 1e-12)
    at_v = gordon_lhs(pot, E, theta, cf.value, q, v=v, mats=mats)
    assert at_v.max_norm == pytest.approx(lhs.max_norm, rel=1e-12)


def test_bounded_candidate_bounds_its_own_orbit(amo2):
    cf = golden_cf(20)
    q = 5
    v, C = bounded_candidate(amo2, 0.5, Fraction(1, 7), cf.value, q)
    assert math.hypot(*v) == pytest.approx(1.0, abs=1e-12)
    seg = solve_recurrence(amo2, 0.5, Fraction(1, 7), v, (-q - 2, 2 * q),
                           cf.value, precision=120)
    worst = max(seg.vec_norm(k) for k in range(-q - 1, 2 * q + 1))
    assert worst <= C * (1 + 1e-6)



# ---------------------------------------------------------------------------
# trace dichotomy and the max inequality


def test_trace_dichotomy_residuals_are_tiny(amo2, maryland1):
    cf = golden_cf(20)
    for pot in (amo2, maryland1):
        rep = trace_dichotomy(pot, 0.4, Fraction(1, 7), cf.value, cf.q[6])
        assert rep.residual_linear < 1e-12
        assert rep.residual_square < 1e-12
        assert rep.case in ("|tr|>1/2", "|tr|<1/2", "|tr|=1/2")


def test_max_inequality_requires_coverage(amo2):
    cf = golden_cf(20)
    seg = solve_recurrence(amo2, 0.5, Fraction(1, 7), (1, 0), (-3, 3), cf.value)
    with pytest.raises(RangeError):
        max_inequality(seg, 5)


def test_max_inequality_on_frozen_config():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    theta = Fraction(3, 8)
    q = cf.q[3]
    mats = gordon_matrices(pot, 0.0, theta, cf.value, q)
    lhs, v = gordon_lhs_uniform(mats)
    # the closed-form minimiser, checked by stepping the recurrence itself
    seg = solve_recurrence(pot, 0.0, theta, v, (-q - 1, 2 * q), cf.value,
                           precision=600)
    mx, verdict = max_inequality(seg, q)
    assert verdict == "excluded"
    assert mx >= 0.25 - 1e-6
    assert mx == pytest.approx(lhs.max_norm, rel=1e-9)


# ---------------------------------------------------------------------------
# smallness checks and certificates


def test_smallness_rejects_non_qualifying_level():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    theta = Fraction(3, 8)
    d = delta_index(cf, theta, pot.poles)
    L = 0.08
    with pytest.raises(SubsequenceError):
        smallness_check(pot, 0.0, theta, cf.value, cf, 1, 0.2, L, delta_iv=d)


def test_smallness_passes_on_frozen_config():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    theta = Fraction(3, 8)
    d = delta_index(cf, theta, pot.poles)
    L = lyapunov(pot, 0.0, cf.value, 20000).value
    chk = smallness_check(pot, 0.0, theta, cf.value, cf, 3, 0.2, L, delta_iv=d)
    assert not chk.vacuous
    assert chk.passed
    assert chk.empirical_rate >= 1e-2


def test_exclusion_certificate_level_guard():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    with pytest.raises(RangeError):
        exclusion_certificate(pot, 0.0, Fraction(3, 8), cf.value, cf, [9], 1e-2)


def test_exclusion_certificate_on_frozen_config():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    certs = exclusion_certificate(pot, 0.0, Fraction(3, 8), cf.value, cf, [3],
                                  1e-2)
    (c,) = certs
    assert c.verdict == "excluded"
    assert c.max_norm >= 0.25 - 1e-6
    assert c.empirical_rate >= 1e-2


def test_exclusion_certificate_resolves_level_with_a_null_direction():
    # at q=1 some direction's square difference falls below the precision
    # floor; the supremum over directions does not, so the level is decided
    cf = liouville_cf(math.log(4.0), 4)
    pot = make_amo(2.0)
    (c,) = exclusion_certificate(pot, 0.5, Fraction(1, 10), cf.value, cf, [1],
                                 1e-2)
    assert c.q == 1
    assert c.verdict == "inconclusive"
