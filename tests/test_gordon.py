import gc
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qpspec import (
    BudgetError,
    InvalidInputError,
    NumericError,
    OrbitPoleError,
    RangeError,
    SubsequenceError,
    bounded_candidate,
    delta_index,
    exclusion_certificate,
    exclusion_certificates,
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
)
from qpspec.arithmetic import SITE_BUDGET, as_mpf
from qpspec.cocycle import TransferMatrix2, spectral_norm_2x2
from qpspec.gordon import _adj, _log2_norm_bound, _window_walks
from qpspec.potential import orbit


def _mat_close(m1, m2, tol):
    return max(abs(float(m1.a - m2.a)), abs(float(m1.b - m2.b)),
               abs(float(m1.c - m2.c)), abs(float(m1.d - m2.d))) < tol


# ---------------------------------------------------------------------------
# solution segments


def test_solve_recurrence_satisfies_three_term(maryland1):
    cf = golden_cf(20)
    with mp.workprec(120):
        seg = solve_recurrence(maryland1, 0.3, Fraction(1, 7), (1, 0),
                               (-12, 12), cf.value)
        assert seg.max_residual(maryland1) < 1e-25


def test_solve_recurrence_matches_product(amo2):
    cf = golden_cf(20)
    with mp.workprec(120):
        seg = solve_recurrence(amo2, 0.3, Fraction(1, 7), (0.6, 0.8), (-10, 10),
                               cf.value)
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
    with mp.workprec(120):
        seg = solve_recurrence(maryland1, 0.3, theta, (1, 0), (-3, 4), alpha)
        assert seg.max_residual(maryland1) < 1e-25


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
        # the adjugate really inverts
        assert _mat_close(mats.A_q.matmul(_adj(mats.A_q)),
                          TransferMatrix2.identity(), 1e-18)
        assert abs(float(mats.A_q.det()) - 1.0) < 1e-15


def _user_g(x):
    # a user g: evaluated directly at each site
    if isinstance(x, np.ndarray):
        return 1.0 + 0.5 * np.cos(2 * np.pi * x)
    return 1 + mp.cospi(2 * x) / 2


def _rel_gap(got, expect):
    """Largest entry of got - expect over the largest entry of expect."""
    gap = max(abs(got.a - expect.a), abs(got.b - expect.b),
              abs(got.c - expect.c), abs(got.d - expect.d))
    return gap / max(abs(expect.a), abs(expect.b), abs(expect.c), abs(expect.d))


_GOLDEN = golden_cf(20)


@pytest.mark.parametrize("pot, cf, q, E, theta", [
    (make_amo(2.0), _GOLDEN, 13, 0.4, Fraction(1, 7)),
    (make_maryland(0.7), _GOLDEN, 13, 0.4, Fraction(1, 7)),
    (make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=0.8),
     _GOLDEN, 13, 0.4, Fraction(1, 7)),
    (make_custom([Fraction(1, 3)], "user", coupling=1.0, g=_user_g),
     _GOLDEN, 13, 0.4, Fraction(1, 7)),
    (make_amo(2.0), liouville_cf(1.12, 4), 276, 0.5, Fraction(1, 10)),
    (make_maryland(0.15), liouville_cf(1.0, 4), 57, 0.0, Fraction(3, 8)),
], ids=["amo", "maryland", "two-pole-cos2pi", "user-g", "amo-q276",
        "maryland-q57"])
def test_gordon_matrices_match_direct_products(pot, cf, q, E, theta):
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    # the oracle's direct products and plain differences, far above the
    # working precision so that the subtraction keeps every needed bit
    with mp.workprec(3 * mats.precision + 500):
        Ev, th, av = mp.mpf(E), as_mpf(theta), as_mpf(cf.value)
        back = product(pot, Ev, th - q * av, av, q)
        fwd = product(pot, Ev, th, av, q)
        ahead = product(pot, Ev, th + q * av, av, q)
        inv_back, inv_fwd = back.inv(), fwd.inv()
        cases = {
            "A_back": (mats.A_back, back),
            "A_q": (mats.A_q, fwd),
            "A_2q": (mats.A_2q, product(pot, Ev, th, av, 2 * q)),
            "adj A_q": (_adj(mats.A_q), inv_fwd),
            "adj A_back": (_adj(mats.A_back), inv_back),
        }
        for name, (got, expect) in cases.items():
            tol = 1e-40 * max(float(expect.norm()), 1.0)
            assert _mat_close(got, expect, tol), name
        diffs = {
            "D_fwd": (mats.D_fwd, TransferMatrix2(
                fwd.a - ahead.a, fwd.b - ahead.b, fwd.c - ahead.c, fwd.d - ahead.d)),
            "D_back": (mats.D_back, TransferMatrix2(
                fwd.a - back.a, fwd.b - back.b, fwd.c - back.c, fwd.d - back.d)),
        }
        for name, (got, expect) in diffs.items():
            assert _rel_gap(got, expect) < mp.mpf(2) ** -100, name
        sup_inv = spectral_norm_2x2(inv_fwd.a - inv_back.a, inv_fwd.b - inv_back.b,
                                    inv_fwd.c - inv_back.c, inv_fwd.d - inv_back.d)
        expect_log = float(mp.log(sup_inv))
    lhs, _ = gordon_lhs_uniform(mats)
    assert lhs.inverse_log == pytest.approx(expect_log, abs=1e-12)


@pytest.mark.parametrize("pot, beta, E, theta, q, bits", [
    (make_amo(2.0), 1.12, 0.5, Fraction(1, 10), 276, 650),
    (make_amo(2.0), math.log(4.0), 0.5, Fraction(1, 10), 1026, 2245),
    (make_maryland(0.15), 1.0, 0.0, Fraction(3, 8), 57, 276),
], ids=["amo-q276", "amo-q1026", "maryland-q57"])
def test_gordon_precision_is_sized_from_norms_and_shift(pot, beta, E, theta,
                                                        q, bits):
    # max(2 log2||M||, log2(1/|h|)) + 192 bits, not the whole cancellation
    # between products of size e^{qL} (2526 and 8869 bits for the amo
    # levels); pinned, so that a pre-pass change that moves it shows
    cf = liouville_cf(beta, 4)
    assert cf.q[3] == q
    assert gordon_matrices(pot, E, theta, cf.value, q).precision == bits


@pytest.mark.parametrize("pot, q, E, theta, back_largest", [
    (make_amo(2.0), 13, 0.4, Fraction(1, 7), False),
    (make_maryland(1.0), 5, 0.0, Fraction(1, 7), True),
], ids=["amo", "maryland-back-largest"])
def test_norm_bound_is_the_largest_product_norm(pot, q, E, theta,
                                                back_largest):
    cf = golden_cf(20)
    bound = _log2_norm_bound(pot, E, theta, cf.value, q)
    with mp.workprec(200):
        Ev, th, av = mp.mpf(E), as_mpf(theta), as_mpf(cf.value)
        back, fwd, fwd2 = (product(pot, Ev, th - q * av, av, q).norm(),
                           product(pot, Ev, th, av, q).norm(),
                           product(pot, Ev, th, av, 2 * q).norm())
        log2_max = float(mp.log(max(back, fwd, fwd2), 2))
    # A_q(theta - q alpha) is read off the backward walk
    assert (back > 2 * max(fwd, fwd2)) == back_largest
    # the largest entry is within a factor 2 of the spectral norm
    assert log2_max <= bound <= log2_max + 1 + 1e-9


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
    # alpha = 1/4 exactly: q alpha is an integer, the q=4 windows repeat and
    # both differences vanish identically, so there is no log to report
    with pytest.raises(NumericError):
        gordon_lhs(amo2, 0.4, Fraction(1, 7), Fraction(1, 4), 4)


def test_gordon_lhs_log_survives_underflow():
    cf = liouville_cf(math.log(4.0), 4)
    pot = make_amo(2.0)
    lhs = gordon_lhs(pot, 0.5, Fraction(1, 10), cf.value, cf.q[3])
    # the true differences are far below float64 range but nonzero
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
    v, ln_C = bounded_candidate(amo2, 0.5, Fraction(1, 7), cf.value, q)
    assert math.hypot(*v) == pytest.approx(1.0, abs=1e-12)
    with mp.workprec(120):
        seg = solve_recurrence(amo2, 0.5, Fraction(1, 7), v, (-q - 2, 2 * q),
                               cf.value)
    worst = max(seg.vec_norm(k) for k in range(-q - 1, 2 * q + 1))
    # the float bound is the orbit's largest norm, to rounding on this window
    assert ln_C == pytest.approx(math.log(worst), abs=1e-12)


def test_bounded_candidate_log_bound_past_float_range(maryland1):
    # at q=987 the window's growth exceeds e^709, where C itself overflows a
    # float; its log stays finite and matches the high-precision orbit up to
    # the float walk's rounding, amplified by that growth
    cf = golden_cf(30)
    q = 987
    v, ln_C = bounded_candidate(maryland1, 0.3, Fraction(1, 7), cf.value, q)
    assert math.hypot(*v) == pytest.approx(1.0, abs=1e-12)
    assert 709 < ln_C < math.inf
    with mp.workprec(4000):
        seg = solve_recurrence(maryland1, 0.3, Fraction(1, 7), v,
                               (-q - 2, 2 * q), cf.value)
    with mp.workprec(64):
        worst = max(mp.log(mp.hypot(*seg.vec(k)))
                    for k in range(-q - 1, 2 * q + 1))
    assert float(worst) == pytest.approx(ln_C, abs=1e-2)


def test_window_walk_back_states_are_row_swapped_inverse_products(amo2):
    # at q = 5 no state is rescaled, so the walk from the row swap gives the
    # products of the inverse steps [[0, 1], [-1, s]] over sites -1..-q-1
    # with their rows swapped, bit for bit
    cf = golden_cf(20)
    q, E, theta = 5, 0.5, Fraction(1, 7)
    walks = list(_window_walks(amo2, E, theta, cf.value, q))
    assert len(walks) == 3 * q + 1
    assert {scale for *_, scale in walks} == {0.0}
    x = orbit(float(theta), float(cf.value), -q - 1, 2 * q)
    S = (E - amo2.V_array(x)).tolist()  # site k sits at S[k + q + 1]
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for j in range(q + 1):
        s = S[q - j]  # site -1-j
        m00, m01, m10, m11 = m10, m11, -m00 + s * m10, -m01 + s * m11
        assert walks[2 * q + j] == (m10, m11, m00, m01, 0.0)


@pytest.mark.parametrize("E, theta, alpha", [
    (0.3, Fraction(1, 2), golden_cf(20).value),
    (30.0, *_POLE_AT_MINUS_3),
], ids=["site-0", "mid-walk"])
def test_pre_passes_stay_finite_with_a_site_on_a_pole(maryland1, E, theta,
                                                      alpha):
    # a site exactly on the tangent model's pole reads about 1e300: site 0,
    # where the walks start, at theta = 1/2, and sites 8k - 3 for
    # _POLE_AT_MINUS_3, where the walks' entries have grown at E = 30.
    # Capped, it keeps both float pre-passes finite
    q = 13
    assert abs(maryland1.V_array(np.array([0.5]))[0]) > 1e290
    _, ln_C = bounded_candidate(maryland1, E, theta, alpha, q)
    assert math.isfinite(ln_C)
    assert math.isfinite(_log2_norm_bound(maryland1, E, theta, alpha, q))



# ---------------------------------------------------------------------------
# the max inequality


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
    with mp.workprec(600):
        seg = solve_recurrence(pot, 0.0, theta, v, (-q - 1, 2 * q), cf.value)
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
    for level in (9, 0, -1):
        with pytest.raises(RangeError, match=rf"level {level} outside 1\.\.4$"):
            exclusion_certificate(pot, 0.0, Fraction(3, 8), cf.value, cf, [level],
                                  1e-2)
    # q_4 is about 5.7e24: refused before level 1 is worked on
    assert 3 * cf.q[4] > SITE_BUDGET
    with pytest.raises(BudgetError, match=r"^level 4 needs 3q = \d+ orbit sites"):
        exclusion_certificate(pot, 0.0, Fraction(3, 8), cf.value, cf,
                              [1, 2, 3, 4], 1e-2)


# certificate digits pinned exactly: how the products and their inverses
# are formed must not move a single one
_FROZEN_CERTIFICATES = [
    (make_maryland(0.15), liouville_cf(1.0, 4), Fraction(3, 8), 0.0,
     dict(q=57, lhs_square_log=-40.4679330582472,
          lhs_inverse_log=-45.62060965535459, trace=-172.80793365127846,
          max_norm=172.76028928791416)),
    (make_amo(2.0), liouville_cf(1.12, 4), Fraction(1, 10), 0.5,
     dict(q=276, lhs_square_log=-149.19667639505894,
          lhs_inverse_log=-228.1056886643671, trace=1.8638432631950783e+34,
          max_norm=1.8638432631950783e+34)),
]


def test_exclusion_certificate_on_frozen_config():
    for pot, cf, theta, E, expect in _FROZEN_CERTIFICATES:
        (c,) = exclusion_certificate(pot, E, theta, cf.value, cf, [3], c=0.01)
        assert {k: getattr(c, k) for k in expect} == expect
        assert c.verdict == "excluded"
        assert c.max_norm >= 0.25 - 1e-6
        assert c.empirical_rate >= 1e-2


def test_exclusion_certificate_resolves_level_with_a_null_direction():
    # at q=1 the square difference D_fwd A_q has rank one, so some direction
    # has no square difference at all; the supremum over directions does,
    # so the level is decided
    cf = liouville_cf(math.log(4.0), 4)
    pot = make_amo(2.0)
    (c,) = exclusion_certificate(pot, 0.5, Fraction(1, 10), cf.value, cf, [1],
                                 1e-2)
    assert c.q == 1
    assert c.verdict == "inconclusive"


# the energy batch against the single-energy path

_MARYLAND_POOL = [float(Fraction(k - 16, 16)) for k in range(33)]


def test_certificate_batch_equals_one_call_per_energy():
    # every field, precision included, for the 33 energies of the
    # certify-maryland pool, which share one walk at 276 bits
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    batch = list(exclusion_certificates(pot, _MARYLAND_POOL, Fraction(3, 8),
                                        cf.value, cf, [3], 0.01))
    singles = [exclusion_certificate(pot, E, Fraction(3, 8), cf.value, cf, [3],
                                     0.01) for E in _MARYLAND_POOL]
    assert batch == singles
    assert {c.precision for (c,) in batch} == {276}


def test_certificate_batch_across_two_working_precisions():
    # at q=57, E = 0 and 0.5 take 276 bits and E = 2 takes 294, so the
    # level's walk is made again at each change of precision
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    energies = [0.0, 2.0, 0.5, 2.0]
    batch = list(exclusion_certificates(pot, energies, Fraction(3, 8), cf.value,
                                        cf, [2, 3], 0.01))
    singles = [exclusion_certificate(pot, E, Fraction(3, 8), cf.value, cf,
                                     [2, 3], 0.01) for E in energies]
    assert batch == singles
    assert [certs[1].precision for certs in batch] == [276, 294, 276, 294]


def test_certificate_batch_raises_the_pole_of_the_single_path(maryland1):
    cf = golden_cf(20)
    with mp.workprec(200):
        # site -2 lies 1e-14 from the pole at 1/2, as in the test above
        theta = mp.mpf(1) / 2 + 2 * cf.value + mp.mpf("1e-14")
    raised = []
    for run in (lambda: exclusion_certificate(maryland1, 0.3, theta, cf.value,
                                              cf, [6], 0.01),
                lambda: list(exclusion_certificates(maryland1, [0.3, -0.2], theta,
                                                    cf.value, cf, [6], 0.01))):
        with pytest.raises(OrbitPoleError) as exc:
            run()
        raised.append((exc.value.step, exc.value.dist))
    assert raised[0] == raised[1]
    assert raised[0][0] == -2


def test_certificate_batch_refuses_bad_input_before_any_work():
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    # the generator is made, not run: the checks come first
    with pytest.raises(RangeError, match=r"level 9 outside 1\.\.4$"):
        exclusion_certificates(pot, [], Fraction(3, 8), cf.value, cf, [9], 0.01)
    with pytest.raises(InvalidInputError, match="energy must be finite"):
        exclusion_certificates(pot, [0.0, math.inf], Fraction(3, 8), cf.value,
                               cf, [3], 0.01)


def test_certificate_keeps_nothing_after_it_returns():
    # the q=1026 certificate's walk (about 1.8 MB of integers at 2245 bits)
    # is dropped when the call returns; the pass that built mpf sites
    # peaked at 3.7 MB here
    pot, cf = make_amo(2.0), liouville_cf(math.log(4), 4)

    def run(theta):
        return exclusion_certificate(pot, 0.5, theta, cf.value, cf, [3], 0.01)

    # mpmath's constants at this precision are cached once; the measured
    # call walks another phase, so a walk kept from an earlier call would
    # not hide one kept from this call
    run(Fraction(1, 10))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (c,) = run(Fraction(3, 10))
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.q == 1026 and c.precision == 2245
    assert after - before < 16 * 2**10
    assert peak - before < 3.7 * 2**20
