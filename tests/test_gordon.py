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
    cf_from_coeffs,
    delta_index,
    eval_V,
    exclusion_certificate,
    exclusion_certificates,
    gordon_lhs_uniform,
    gordon_matrices,
    golden_cf,
    smallness_check,
    liouville_cf,
    lyapunov,
    make_amo,
    make_custom,
    make_maryland,
    product,
)
from qpspec.arithmetic import LOG_PREC, SITE_BUDGET, as_mpf
from qpspec.cocycle import TransferMatrix2, spectral_norm_2x2
from qpspec import gordon
from qpspec.gordon import (GordonLhs, _adj, _log2_norm_bound, _min_max_direction,
                           _resolved_log, _window_sites)

from oracles import solution


def _apply(m, v):
    """The 2x2 matrix m times the vector v."""
    return (m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def _mat_close(m1, m2, tol):
    return max(abs(float(m1.a - m2.a)), abs(float(m1.b - m2.b)),
               abs(float(m1.c - m2.c)), abs(float(m1.d - m2.d))) < tol


# ---------------------------------------------------------------------------
# solution segments


def _max_residual(pot, E, theta, alpha, phi):
    """Largest relative residual of phi_{k+1} + phi_{k-1} + V phi_k = E phi_k
    over the inner k of phi, with V from ``eval_V`` at theta + k alpha."""
    worst = 0.0
    th, av = as_mpf(theta), as_mpf(alpha)
    for k in range(min(phi) + 1, max(phi)):
        v = eval_V(pot, th + k * av)
        lhs = phi[k + 1] + phi[k - 1] + v * phi[k]
        rhs = E * phi[k]
        scale = max(abs(lhs), abs(rhs), abs(v * phi[k]), 1)
        worst = max(worst, float(abs(lhs - rhs) / scale))
    return worst


def test_solve_recurrence_satisfies_three_term(maryland1):
    cf = golden_cf(20)
    with mp.workprec(120):
        phi = solution(maryland1, 0.3, Fraction(1, 7), cf.value, (1, 0), -12, 12)
        assert _max_residual(maryland1, 0.3, Fraction(1, 7), cf.value, phi) < 1e-25


def test_solve_recurrence_matches_product(amo2):
    cf = golden_cf(20)
    with mp.workprec(120):
        v = (mp.mpf(0.6), mp.mpf(0.8))
        phi = solution(amo2, 0.3, Fraction(1, 7), cf.value, v, -10, 10)
        fwd = product(amo2, mp.mpf(0.3), as_mpf(Fraction(1, 7)), cf.value, 8)
        expect = _apply(fwd, v)
        assert abs(float(phi[8] - expect[0])) < 1e-25
        assert abs(float(phi[7] - expect[1])) < 1e-25


# theta + k alpha hits the tangent model's pole 1/2 exactly at k = -3 (and
# next at k = 5); phi over [k_min, k_max] depends on the sites strictly
# between k_min and k_max only
_POLE_AT_MINUS_3 = (Fraction(13, 8), Fraction(3, 8))


def test_solve_recurrence_ignores_pole_at_k_min(maryland1):
    theta, alpha = _POLE_AT_MINUS_3
    with mp.workprec(120):
        phi = solution(maryland1, 0.3, theta, alpha, (1, 0), -3, 4)
        assert _max_residual(maryland1, 0.3, theta, alpha, phi) < 1e-25


def test_solve_recurrence_names_pole_site(maryland1):
    theta, alpha = _POLE_AT_MINUS_3
    with pytest.raises(OrbitPoleError) as exc:
        solution(maryland1, 0.3, theta, alpha, (1, 0), -4, 4)
    assert exc.value.step == -3


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
    (make_amo(2.0), liouville_cf(1.12, 4), 276, 0.5, Fraction(1, 10)),
    (make_maryland(0.15), liouville_cf(1.0, 4), 57, 0.0, Fraction(3, 8)),
], ids=["amo", "maryland", "two-pole-cos2pi", "amo-q276",
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
            # the left factor of A_2q, which the loop reads off D_fwd
            "A_q - D_fwd": (TransferMatrix2(*(
                getattr(mats.A_q, k) - getattr(mats.D_fwd, k) for k in "abcd")), ahead),
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
    lhs = gordon_lhs_uniform(mats)
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
    bound = max(_log2_norm_bound(E, _window_sites(pot, theta, cf.value, q), q))
    with mp.workprec(200):
        Ev, th, av = mp.mpf(E), as_mpf(theta), as_mpf(cf.value)
        back, fwd, fwd2 = (product(pot, Ev, th - q * av, av, q).norm(),
                           product(pot, Ev, th, av, q).norm(),
                           product(pot, Ev, th, av, 2 * q).norm())
        log2_max = float(mp.log(max(back, fwd, fwd2), 2))
    # on the maryland model the bound comes from A_q(theta - q alpha), the
    # walk over sites -q..-1
    assert (back > 2 * max(fwd, fwd2)) == back_largest
    # the largest entry is within a factor 2 of the spectral norm
    assert log2_max <= bound <= log2_max + 1 + 1e-9


@pytest.mark.parametrize("pot, cf, q, E, theta", [
    (make_amo(2.0), liouville_cf(1.12, 4), 276, 0.5, Fraction(1, 10)),
    (make_maryland(0.15), liouville_cf(1.0, 4), 57, -0.4375, Fraction(3, 8)),
    (make_custom([Fraction(1, 5), Fraction(3, 5)], "sin2pi", coupling=2.5),
     golden_cf(20), 89, 0.7, Fraction(1, 7)),
], ids=["amo-q276", "maryland-q57", "two-poles-q89"])
def test_pre_pass_states_match_the_mp_products(pot, cf, q, E, theta):
    # the pre-pass's three forward states (A_q, A_{2q} and
    # A_q(theta - q alpha), walked on the kernel's phasors) against the mp
    # products at 200 bits, in log2 of the largest entry (each bound is
    # that plus 1), to 1e-6: a window shifted by one site, or a walk one
    # site short, misses that on at least two of the three models
    assert q in cf.q
    V = _window_sites(pot, theta, cf.value, q)
    got = [b - 1 for b in _log2_norm_bound(E, V, q)]
    with mp.workprec(200):
        Ev, th, av = mp.mpf(E), as_mpf(theta), as_mpf(cf.value)
        want = [float(mp.log(max(abs(M.a), abs(M.b), abs(M.c), abs(M.d)), 2))
                for M in (product(pot, Ev, th, av, q),
                          product(pot, Ev, th, av, 2 * q),
                          product(pot, Ev, th - q * av, av, q))]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-6, (got, want)


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
        gordon_lhs_uniform(gordon_matrices(amo2, 0.4, Fraction(1, 7),
                                           Fraction(1, 4), 4))


def test_gordon_lhs_log_survives_underflow():
    cf = liouville_cf(math.log(4.0), 4)
    pot = make_amo(2.0)
    lhs = gordon_lhs_uniform(gordon_matrices(pot, 0.5, Fraction(1, 10),
                                             cf.value, cf.q[3]))
    # the true differences are far below float64 range but nonzero
    assert -2500 < lhs.square_log < -100
    assert -2500 < lhs.inverse_log < -100


# ---------------------------------------------------------------------------
# every direction in closed form


def _vec_norm(v):
    return mp.sqrt(v[0] * v[0] + v[1] * v[1])


def _half_angle(point):
    """The unit v = (cos psi, sin psi) with (cos 2psi, sin 2psi) = point."""
    psi = mp.atan2(point[1], point[0]) / 2
    return mp.cos(psi), mp.sin(psi)


def _minimiser(mats):
    """A unit v at which the three-norm maximum is least, at the working
    precision: the half angle of ``_min_max_direction``'s point."""
    with mp.workprec(mats.precision):
        _, point = _min_max_direction((mats.A_q, _adj(mats.A_back), mats.A_2q))
        return _half_angle(point)


def gordon_lhs(mats, v):
    """The per-direction oracle of ``gordon_lhs_uniform``: the two
    left-hand sides ||D_fwd A_q v|| and ||adj(D_back) v|| at the initial
    vector v, with the three-norm maximum, each matrix applied to v once."""
    with mp.workprec(mats.precision):
        vv = (as_mpf(v[0]), as_mpf(v[1]))
        nrm = _vec_norm(vv)
        vv = (vv[0] / nrm, vv[1] / nrm)
        w_q = _apply(mats.A_q, vv)
        w_2q = _apply(mats.A_2q, vv)
        u1 = _apply(_adj(mats.A_back), vv)
        d_sq = _apply(mats.D_fwd, w_q)
        d_inv = _apply(_adj(mats.D_back), vv)
    # the products above need the full precision; their norms do not
    with mp.workprec(LOG_PREC):
        return GordonLhs(
            square_log=_resolved_log(_vec_norm(d_sq)),
            inverse_log=_resolved_log(_vec_norm(d_inv)),
            max_norm=float(max(_vec_norm(w_q), _vec_norm(u1), _vec_norm(w_2q))))


@pytest.mark.parametrize("pot", [
    make_amo(2.0),
    make_maryland(1.0),
    make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=0.8),
], ids=["amo", "maryland", "two-pole-cos2pi"])
def test_gordon_lhs_uniform_against_direction_grid(pot):
    cf = golden_cf(20)
    E, theta, q, n = 0.4, Fraction(1, 7), cf.q[4], 90  # q = 5
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    lhs, v = gordon_lhs_uniform(mats), _minimiser(mats)
    assert float(v[0]) ** 2 + float(v[1]) ** 2 == pytest.approx(1.0, abs=1e-15)
    grid = [gordon_lhs(mats, (math.cos(math.pi * i / n),
                              math.sin(math.pi * i / n)))
            for i in range(n)]
    # the grid's nearest line is at most pi/2n off an optimal direction
    gap = -math.log(math.cos(math.pi / (2 * n)))
    for field in ("square_log", "inverse_log"):
        grid_max = max(getattr(x, field) for x in grid)
        assert grid_max - 1e-12 <= getattr(lhs, field) <= grid_max + gap, field
    assert lhs.max_norm <= min(x.max_norm for x in grid) * (1 + 1e-12)
    at_v = gordon_lhs(mats, v)
    assert at_v.max_norm == pytest.approx(lhs.max_norm, rel=1e-12)


def test_min_max_direction_of_rotations():
    # a rotation keeps every norm, so each curve is constant and has no
    # minimiser of its own (the zero-potential products at E = 0 are such)
    R = TransferMatrix2(0, -1, 1, 0)
    value, point = _min_max_direction((R, R, R))
    assert value == 1
    v = _half_angle(point)
    assert v[0] ** 2 + v[1] ** 2 == 1


@pytest.mark.parametrize("E, theta, alpha", [
    (0.3, Fraction(1, 2), golden_cf(20).value),
    (30.0, *_POLE_AT_MINUS_3),
], ids=["site-0", "mid-walk"])
def test_pre_passes_stay_finite_with_a_site_on_a_pole(maryland1, E, theta,
                                                      alpha):
    # a site exactly on the tangent model's pole reads about 1e300: site 0,
    # where the A_q walk starts, at theta = 1/2, and sites 8k - 3 for
    # _POLE_AT_MINUS_3, where the walks' entries have grown at E = 30.
    # Capped, it keeps the float pre-pass finite
    q = 13
    assert abs(maryland1.V_array(np.array([0.5]))[0]) > 1e290
    V = _window_sites(maryland1, theta, alpha, q)
    assert all(map(math.isfinite, _log2_norm_bound(E, V, q)))


def test_max_inequality_on_frozen_config():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    theta = Fraction(3, 8)
    q = cf.q[3]
    mats = gordon_matrices(pot, 0.0, theta, cf.value, q)
    lhs, v = gordon_lhs_uniform(mats), _minimiser(mats)
    # the closed-form minimiser, checked by stepping the recurrence itself:
    # the max of ||(phi_k, phi_{k-1})|| over k = q, -q, 2q
    with mp.workprec(600):
        phi = solution(pot, 0.0, theta, cf.value, v, -q - 1, 2 * q)
        mx = float(max(_vec_norm((phi[k], phi[k - 1])) for k in (q, -q, 2 * q)))
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
        smallness_check(pot, 0.0, theta, cf, 1, 0.2, L, delta_iv=d)


def test_smallness_passes_on_frozen_config():
    # the four qualifying levels of criterion 7: maryland q=57 and amo q=1,
    # 5 and 1026; amo q=1 fails on its backward difference (ln 0.80 > -0.50)
    passed = []
    for pot, cf, theta, E, eps, levels in [
            (make_maryland(0.15), liouville_cf(1.0, 4), Fraction(3, 8), 0.0,
             0.2, [3]),
            (make_amo(2.0), liouville_cf(math.log(4.0), 4), Fraction(1, 10),
             0.5, 0.15, [1, 2, 3])]:
        d = delta_index(cf, theta, pot.poles)
        L = lyapunov(pot, E, cf.value, 20000).value
        for n_i in levels:
            chk = smallness_check(pot, E, theta, cf, n_i, eps, L, delta_iv=d)
            mats = gordon_matrices(pot, E, theta, cf.value, cf.q[n_i])
            with mp.workprec(mats.precision):
                assert chk.d_fwd_log == _resolved_log(mats.D_fwd.norm())
                assert chk.d_back_log == _resolved_log(mats.D_back.norm())
            assert not chk.vacuous
            assert chk.passed == (max(chk.d_fwd_log, chk.d_back_log)
                                  <= chk.bound_log)
            assert chk.empirical_rate == -max(chk.d_fwd_log,
                                              chk.d_back_log) / chk.q
            passed.append((chk.q, chk.passed))
            if chk.passed:
                assert chk.empirical_rate >= 1e-2
    assert passed == [(57, True), (1, False), (5, True), (1026, True)]


@pytest.mark.parametrize("pot, cf, theta, E, n_i", [
    (make_amo(2.0), liouville_cf(math.log(4.0), 4), Fraction(1, 10), 0.5, 2),
    (make_maryland(0.15), liouville_cf(1.0, 4), Fraction(3, 8), 0.0, 3),
    (make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=0.8),
     golden_cf(20), Fraction(1, 7), 0.4, 6),
], ids=["amo-q5", "maryland-q57", "two-pole-cos2pi-q13"])
def test_gordon_lemma_identities(pot, cf, theta, E, n_i):
    # for every solution, with Phi(k) = (phi_k, phi_{k-1}) and A = A_q:
    #   Phi(0) = tr(A) Phi(q) - Phi(2q) - D_fwd Phi(q)      (Cayley-Hamilton)
    #   tr(A) Phi(0) = Phi(q) + Phi(-q) + adj(D_back) Phi(0)   (A + A^-1)
    # so ||D_fwd|| and ||D_back|| bound the error terms for every direction
    q = cf.q[n_i]
    assert q == {2: 5, 3: 57, 6: 13}[n_i]
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    tol = mp.mpf(2) ** -(mats.precision - 32)
    with mp.workprec(mats.precision):
        tr = mats.A_q.trace()
        for psi in (0, 0.3, 1.1, 2.5):
            v = (mp.cos(psi), mp.sin(psi))
            sol = solution(pot, E, theta, cf.value, v, -q - 1, 2 * q)
            phi = {k: (sol[k], sol[k - 1]) for k in (-q, 0, q, 2 * q)}
            for lhs, terms in [
                    (phi[0], [(tr, phi[q]), (-1, phi[2 * q]),
                              (-1, _apply(mats.D_fwd, phi[q]))]),
                    ((tr * phi[0][0], tr * phi[0][1]),
                     [(1, phi[q]), (1, phi[-q]),
                      (1, _apply(_adj(mats.D_back), phi[0]))])]:
                res = [lhs[i] - sum(c * t[i] for c, t in terms)
                       for i in (0, 1)]
                scale = max(_vec_norm(lhs),
                            *(abs(c) * _vec_norm(t) for c, t in terms))
                assert _vec_norm(res) <= tol * scale
                # the difference term is far above the residual, so the
                # identity does not hold without it
                assert _vec_norm(terms[-1][1]) > 2 ** 32 * tol * scale


def test_exclusion_certificate_level_guard():
    cf = liouville_cf(1.0, 4)
    pot = make_maryland(0.15)
    for level in (9, 0, -1):
        with pytest.raises(RangeError, match=rf"level {level} outside 1\.\.4$"):
            exclusion_certificate(pot, 0.0, Fraction(3, 8), cf, [level], 1e-2)
    # q_4 is about 5.7e24: refused before level 1 is worked on
    assert 3 * cf.q[4] > SITE_BUDGET
    with pytest.raises(BudgetError, match=r"^level 4 needs 3q = \d+ orbit sites"):
        exclusion_certificate(pot, 0.0, Fraction(3, 8), cf, [1, 2, 3, 4], 1e-2)


def _no_work(*args):
    raise AssertionError("the window was walked")


def test_over_budget_window_is_refused_before_any_work(monkeypatch):
    # q_3 = 3e12 + 1: its window would take 65.5 TiB of float sites, so
    # gordon_matrices, and smallness_check through it, refuse it first, with
    # the rule and message of _check_levels
    monkeypatch.setattr(gordon, "_window_sites", _no_work)
    monkeypatch.setattr(gordon, "_site_terms", _no_work)
    cf = cf_from_coeffs([1, 2, 10 ** 12, 3, 5])
    pot, theta = make_maryland(0.15), 0.3
    d = delta_index(cf, theta, pot.poles)
    budget = r"^the window needs 3q = 9000000000003 orbit sites \(q = 3000000000001\)"
    with pytest.raises(BudgetError, match=budget):
        gordon_matrices(pot, 0.3, theta, cf.value, cf.q[3])
    with pytest.raises(BudgetError, match=budget):
        smallness_check(pot, 0.3, theta, cf, 3, 1000.0, 0.1, d)
    with pytest.raises(BudgetError, match=r"^level 3 needs 3q = 9000000000003 "):
        exclusion_certificate(pot, 0.3, theta, cf, [3], 1e-2)


def test_energy_past_the_float_range_is_refused_before_any_work(monkeypatch):
    # mp.mpf("1e400") is finite, but its float is not, and the pre-pass
    # takes E as a float
    monkeypatch.setattr(gordon, "_window_sites", _no_work)
    cf, pot = liouville_cf(1.12, 4), make_amo(2.0)
    for E in (mp.mpf("1e400"), -mp.mpf("1e400")):
        with pytest.raises(InvalidInputError, match="energy must be finite"):
            gordon_matrices(pot, E, Fraction(1, 10), cf.value, cf.q[3])
        with pytest.raises(InvalidInputError, match="energy must be finite"):
            exclusion_certificates(pot, [0.5, E], Fraction(1, 10), cf, [3], 0.01)


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
        (c,) = exclusion_certificate(pot, E, theta, cf, [3], c=0.01)
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
    (c,) = exclusion_certificate(pot, 0.5, Fraction(1, 10), cf, [1], 1e-2)
    assert c.q == 1
    assert c.verdict == "inconclusive"


# the energy batch against the single-energy path

_MARYLAND_POOL = [float(Fraction(k - 16, 16)) for k in range(33)]


def test_certificate_batch_equals_one_call_per_energy():
    # every field, precision included, for the 33 energies of the
    # certify-maryland pool, which share one walk at 276 bits
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    batch = list(exclusion_certificates(pot, _MARYLAND_POOL, Fraction(3, 8),
                                        cf, [3], 0.01))
    singles = [exclusion_certificate(pot, E, Fraction(3, 8), cf, [3], 0.01)
               for E in _MARYLAND_POOL]
    assert batch == singles
    assert {c.precision for (c,) in batch} == {276}


def test_certificate_batch_across_two_working_precisions():
    # at q=57, E = 0 and 0.5 take 276 bits and E = 2 takes 294, so the
    # level's walk is made again at each change of precision
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    energies = [0.0, 2.0, 0.5, 2.0]
    batch = list(exclusion_certificates(pot, energies, Fraction(3, 8), cf,
                                        [2, 3], 0.01))
    singles = [exclusion_certificate(pot, E, Fraction(3, 8), cf,
                                     [2, 3], 0.01) for E in energies]
    assert batch == singles
    assert [certs[1].precision for certs in batch] == [276, 294, 276, 294]


def test_certificate_batch_builds_each_levels_sites_once(monkeypatch):
    # one record per level: the 33 energies of the certify-maryland pool
    # share each level's float sites and phasors, and so do E = 2 and 0,
    # which move level 3's working precision from 276 to 294 bits and back
    made, phasors = [], []

    def window_sites(pot, theta, alpha, q):
        made.append(q)
        return _window_sites(pot, theta, alpha, q)

    class Phasors(gordon._OrbitPhasors):
        def __init__(self, *args):
            phasors.append(args)
            super().__init__(*args)

    monkeypatch.setattr(gordon, "_window_sites", window_sites)
    monkeypatch.setattr(gordon, "_OrbitPhasors", Phasors)
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    batch = list(exclusion_certificates(pot, _MARYLAND_POOL + [2.0, 0.0],
                                        Fraction(3, 8), cf, [2, 3], 0.01))
    assert [certs[1].precision for certs in batch[-3:]] == [276, 294, 276]
    assert made == [cf.q[2], cf.q[3]]
    assert len(phasors) == 2


def test_certificate_batch_raises_the_pole_of_the_single_path(maryland1):
    cf = golden_cf(20)
    with mp.workprec(200):
        # site -2 lies 1e-14 from the pole at 1/2, as in the test above
        theta = mp.mpf(1) / 2 + 2 * cf.value + mp.mpf("1e-14")
    raised = []
    for run in (lambda: exclusion_certificate(maryland1, 0.3, theta, cf, [6], 0.01),
                lambda: list(exclusion_certificates(maryland1, [0.3, -0.2], theta,
                                                    cf, [6], 0.01))):
        with pytest.raises(OrbitPoleError) as exc:
            run()
        raised.append((exc.value.step, exc.value.dist))
    assert raised[0] == raised[1]
    assert raised[0][0] == -2


def test_certificate_batch_refuses_bad_input_before_any_work():
    pot, cf = make_maryland(0.15), liouville_cf(1.0, 4)
    # the generator is made, not run: the checks come first
    with pytest.raises(RangeError, match=r"level 9 outside 1\.\.4$"):
        exclusion_certificates(pot, [], Fraction(3, 8), cf, [9], 0.01)
    with pytest.raises(InvalidInputError, match="energy must be finite"):
        exclusion_certificates(pot, [0.0, math.inf], Fraction(3, 8), cf, [3], 0.01)


def test_certificate_keeps_nothing_after_it_returns():
    # the q=1026 certificate's walk (about 1.8 MB of integers at 2245 bits)
    # is dropped when the call returns; the pass that built mpf sites
    # peaked at 3.7 MB here
    pot, cf = make_amo(2.0), liouville_cf(math.log(4), 4)

    def run(theta):
        return exclusion_certificate(pot, 0.5, theta, cf, [3], 0.01)

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
