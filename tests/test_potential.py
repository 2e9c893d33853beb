import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qpspec import (
    BudgetError,
    DegenerateModelError,
    InvalidInputError,
    OrbitPoleError,
    PoleProximityError,
    SubsequenceError,
    cf_from_coeffs,
    delta_index,
    eval_V,
    f_product_check,
    golden_cf,
    gordon_matrices,
    liouville_cf,
    make_amo,
    make_custom,
    make_maryland,
)
from qpspec.arithmetic import as_mpf
from qpspec.potential import (G_REGISTRY, PHASOR_ROWS, MeromorphicPotential,
                              _buffers, _exact_phasor, _OrbitPhasors, orbit)

from oracles import g_closed, log_f_integral, site_values


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


def test_log_f_integral_vanishes(maryland1):
    assert abs(log_f_integral(maryland1)) < 1e-10
    two = make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=1.0)
    assert abs(log_f_integral(two)) < 1e-8


def test_two_pole_f_is_chord_product():
    pot = make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=1.0)
    x = mp.mpf(0.11)
    chord = abs(mp.exp(2j * mp.pi * x) - mp.exp(2j * mp.pi / 3)) * \
        abs(mp.exp(2j * mp.pi * x) - mp.exp(2j * mp.pi * mp.mpf(0.7)))
    assert float(abs(pot.f(x))) == pytest.approx(float(chord), rel=1e-12)


def test_spurious_pole_rejected():
    # sin(2 pi x) vanishes at 1/2, so a declared pole there is spurious
    with pytest.raises(InvalidInputError, match="g vanishes at declared pole 1/2"):
        make_custom([Fraction(1, 2), Fraction(1, 4)], "sin2pi", coupling=1.0)
    # the test is relative to the coupling: cos 2 pi x is -1/2 at 1/3 and 2/3
    # and 0 at 1/4, so at a coupling of 1e-13 g is far below 1e-12 at all
    # three, but only 1/4 is a zero of g; at coupling 0 every pole is spurious
    assert make_custom([Fraction(1, 3), Fraction(2, 3)], "cos2pi",
                       coupling=1e-13).m == 2
    with pytest.raises(InvalidInputError, match="g vanishes at declared pole 1/4"):
        make_custom([Fraction(1, 3), Fraction(1, 4)], "cos2pi", coupling=1e-13)
    with pytest.raises(InvalidInputError, match="g vanishes at declared pole 1/3"):
        make_custom([Fraction(1, 3), Fraction(2, 3)], "cos2pi", coupling=0.0)


# dyadic poles at which no registry g vanishes, and the degree of each g in
# (cos pi x, sin pi x): V(x + 1) = (-1)^(m + degree) V(x)
_DYADIC_POLES = (Fraction(1, 8), Fraction(3, 8), Fraction(5, 8))
_DEGREE = {name: degree for name, (degree, _) in G_REGISTRY.items()}
_PARITY_CASES = [(name, m) for name in sorted(G_REGISTRY) for m in range(4)]


@pytest.mark.parametrize("name, m", [(g, m) for g, m in _PARITY_CASES
                                     if (m + _DEGREE[g]) % 2])
def test_anti_periodic_models_are_refused(name, m):
    with pytest.raises(InvalidInputError, match=r"V\(x \+ 1\) = -V\(x\)"):
        make_custom(_DYADIC_POLES[:m], name, coupling=0.7)


@pytest.mark.parametrize("name, m", [(g, m) for g, m in _PARITY_CASES
                                     if (m + _DEGREE[g]) % 2 == 0])
def test_accepted_models_are_one_periodic(name, m):
    # dyadic sites and poles keep x + 1 and x - p exact at 53 bits, and mp's
    # sinpi and cospi reduce their arguments exactly, so V repeats bit for bit
    pot = make_custom(_DYADIC_POLES[:m], name, coupling=0.7)
    rng = np.random.default_rng(5)
    for x in (Fraction(int(k), 1 << 40) for k in rng.integers(0, 1 << 40, 40)):
        assert eval_V(pot, x + 1) == eval_V(pot, x) == eval_V(pot, x - 2)


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
    d = delta_index(cf, Fraction(3, 8), amo2.poles)
    lhs_log, bound_log = f_product_check(amo2, Fraction(3, 8), cf, 3, 0.3,
                                         delta_iv=d)
    assert lhs_log == 0.0


def test_f_product_refuses_an_over_budget_window():
    # q_3 = 3e12 + 1, past SITE_BUDGET: refused as sine_product_check
    # refuses it, before the sine-product walk
    cf = cf_from_coeffs([1, 2, 10 ** 12, 3, 5])
    pot = make_maryland(0.15)
    d = delta_index(cf, 0.3, pot.poles)
    with pytest.raises(BudgetError, match=r"^q_3 = 3000000000001 exceeds step budget"):
        f_product_check(pot, 0.3, cf, 3, 1000.0, delta_iv=d)


def test_orbit_matches_open_coded_walks():
    # orbit is bit for bit the walks it replaced: the scalar form
    # (theta + ks alpha) mod 1 and the phase-grid form with one column per
    # base point, here over a window that starts below zero, and for a base
    # point just below 1 (1 - 2^-53 wraps at once)
    alpha = float(liouville_cf(1.0, 4).value)
    ks = np.arange(-17, 40, dtype=float)
    for theta in (0.1, 0.8731, 0.0, 1.0 - 2.0 ** -53):
        assert np.array_equal(orbit(theta, alpha, -17, 40),
                              np.mod(theta + ks * alpha, 1.0))
    xs = np.array([0.5, 0.013, 0.999, math.sqrt(2.0) - 1.0])
    got = orbit(xs, alpha, -17, 40)
    assert got.shape == (57, 4)
    assert np.array_equal(got, np.mod(xs[None, :] + ks[:, None] * alpha, 1.0))


# the points the float site values are checked at: both ends of [0, 1),
# the tangent model's pole and points just beside it, a point off the
# binary grid, and a random sample
_ORACLE_X = np.concatenate([
    [0.0, 2.0 ** -60, 1.0 / 3.0, 0.5, 0.5 + 1e-13, 0.5 - 1e-13, 0.5 - 1e-9,
     1.0 - 2.0 ** -53],
    np.random.default_rng(11).random(400)])


def _exact_f_and_g(pot, X):
    """f and g at the float phases X on their exact-turn phasors, as
    ``V_array`` forms them."""
    work = _buffers(X)
    work[1][...], work[2][...] = _exact_phasor(X)
    return pot._f_and_g(work)


def test_exact_phasor_matches_mp():
    # (cos pi x, sin pi x) from the exact turn of each float phase, against
    # e^{i pi x} in mp at 200 bits at the same binary x: within the
    # 3.62e-16 that _OrbitPhasors derives for _half_turn_phasor (it
    # measured 1.5e-16).  The pole factor of f on it stays within the
    # 4.2e-15 of _f_near_pole at sites within 1e-4 of a pole (3.3e-16), for
    # a factor of one multiply (pole 1/2) and one of two (pole 1/3), and |f|
    # there within _f_near_pole at the site's pole distance
    c, s = _exact_phasor(_ORACLE_X)
    with mp.workprec(200):
        err = max(float(abs(mp.mpc(cx, sx) - mp.expjpi(mp.mpf(x))))
                  for x, cx, sx in zip(_ORACLE_X.tolist(), c.tolist(), s.tolist()))
    assert err <= 3.62e-16, f"phasor error {err:.3g}: check math.cos"
    offsets = np.concatenate([np.linspace(-1e-4, 1e-4, 201), [1e-13, -1e-13, 0.0]])
    for pot in (make_maryland(1.0), make_custom([Fraction(1, 3)], "sinpi")):
        p = float(pot.poles[0])
        X = p + offsets
        F = _exact_f_and_g(pot, X)[0]
        with mp.workprec(200):
            f_err = max(abs(float(pot.f(mp.mpf(x)) - fx))
                        for x, fx in zip(X.tolist(), F.tolist()))
        assert f_err <= 4.2e-15, f"pole factor error {f_err:.3g}"
        assert np.all(np.abs(F) <= [pot._f_near_pole(d) for d in pot.pole_distance(X)])


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_V_array_refuses_a_non_finite_phase(x):
    # a non-finite float has no exact turn to take the phasor from
    for pot in (make_maryland(1.0), make_amo(2.0)):
        with pytest.raises(InvalidInputError, match="^phase must be finite$"):
            pot.V_array(np.array([0.25, x]))


@pytest.mark.parametrize("alpha", [golden_cf(40).value, liouville_cf(1.0, 4).value],
                         ids=["golden", "liouville"])
def test_orbit_phasors_match_mp_at_the_exact_phases(alpha):
    # the rotated phasor at theta_k + (i + o_g) alpha against e^{i pi x} in
    # mp at 40 digits at the exact phase x (theta and alpha as their binary
    # values), at steps up to 1e6 that are never formed as floats: within
    # the 1.6e-15 that _OrbitPhasors derives (it measured 2.7e-16), and the
    # pole factor of f on it within the 4.2e-15 of _f_near_pole (6.4e-16),
    # for a factor of one multiply (pole 1/2) and one of two (pole 1/3).  Rows
    # [start, start + 48) are filled whole and in the chunks the kernel cuts
    # (cocycle._chunk_rows): pieces of 1, 2 or 4 rows inside a block and
    # runs of 8, 16 or 24 rows of whole blocks, also with a short last piece
    # inside a block, and every fill agrees bit for bit
    alpha = float(alpha)
    xs = np.array([0.0, 0.5, 1.0 - 2.0 ** -53, math.sqrt(2.0) - 1.0, 0.8731])
    offsets = [0, 5, 437_500, 937_500]
    pots = [make_maryland(1.0), make_custom([Fraction(1, 3)], "sinpi")]
    walk = _OrbitPhasors(xs, alpha, offsets)
    rows, err, f_err = 48, 0.0, 0.0
    assert rows % PHASOR_ROWS == 0
    for start in (0, 62_480):
        assert start % PHASOR_ROWS == 0
        shape = (rows, len(offsets), len(xs))
        work = [np.empty(shape) for _ in range(5)]
        c, s = (v.copy() for v in walk.fill(start, work[1:3], work[0]))
        # (piece, rows filled): 46 rows in pieces of 4 end with a piece of
        # 2, 45 rows in pieces of 8 with a piece of 5
        for piece, filled in [(1, 48), (2, 48), (4, 48), (8, 48), (16, 48),
                              (24, 48), (4, 46), (8, 45)]:
            pc, ps, scratch = (np.empty(shape) for _ in range(3))
            for lo in range(0, filled, piece):
                hi = min(filled, lo + piece)
                walk.fill(start + lo, (pc[lo:hi], ps[lo:hi]), scratch[lo:hi])
            assert np.array_equal(pc[:filled], c[:filled])
            assert np.array_equal(ps[:filled], s[:filled])
        F = []
        for pot in pots:
            work[1][...], work[2][...] = c, s
            F.append(pot._f_and_g(work)[0].copy())
        with mp.workdps(40):
            for (i, g, k), cv in np.ndenumerate(c):
                x = mp.mpf(xs[k]) + (start + i + offsets[g]) * mp.mpf(alpha)
                err = max(err, float(abs(mp.mpc(cv, s[i, g, k]) - mp.expjpi(x))))
                f_err = max([f_err] + [abs(float(pot.f(x) - f[i, g, k]))
                                       for pot, f in zip(pots, F)])
        # the exact phases of a sample of sites, rounded once
        idx = np.arange(0, c.size, 37)
        exact = [float((Fraction(xs[k]) + (start + i + offsets[g]) * Fraction(alpha)) % 1)
                 for i, g, k in zip(*np.unravel_index(idx, shape))]
        assert walk.phases(start, idx).tolist() == exact
    assert start + rows + offsets[-1] > 10 ** 6
    assert err <= 1.6e-15, f"phasor error {err:.3g}: check math.cos"
    assert f_err <= 4.2e-15, f"pole factor error {f_err:.3g}"


@pytest.mark.parametrize("start,r", [(6, 4), (0, 12), (4, 8), (3, 13)])
def test_orbit_phasors_refuse_rows_straddling_a_block(start, r):
    # a fill is a piece of one block or whole blocks from a block start
    walk = _OrbitPhasors(np.array([0.25]), float(golden_cf(40).value), [0, 7])
    bufs = [np.empty((r, 2, 1)) for _ in range(3)]
    with pytest.raises(ValueError, match="straddle a phasor block"):
        walk.fill(start, bufs[:2], bufs[2])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("f_sign", [1, -1])
def test_f_on_arrays_matches_the_sign_first_product(m, f_sign):
    # f takes a factor with a zero constant (a pole at 0, 1/2 or 1) as one
    # product, exact but for the sign of an exact zero, which
    # np.array_equal does not see, so f is bit for bit the open-coded
    # product of the factors s (2 cos pi p) - c (2 sin pi p) on the same
    # exact-turn phasor.  The sign of V is the sign of the coupling, applied
    # first to g: f does not see it, and g flips exactly
    X = np.concatenate([np.random.default_rng(7).random(996),
                        [0.0, 0.5, 0.5 + 1e-13, 1.0 / 3.0, 1.0 - 2.0 ** -53, 1.0]])
    X = X.reshape(6, 167)
    c, s = _exact_phasor(X)
    for family in ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)),
                   (Fraction(0), Fraction(1, 2), Fraction(1)),
                   (Fraction(1), Fraction(1, 3), Fraction(0))):
        poles = family[:m]
        # a g of degree m mod 2 keeps V periodic; f does not read g
        g_name = "sinpi" if m % 2 else "const"
        pot = MeromorphicPotential(poles, g_name, float(f_sign), "custom")
        old = np.ones_like(X)
        for cp, sp in pot._pole_phasors:
            old = old * (s * cp - c * sp)
        F, G = _exact_f_and_g(pot, X)
        assert F is None if not poles else np.array_equal(F, old), poles
        if poles and poles[0] in (0, 1):
            assert np.any(old == 0)  # x = 0 sits on the pole: an exact zero
        G_plus = _exact_f_and_g(
            MeromorphicPotential(poles, g_name, 1.0, "custom"), X)[1]
        assert np.array_equal(G, f_sign * G_plus), poles


@pytest.mark.parametrize("pot", [
    make_maryland(1.0),
    make_amo(2.0),
    make_custom([Fraction(1, 3), Fraction(1, 3)], "cos2pi", coupling=0.8),
    make_custom([Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)], "sinpi",
                coupling=1.7),
    make_custom([Fraction(1, 10**13), Fraction(1, 2)], "cos2pi", coupling=0.8),
    make_custom([Fraction(1, 5), Fraction(3, 5)], "sin2pi", coupling=2.5),
    make_custom([Fraction(2, 7), Fraction(3, 4)], "const", coupling=-1.25),
], ids=["maryland", "amo", "repeated-pole", "three-poles", "pole-near-0",
        "sin2pi", "const"])
def test_float_f_and_g_match_mp(pot):
    # the float f and g are polynomials in the exact-turn phasor; mp at 200
    # bits gives the exact values at the same binary x, f as its product of
    # sines and g in closed form.  The bounds are absolute (a relative one
    # cannot hold beside a pole or a zero of g): 2^m 4e-15 for f,
    # |coupling| 4e-15 for g, about eleven times what they measured.  The mp g,
    # the registry polynomial at mp's phasor, is the closed form up to the
    # roundings at 200 bits
    F, G = _exact_f_and_g(pot, _ORACLE_X)
    if F is None:
        F = np.ones_like(_ORACLE_X)
    coupling = abs(float(pot.coupling))
    with mp.workprec(200):
        xs = [mp.mpf(x) for x in _ORACLE_X.tolist()]
        f_err = max(abs(float(pot.f(x) - fx)) for x, fx in zip(xs, F.tolist()))
        g_err = max(abs(float(g_closed(pot, x) - gx))
                    for x, gx in zip(xs, G.tolist()))
        mp_g_err = max(abs(pot.g(x) - g_closed(pot, x)) for x in xs)
    assert f_err <= 2 ** pot.m * 4e-15, f"f error {f_err:.3g}: check math.cos"
    assert g_err <= coupling * 4e-15, f"g error {g_err:.3g}: check math.cos"
    assert mp_g_err <= coupling * 2 ** -195


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
    d = delta_index(cf, 0.1, pot.poles)
    assert f_product_check(pot, 0.1, cf, 10, 0.2, delta_iv=d) == (
        -0.08862378409384158, -22.32184333805511)


def _first_pole_site(pot, theta, alpha, start, stop):
    """The first site within eps_floor of a pole by the mp distance, with
    that distance, or None."""
    for j in range(start, stop):
        dist = pot.pole_distance(theta + j * alpha)
        if dist <= pot.eps_floor:
            return j, float(dist)
    return None


@pytest.mark.parametrize("offset", ["1e-9", "-1e-9", "1e-14", "-1e-14"])
def test_site_values_pole_check_matches_the_mp_walk(maryland1, offset):
    # site 5 sits `offset` from the pole at 1/2: 1e-9 is outside eps_floor,
    # 1e-14 inside it
    cf = golden_cf(20)
    with mp.workprec(200):
        alpha = cf.value
        theta = mp.mpf(1) / 2 - 5 * alpha + mp.mpf(offset)
        expect = _first_pole_site(maryland1, theta, alpha, -13, 26)
        if expect is None:
            S = site_values(maryland1, 0.3, theta, alpha, -13, 26)
            assert len(S) == 39
            assert abs(S[18]) > 1e8
        else:
            with pytest.raises(OrbitPoleError) as exc:
                site_values(maryland1, 0.3, theta, alpha, -13, 26)
            assert (exc.value.step, exc.value.dist) == expect
    assert (expect is None) == (abs(float(offset)) > maryland1.eps_floor)


_FLOOR = MeromorphicPotential.eps_floor


@pytest.mark.parametrize("pot, eps_floor", [
    (make_maryland(1.0), _FLOOR),
    (make_custom([Fraction(1, 3), Fraction(1, 3), Fraction(4, 5), Fraction(1, 10)],
                 "cos2pi", coupling=0.8), _FLOOR),
    (make_custom([Fraction(1, 10**13), Fraction(1, 2)], "cos2pi", coupling=0.8),
     _FLOOR),
    (make_maryland(1.0), 1e-6),
], ids=["maryland", "repeated-pole", "pole-near-0", "eps-floor-1e-6"])
def test_site_values_pole_test_is_the_mp_distance_test_at_the_floor(
        pot, eps_floor, monkeypatch):
    # the first, a middle and the last site of the window pass each pole, on
    # either side, at eps_floor (1 -+ 1e-3): the pass reads its pole factors,
    # so it must raise exactly when the 200-bit distance is within the
    # floor, naming that site and its distance; the pole near 0 puts sites
    # on both sides of 0, where the distance wraps
    monkeypatch.setattr(MeromorphicPotential, "eps_floor", eps_floor)
    start, stop, eps = -13, 26, pot.eps_floor
    hits, placed = [], []
    with mp.workprec(200):
        alpha = golden_cf(30).value
        for pl in pot.poles:
            for side in (-1, 1):
                for tilt in (-1e-3, 1e-3):
                    for j in (start, 6, stop - 1):
                        theta = (as_mpf(pl) + side * eps * (1 + mp.mpf(tilt))
                                 - j * alpha)
                        expect = _first_pole_site(pot, theta, alpha, start, stop)
                        hits.append(expect is not None and expect[0] == j)
                        placed.append(tilt < 0)
                        if expect is None:
                            S = site_values(pot, 0.3, theta, alpha, start, stop)
                            assert len(S) == stop - start
                            continue
                        with pytest.raises(OrbitPoleError) as exc:
                            site_values(pot, 0.3, theta, alpha, start, stop)
                        assert (exc.value.step, exc.value.dist) == expect
    # the placed site is the first hit at tilt -1e-3, and no site hits at +1e-3
    assert hits == placed


def test_site_values_refuse_a_non_finite_energy_or_g():
    # the pass reads E and g's coupling as integer mantissas, which would
    # turn inf or nan into 0, so the certificate refuses such an energy
    # before its walk; a g is finite at every site once its coupling is, and
    # a non-finite coupling is refused when the potential is made
    alpha = golden_cf(30).value
    with pytest.raises(InvalidInputError, match="energy must be finite"):
        gordon_matrices(make_maryland(1.0), mp.inf, 0.1, alpha, 5)
    with pytest.raises(InvalidInputError, match="coupling must be finite"):
        make_custom([Fraction(1, 3)], "cos2pi", coupling=mp.nan)


@pytest.mark.parametrize("lam,shown", [
    (1e308, "1e+308"), (-1e308, "-1e+308"), (2.0 ** 1023, "8.98846567431158e+307"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_make_maryland_refuses_a_coupling_naming_the_value_given(lam, shown):
    # g carries -2 lam, which overflows from |lam| = 2^1023 on; the refusal
    # names lam itself, not the overflowed -2 lam
    with pytest.raises(InvalidInputError,
                       match=rf"coupling must be finite with \|coupling\| < "
                             rf"2\*\*1023, got {re.escape(shown)}$"):
        make_maryland(lam)


def test_make_maryland_takes_the_largest_coupling_below_the_overflow():
    lam = math.nextafter(2.0 ** 1023, 0.0)
    assert make_maryland(lam).coupling == make_maryland(-lam).coupling * -1 == -2 * lam
    assert math.isfinite(-2 * lam)


@pytest.mark.parametrize("name", sorted(G_REGISTRY))
def test_a_registry_g_refuses_a_non_finite_coupling(name):
    # the site pass reads the coupling as a mantissa and exponent, which
    # would turn inf or nan into 0; the constructor refuses it, and a name
    # outside the registry, for every way of making a potential
    for coupling in (mp.inf, float("nan")):
        with pytest.raises(InvalidInputError, match="coupling must be finite"):
            make_custom([], name, coupling=coupling)
        with pytest.raises(InvalidInputError, match="coupling must be finite"):
            MeromorphicPotential((), name, coupling, "custom")
    for make in (lambda: make_custom([], name + "x"),
                 lambda: MeromorphicPotential((), name + "x", 1.0, "custom")):
        with pytest.raises(InvalidInputError,
                           match=rf"unknown g '{name}x'; registry: \['const', "):
            make()


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_a_site_on_a_pole_takes_the_sign_of_g(lam):
    # the on-pole rule: at a site on a pole f is set to +1e-300, so V there
    # is g / 1e-300 and takes the sign of g.  The tangent model's g is
    # -2 lam sin pi x, so V(1/2) is about -2e300 lam; a cos2pi model with
    # poles at 0 and 1/2 has g = coupling at 0 and -coupling at 1/2
    V = make_maryland(lam).V_array(np.array([0.5]))
    assert V.tolist() == [-lam * 1.9999999999999998e300]
    pot = make_custom([Fraction(0), Fraction(1, 2)], "cos2pi", coupling=0.8 * lam)
    V = pot.V_array(np.array([0.0, 0.5]))
    assert np.sign(V).tolist() == [lam, -lam]
    assert np.all(np.abs(V) > 7e299)
