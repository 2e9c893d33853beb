import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import (
    InvalidInputError,
    NumericError,
    OrbitPoleError,
    golden_cf,
    lyapunov,
    lyapunov_scan,
    make_amo,
    make_custom,
    make_maryland,
    product,
    step_A,
    truncated_spectrum,
)
from qpspec import cocycle
from qpspec.cocycle import (
    CHUNK,
    DEFAULT_X0,
    SEGMENTS,
    _ln_norms,
    phase_grid,
    spectral_norm_2x2,
)
from qpspec.potential import (PHASOR_ROWS, MeromorphicPotential, _buffers,
                              _OrbitPhasors, _phasor, orbit)

from oracles import ln_norm


def _ln_norms1(pot, E, alpha, xs, n, kind):
    """The engine at one energy: that energy's values and the excluded mask."""
    vals, excl = _ln_norms(pot, np.array([E]), alpha, xs, n, kind)
    return vals[0], excl


def _mat_close(m1, m2, tol):
    return max(abs(float(m1.a - m2.a)), abs(float(m1.b - m2.b)),
               abs(float(m1.c - m2.c)), abs(float(m1.d - m2.d))) < tol


# ---------------------------------------------------------------------------
# single steps


def test_step_A_is_unimodular(maryland1):
    with mp.workprec(80):
        s = step_A(maryland1, mp.mpf(1.5), mp.mpf(0.3))
        assert abs(s.det() - 1) < mp.mpf(2) ** -70


# ---------------------------------------------------------------------------
# ordered products


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
@settings(max_examples=25, deadline=None)
def test_cocycle_composition_identity(n, m):
    pot = make_amo(1.3)
    cf = golden_cf(20)
    with mp.workprec(100):
        x = mp.mpf(0.21)
        E = mp.mpf(0.7)
        lhs = product(pot, E, x, cf.value, n + m)
        rhs = product(pot, E, x + m * cf.value, cf.value, n).matmul(
            product(pot, E, x, cf.value, m))
        assert _mat_close(lhs, rhs, 1e-15)


def test_negative_window_is_shifted_positive_window(amo2):
    cf = golden_cf(20)
    with mp.workprec(100):
        x = mp.mpf(0.21)
        E = mp.mpf(0.7)
        lhs = product(amo2, E, x, cf.value, -7)
        rhs = product(amo2, E, x - 7 * cf.value, cf.value, 7)
        assert _mat_close(lhs, rhs, 1e-20)


def test_product_hits_pole(maryland1):
    cf = golden_cf(20)
    with pytest.raises(OrbitPoleError):
        product(maryland1, 0.0, Fraction(1, 2), cf.value, 3)


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.normal(size=(2, 2))
        got = spectral_norm_2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        expect = np.linalg.norm(m, 2)
        assert float(got) == pytest.approx(float(expect), rel=1e-12)


# ---------------------------------------------------------------------------
# Lyapunov engine


def test_constant_cocycle_closed_form():
    pot = make_custom([], "const", coupling=0.0)
    cf = golden_cf(30)
    est = lyapunov(pot, 3.0, cf.value, 4000, kind="A")
    target = math.log((3 + math.sqrt(5)) / 2)
    assert est.value == pytest.approx(target, abs=1e-3)


def test_lyapunov_is_deterministic(amo2):
    cf = golden_cf(30)
    e1 = lyapunov(amo2, 0.25, cf.value, 3000)
    e2 = lyapunov(amo2, 0.25, cf.value, 3000)
    assert e1.value == e2.value
    assert e1.discrepancy == e2.discrepancy


def test_kinds_share_the_exponent(maryland1):
    cf = golden_cf(30)
    a = lyapunov(maryland1, 0.0, cf.value, 20000, kind="A")
    d = lyapunov(maryland1, 0.0, cf.value, 20000, kind="D")
    assert a.value == pytest.approx(d.value, rel=0.05)


def test_supercritical_cosine_lower_bound():
    # coupling-based lower bound L(E) >= ln(coupling / 2), uniform in E
    pot = make_amo(4.0)
    cf = golden_cf(30)
    for E in (-1.0, 0.0, 2.0):
        est = lyapunov(pot, E, cf.value, 20000)
        assert est.value >= math.log(2.0) - 0.02


def _maryland_exponent(lam, E):
    """Figotin-Pastur closed form of L(E) for V = lam tan(pi x), any
    irrational frequency."""
    return math.acosh((math.hypot(2 + E, lam) + math.hypot(2 - E, lam)) / 4)


@pytest.mark.parametrize("lam", [0.15, 1.0, 3.0])
def test_maryland_exponent_matches_closed_form(lam):
    cf = golden_cf(30)
    pot = make_maryland(lam)
    for E in (-2.0, 0.0, 1.5):
        est = lyapunov(pot, E, cf.value, 20000, kind="D").value
        # the finite-n estimate sits above L by a bias of about 1/n
        assert 0 < est - _maryland_exponent(lam, E) <= 2e-4, E


@pytest.mark.parametrize("lam", [3.0, 4.0])
def test_cosine_exponent_meets_herman_bound_on_the_spectrum(lam):
    # Herman: L(E) >= ln(lam / 2) for V = lam cos 2 pi x, at every E
    cf = golden_cf(30)
    pot = make_amo(lam)
    eigs, _ = truncated_spectrum(pot, 0.1, cf.value, 256)
    for E in eigs[::64]:
        assert lyapunov(pot, E, cf.value, 20000).value >= math.log(lam / 2), E


_KERNEL_POTENTIALS = pytest.mark.parametrize("pot", [
    make_amo(2.0),
    make_maryland(1.0),
    make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi", coupling=0.8),
], ids=["amo", "maryland", "two-pole-cos2pi"])


@_KERNEL_POTENTIALS
@pytest.mark.parametrize("kind", ["A", "D"])
def test_ln_norms_columns_are_independent_phases(pot, kind):
    # the engine's phases never mix: a base point appended as one more column
    # gives bit for bit what a call of its own gives; 0.5 is the tangent
    # model's pole, so the A-kind mask is exercised there
    cf = golden_cf(30)
    xs = np.append(phase_grid(8), [0.5, DEFAULT_X0])
    n = CHUNK + 3  # crosses a chunk boundary and ends off the renormalisation beat
    stretch = -(-n // SEGMENTS)
    # both the 10-column call and the 1-column calls span two chunks or more
    for cols in (SEGMENTS * len(xs), SEGMENTS):
        assert stretch > max(1, CHUNK // cols)
    vals, excl = _ln_norms1(pot, 0.7, float(cf.value), xs, n, kind)
    for k, x in enumerate(xs):
        v1, e1 = _ln_norms1(pot, 0.7, float(cf.value), np.array([x]), n, kind)
        assert np.array_equal(v1, vals[k:k + 1], equal_nan=True)
        assert np.array_equal(e1, excl[k:k + 1])
    assert excl[8] == (kind == "A" and pot.label == "maryland")


# repr of the estimates of the time-split engine (16 stretches per orbit,
# chained) on sites from the rotated phasor walk; the single-orbit base
# point, whose gap to the phase average is the discrepancy, is checked
# against a 40-digit product at its exact phases
@pytest.mark.parametrize("pot,E,kind,value,discrepancy", [
    (make_maryland(1.0), 0.0, "A", 0.4812429016659198, 0.00010316320222225617),
    (make_maryland(1.0), 0.0, "D", 0.48124843313222476, 0.0001718391936022523),
    (make_amo(2.0), 0.5, "A", 0.42575592738872076, 2.7113372384424128e-05),
    (make_amo(2.0), 0.5, "D", 0.42575592738872076, 2.7113372384424128e-05),
], ids=["maryland-A", "maryland-D", "amo-A", "amo-D"])
def test_lyapunov_pinned_estimates(pot, E, kind, value, discrepancy):
    alpha, n = golden_cf(30).value, 20000
    est = lyapunov(pot, E, alpha, n, kind=kind)
    assert est.value == value
    assert est.discrepancy == discrepancy
    assert est.phases_used == 64
    # columns never mix, so the base point's column of its own is the one
    # the estimate read
    base, _ = _ln_norms1(pot, E, float(alpha), np.array([DEFAULT_X0]), n, kind)
    assert est.discrepancy == abs(est.value - base[0])
    assert base[0] == pytest.approx(ln_norm(pot, E, DEFAULT_X0, float(alpha), n, kind),
                                    rel=1e-13, abs=0)


@pytest.mark.parametrize("kind", ["A", "D"])
def test_step_row_is_the_four_array_step_bit_for_bit(kind):
    # the engine's chunk step against the four-array expressions it replaced,
    # on the engine's layout (four rows of one buffer) and on entries spread
    # over many binades, so every rounding is exercised; the 20 rows start
    # 7 steps before a renormalisation beat, which the chunk step takes too
    rng = np.random.default_rng(5)
    cols, rows = 53, 20
    first = cocycle.RENORM_EVERY - 7
    for _ in range(10):
        state = rng.normal(size=(4, cols)) * 2.0 ** rng.integers(-30, 30, (4, cols))
        a, b, c, d = state.copy()
        S = rng.normal(size=(rows, cols)) * 2.0 ** rng.integers(-3, 3, (rows, cols))
        F = None if kind == "A" else rng.normal(size=(rows, cols))
        log = np.zeros(cols)
        for j, s in enumerate(S):
            f = 1.0 if F is None else F[j]
            a, b, c, d = s * a - f * c, s * b - f * d, f * a, f * b
            if (first + j + 1) % cocycle.RENORM_EVERY == 0:
                m = np.max(np.abs([a, b, c, d]), axis=0)
                a, b, c, d = a / m, b / m, c / m, d / m
                log += np.log(m)
        logs = np.zeros(cols)
        M = cocycle._step_chunk(state, tuple(state), S, F,
                                tuple(np.empty((2, cols))), first, logs)
        assert all(np.array_equal(x, y) for x, y in zip(M, (a, b, c, d)))
        assert np.array_equal(logs, log) and np.any(log)
        # the step writes in place: the state stays in its buffer
        assert all(np.shares_memory(x, state) for x in M)


@_KERNEL_POTENTIALS
@pytest.mark.parametrize("kind", ["A", "D"])
def test_lyapunov_scan_is_lyapunov_per_energy_bit_for_bit(pot, kind):
    # 20 energies run as engine passes of 16 and 4; E = 1e300 overflows
    # within a renormalisation beat and fails alone, with its own error
    alpha, n = golden_cf(30).value, 4099
    energies = [float(E) for E in np.linspace(-3.0, 3.0, 19)]
    energies.insert(5, 1e300)
    assert len(energies) > cocycle.BATCH
    scan = lyapunov_scan(pot, alpha, energies, n, kind=kind)
    assert len(scan) == len(energies)
    for E, est in zip(energies, scan):
        if E == 1e300:
            assert isinstance(est, NumericError)
            assert str(est).endswith("at E = 1e+300")
            with pytest.raises(NumericError, match=r"E = 1e\+300"):
                lyapunov(pot, E, alpha, n, kind=kind)
        else:
            assert repr(est) == repr(lyapunov(pot, E, alpha, n, kind=kind)), E


def test_a_site_on_the_pole_is_masked_at_small_coupling():
    # theta = 1/2 puts the orbit's site 0 exactly on the tangent model's
    # pole, where the float f on the tangent phasor is of rounding size, not
    # 0 (on the kernel's rotated phasor it is 0); V there still reads as a
    # pole, so the A kernel masks the phase however small the coupling (the
    # spectrum's flag is tested in test_spectral)
    pot = make_maryland(1e-6)
    X = np.array([0.5])
    work = _buffers(X)
    _phasor(X, work[1:3])
    assert 0 < abs(pot._f_and_g(work)[0][0]) <= 1e-15
    assert abs(pot.V_array(np.array([0.5]))[0]) > 1e290
    alpha = float(golden_cf(30).value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, excl = _ln_norms1(pot, 0.3, alpha, np.array([0.5, 0.25]), 5003, "A")
    assert excl.tolist() == [True, False]
    assert np.isnan(vals[0]) and np.isfinite(vals[1])


def test_lyapunov_argument_validation(amo2):
    cf = golden_cf(20)
    with pytest.raises(InvalidInputError):
        lyapunov(amo2, 0.0, cf.value, 0)
    with pytest.raises(InvalidInputError):
        lyapunov(amo2, 0.0, cf.value, 10, kind="Z")
    # the phasor walk reduces alpha's exact turn, which a non-finite alpha
    # (or an mpf past the float range) does not have
    for alpha in (math.inf, math.nan, mp.mpf("1e400")):
        with pytest.raises(InvalidInputError, match="alpha must be finite"):
            lyapunov(amo2, 0.0, alpha, 10)


def test_lyapunov_n_not_multiple_of_renorm(amo2):
    cf = golden_cf(30)
    est = lyapunov(amo2, 0.25, cf.value, 4097)
    assert math.isfinite(est.value)


def test_uniform_bound_margins(amo2):
    # the uniform upper bound ||D_n(x)|| <= C e^{n (L + eps)}: at sampled
    # phases the margins (1/n) ln||D_n(x)|| - (L + eps) stay within ln(C)/n
    cf = golden_cf(30)
    L = lyapunov(amo2, 0.25, cf.value, 4000).value
    vals, _ = _ln_norms1(amo2, 0.25, float(cf.value),
                         np.array([0.1, 0.37, 0.62, 0.9]), 4000, "D")
    assert max(vals - (L + 0.05)) <= 0.05


def _sequential_ln_norm(pot, E, alpha, x, n, kind):
    """Oracle: (1/n) ln||M_n(x)|| from the plain step-by-step float product
    over the engine's own site values, taken from the same phasor walk, so
    that it checks the engine's product order and chaining only."""
    stretch = -(-n // SEGMENTS)
    walk = _OrbitPhasors(np.array([x]), alpha, stretch * np.arange(SEGMENTS))
    # fill whole phasor blocks, then keep the stretch's rows
    blocks = -(-stretch // PHASOR_ROWS) * PHASOR_ROWS
    work = [np.empty((blocks, SEGMENTS, 1)) for _ in range(5)]
    walk.fill(0, work[1:3], work[0])
    work = [w[:stretch] for w in work]
    if kind == "A":
        V, _ = pot._V_and_near(work, lambda idx: walk.phases(0, idx))
        S, F = E - V, np.ones_like(V)
    else:
        F, G = pot._f_and_g(work)
        F = np.ones_like(G) if F is None else F
        S = E * F - G
    # site i + stretch g sits at row i of column g; put the steps in order
    S, F = (v.transpose(1, 0, 2).reshape(-1)[:n] for v in (S, F))
    a, b, c, d, log = 1.0, 0.0, 0.0, 1.0, 0.0
    for s, f in zip(S.tolist(), F.tolist()):
        a, b, c, d = s * a - f * c, s * b - f * d, f * a, f * b
        m = max(abs(a), abs(b), abs(c), abs(d))
        a, b, c, d, log = a / m, b / m, c / m, d / m, log + math.log(m)
    return (log + math.log(spectral_norm_2x2(a, b, c, d))) / n


@_KERNEL_POTENTIALS
@pytest.mark.parametrize("kind", ["A", "D"])
@pytest.mark.parametrize("n", [1, 5, 17, 4097, 5003])
def test_ln_norms_matches_sequential_product(pot, kind, n):
    # n < SEGMENTS leaves whole stretches as padding; the other n are not
    # multiples of SEGMENTS, so the last stretch is padded
    alpha = float(golden_cf(30).value)
    xs = np.append(phase_grid(8), [0.5, DEFAULT_X0])
    vals, excl = _ln_norms1(pot, 0.7, alpha, xs, n, kind)
    for k, x in enumerate(xs):
        if not excl[k]:
            oracle = _sequential_ln_norm(pot, 0.7, alpha, x, n, kind)
            assert vals[k] == pytest.approx(oracle, rel=1e-12, abs=0), x
    assert np.all(np.isnan(vals[excl]))


def test_ln_norms_where_the_exponent_vanishes():
    # on the spectrum of the critical cosine model L = 0, and the chained
    # stretch products cancel: the per-phase values keep about 1e-12 absolute
    # (3e-9 relative) against the plain product, far below the finite-n bias
    # of order 1/n that they carry anyway
    pot, n = make_amo(2.0), 5003
    alpha = float(golden_cf(30).value)
    xs = np.append(phase_grid(8), DEFAULT_X0)
    vals, _ = _ln_norms1(pot, 0.0, alpha, xs, n, "D")
    oracle = [_sequential_ln_norm(pot, 0.0, alpha, x, n, "D") for x in xs]
    assert np.max(np.abs(vals - oracle)) <= 1e-11
    assert max(oracle) < 10 / n  # the estimates themselves are O(1/n)


@pytest.mark.parametrize("K,rows", [
    (65, 16), (10, 104), (85, 16), (100, 8), (130, 4), (201, 4), (257, 2),
    (600, 1), (4097, 1)])
def test_chunk_rows_are_whole_phasor_blocks_or_a_piece_of_one(K, rows):
    # from PHASOR_ROWS up the multiple of PHASOR_ROWS nearest CHUNK / width
    # (15.75 rows at the default 65 phases give 16, 12.05 at 85 give 16 and
    # 10.24 at 100 give 8), below it the largest of 4, 2 and 1 that fits
    width = SEGMENTS * K
    assert cocycle._chunk_rows(width) == rows
    assert rows % PHASOR_ROWS == 0 or PHASOR_ROWS % rows == 0


# site budgets (CHUNK) and the rows per chunk they give at 10 phases
_BUDGET_ROWS = {1: 1, 16 * 10 * 2: 2, 16 * 10 * 4: 4, 16 * 10 * 8: 8, 16 * 10 * 16: 16,
                16 * 10 * 24: 24, 16 * 10 * 32 + 5: 32, 4096 * 32: 816}


@pytest.mark.parametrize("budget", list(_BUDGET_ROWS))
def test_ln_norms_values_do_not_depend_on_the_chunk_rows(monkeypatch, budget):
    # 1, 2 and 4 rows per chunk (pieces of a phasor block), 8, 16, 24 and 32
    # (whole blocks) and the 816 of the earlier 4096 * 32 site budget
    # against the default 104, for one energy and inside a batch of three.
    # n = 1031 runs 65 steps per stretch, so every count but 1 ends on a
    # short last chunk (1 row, 17 rows for 24, and one chunk of 65 rows for
    # 104 and 816), and the padding's 9 rows span chunks up to 8 rows
    alpha = float(golden_cf(30).value)
    xs = np.append(phase_grid(8), [0.5, DEFAULT_X0])
    pot = make_maryland(1.0)
    ref = [_ln_norms1(pot, 0.7, alpha, xs, 1031, kind) for kind in "AD"]
    monkeypatch.setattr(cocycle, "CHUNK", budget)
    assert cocycle._chunk_rows(SEGMENTS * len(xs)) == _BUDGET_ROWS[budget]
    for kind, (vals, excl) in zip("AD", ref):
        v, e = _ln_norms1(pot, 0.7, alpha, xs, 1031, kind)
        assert np.array_equal(v, vals, equal_nan=True)
        assert np.array_equal(e, excl)
        vb, eb = _ln_norms(pot, np.array([-1.5, 0.7, 2.0]), alpha, xs, 1031, kind)
        assert np.array_equal(vb[1], vals, equal_nan=True)
        assert np.array_equal(eb, excl)


def test_ln_norms_ignores_a_pole_in_the_padding():
    # n = 17 runs as 16 stretches of 2 steps, so steps 17..31 are padding;
    # the phase x sits on the tangent model's pole at step 20 and nowhere
    # before step 17, so it is not masked and steps silently
    alpha = float(golden_cf(40).value)
    pot = make_maryland(1.0)
    x = (0.5 - 20 * alpha) % 1.0
    assert pot.pole_distance(orbit(x, alpha, 20, 21)[0]) <= pot.eps_floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, excl = _ln_norms1(pot, 2.0, alpha, np.array([x]), 17, "A")
    assert not excl[0]
    assert vals[0] == pytest.approx(
        _sequential_ln_norm(pot, 2.0, alpha, x, 17, "A"), rel=1e-12, abs=0)


def test_ln_norms_masked_pole_column_is_silent():
    # V is 2e300 on the tangent model's pole, enough to overflow the A-kind
    # column; that column is masked, so no RuntimeWarning may reach the caller
    cf = golden_cf(40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, excl = _ln_norms1(make_maryland(1.0), 2.0, float(cf.value),
                                np.array([0.5, 0.25]), 5003, "A")
    assert excl.tolist() == [True, False]
    assert np.isfinite(vals[1])


@pytest.mark.parametrize("pot, eps_floor", [
    (make_maryland(1.0), MeromorphicPotential.eps_floor),
    (make_custom([Fraction(1, 3), Fraction(1, 3), Fraction(4, 5), Fraction(1, 10)],
                 "cos2pi", coupling=0.8), MeromorphicPotential.eps_floor),
    (make_custom([Fraction(1, 10**13), Fraction(1, 2)], "cos2pi", coupling=0.8),
     MeromorphicPotential.eps_floor),
    (make_maryland(1.0), 1e-6),
], ids=["maryland", "repeated-pole", "pole-near-0", "eps-floor-1e-6"])
def test_ln_norms_mask_is_the_brute_force_mask_at_the_floor(pot, eps_floor,
                                                           monkeypatch):
    # phases whose orbit passes each pole, on either side, at eps_floor
    # (1 -+ 1e-3) at step j: the engine reads f to pick the sites it measures,
    # so its mask must equal the exact distance test at every site; the pole
    # near 0 puts sites just below 1, where the distance wraps.  A small
    # alpha keeps j alpha below 1, so the sites land within an ulp of where
    # they are placed, in the first and in a later chunk
    monkeypatch.setattr(MeromorphicPotential, "eps_floor", eps_floor)
    alpha, n, eps = float(golden_cf(30).value) / 1024, 1031, pot.eps_floor
    xs = []
    for pl in pot.poles:
        for side in (-1, 1):
            for tilt in (-1e-3, 1e-3):
                site = (float(pl) + side * eps * (1 + tilt)) % 1.0
                for j in (0, 517, n - 1):
                    x = (site - j * alpha) % 1.0
                    xs.append(x + (site - orbit(x, alpha, j, j + 1)[0]))
    xs = np.array(xs + list(phase_grid(8)))
    brute = np.array([np.any(pot.pole_distance(orbit(x, alpha, 0, n)) <= eps)
                      for x in xs])
    # the placed phases fall on both sides of the floor: inside, outside
    assert brute[:-8].reshape(-1, 2, 3).tolist() == [
        [[True] * 3, [False] * 3]] * (2 * pot.m)
    assert SEGMENTS * -(-n // SEGMENTS) > n  # the last stretch is padded
    assert -(-n // SEGMENTS) > CHUNK // (SEGMENTS * len(xs))  # two chunks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, excl = _ln_norms1(pot, 0.7, alpha, xs, n, "A")
    assert np.array_equal(excl, brute)
    assert np.array_equal(np.isnan(vals), brute)


@pytest.mark.parametrize("kind", ["A", "D"])
def test_ln_norms_overflow_is_a_numeric_error_naming_the_energy(kind):
    # at E = 1e300 the step overflows within a renormalisation beat; the
    # engine silences that chunk's overflow, and the chain's when the orbit
    # ends before the next renormalisation (n = 17), and raises on the result
    for n in (17, 5003):
        with pytest.raises(NumericError, match=r"E = 1e\+300"):
            lyapunov(make_maryland(1.0), 1e300, golden_cf(30).value, n, kind=kind)


@pytest.mark.parametrize("kind", ["A", "D"])
def test_lyapunov_with_sites_past_any_safe_size_is_a_silent_numeric_error(kind):
    # at coupling 1e15 the tangent model's sites reach 1e15 and more, so 32
    # steps overflow between renormalisations: the engine steps with the
    # overflow silenced and reports the non-finite norm, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite product norm"):
            lyapunov(make_maryland(1e15), 0.3, golden_cf(40).value, 2000, kind=kind)
