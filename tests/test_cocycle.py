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
    make_amo,
    make_custom,
    make_maryland,
    product,
    product_inverse,
    step_A,
    step_D,
    truncated_spectrum,
    uniform_bound_check,
)
from qpspec.cocycle import (
    CHUNK,
    DEFAULT_X0,
    TransferMatrix2,
    _ln_norms,
    phase_grid,
    spectral_norm_2x2,
)


def _mat_close(m1, m2, tol):
    return max(abs(float(m1.a - m2.a)), abs(float(m1.b - m2.b)),
               abs(float(m1.c - m2.c)), abs(float(m1.d - m2.d))) < tol


# ---------------------------------------------------------------------------
# single steps


def test_step_A_is_unimodular(maryland1):
    with mp.workprec(80):
        s = step_A(maryland1, mp.mpf(1.5), mp.mpf(0.3))
        assert abs(s.det() - 1) < mp.mpf(2) ** -70


def test_step_D_det_is_f_squared(maryland1):
    with mp.workprec(80):
        x = mp.mpf(0.3)
        s = step_D(maryland1, mp.mpf(1.5), x)
        assert abs(s.det() - maryland1.f(x) ** 2) < mp.mpf(2) ** -70


def test_step_D_is_f_times_A(maryland1):
    with mp.workprec(80):
        x = mp.mpf(0.3)
        E = mp.mpf(1.5)
        assert _mat_close(step_D(maryland1, E, x),
                          step_A(maryland1, E, x).scaled(maryland1.f(x)), 1e-20)


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


def test_product_inverse_inverts_product(maryland1):
    cf = golden_cf(20)
    with mp.workprec(120):
        x = mp.mpf(0.11)
        E = mp.mpf(0.4)
        fwd = product(maryland1, E, x, cf.value, 9)
        inv = product_inverse(maryland1, E, x, cf.value, 9)
        assert _mat_close(fwd.matmul(inv), TransferMatrix2.identity(), 1e-20)


def test_product_hits_pole(maryland1):
    cf = golden_cf(20)
    with pytest.raises(OrbitPoleError):
        product(maryland1, 0.0, Fraction(1, 2), cf.value, 3)
    with pytest.raises(OrbitPoleError):
        product_inverse(maryland1, 0.0, Fraction(1, 2), cf.value, 3)


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


def test_single_orbit_method(amo2):
    cf = golden_cf(30)
    pa = lyapunov(amo2, 0.25, cf.value, 5000, method="phase-average")
    so = lyapunov(amo2, 0.25, cf.value, 5000, method="single-orbit")
    assert so.phases_used == 1
    assert pa.discrepancy == so.discrepancy == abs(pa.value - so.value)


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
    vals, excl = _ln_norms(pot, 0.7, float(cf.value), xs, n, kind)
    for k, x in enumerate(xs):
        v1, e1 = _ln_norms(pot, 0.7, float(cf.value), np.array([x]), n, kind)
        assert np.array_equal(v1, vals[k:k + 1], equal_nan=True)
        assert np.array_equal(e1, excl[k:k + 1])
    assert excl[8] == (kind == "A" and pot.label == "maryland")


# repr of the estimates before the single orbit joined the phase grid as one
# more column; the kernel change must not move a single bit
@pytest.mark.parametrize("pot,E,kind,value,discrepancy", [
    (make_maryland(1.0), 0.0, "A", 0.48124290166631717, 0.00010316320246389621),
    (make_maryland(1.0), 0.0, "D", 0.4812484331325386, 0.00017183919376234646),
    (make_amo(2.0), 0.5, "A", 0.42575592738872076, 2.7113372381759593e-05),
    (make_amo(2.0), 0.5, "D", 0.42575592738872076, 2.7113372381759593e-05),
], ids=["maryland-A", "maryland-D", "amo-A", "amo-D"])
def test_lyapunov_pinned_estimates(pot, E, kind, value, discrepancy):
    est = lyapunov(pot, E, golden_cf(30).value, 20000, kind=kind)
    assert est.value == value
    assert est.discrepancy == discrepancy
    assert est.phases_used == 64


def test_lyapunov_argument_validation(amo2):
    cf = golden_cf(20)
    with pytest.raises(InvalidInputError):
        lyapunov(amo2, 0.0, cf.value, 0)
    with pytest.raises(InvalidInputError):
        lyapunov(amo2, 0.0, cf.value, 10, method="bogus")
    with pytest.raises(InvalidInputError):
        lyapunov(amo2, 0.0, cf.value, 10, kind="Z")


def test_lyapunov_n_not_multiple_of_renorm(amo2):
    cf = golden_cf(30)
    est = lyapunov(amo2, 0.25, cf.value, 4097)
    assert math.isfinite(est.value)


def test_uniform_bound_margins(amo2):
    cf = golden_cf(30)
    rep = uniform_bound_check(amo2, 0.25, cf.value, 4000, epsilon=0.05,
                              sample_x=[0.1, 0.37, 0.62, 0.9])
    assert max(rep.matrix_margins) <= 0.05
    assert rep.max_constant() >= 1.0 or max(rep.matrix_margins) < 0


def test_uniform_bound_scalar_factor(maryland1):
    cf = golden_cf(30)
    rep = uniform_bound_check(
        maryland1, 0.0, cf.value, 4000, epsilon=0.05,
        sample_x=[0.1, 0.37], scalar_func=lambda xs: maryland1.f(xs),
        scalar_log_mean=0.0)
    assert len(rep.scalar_margins) == 2
    assert max(rep.scalar_margins) <= 0.05


def test_ln_norms_masked_pole_column_is_silent():
    # V is 2e300 on the tangent model's pole, enough to overflow the A-kind
    # column; that column is masked, so no RuntimeWarning may reach the caller
    cf = golden_cf(40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, excl = _ln_norms(make_maryland(1.0), 2.0, float(cf.value),
                               np.array([0.5, 0.25]), 5003, "A")
    assert excl.tolist() == [True, False]
    assert np.isfinite(vals[1])
