import ast
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpspec import (
    BudgetError,
    ExcludedPhaseError,
    IndexValue,
    InvalidInputError,
    PrecisionExhaustedError,
    RangeError,
    beta,
    cf_from_coeffs,
    cf_from_real,
    delta_index,
    gamma,
    golden_cf,
    liouville_cf,
    qualifying_levels,
    silver_cf,
    sine_product_check,
    torus_norm,
)
from qpspec import arithmetic
from qpspec.arithmetic import (
    _GAMMA_BLOCK,
    _LN2_HI,
    _LN2_LO,
    HORIZON,
    MAX_COEFF_BITS,
    SITE_BUDGET,
    _ld_levels,
    _mp_level,
    _mp_levels,
    _surrogate,
    as_mpf,
    exact_fraction,
    fixed_point,
    float_phase,
    ln_low,
    orbit_norms,
    torus_norm_exact,
)

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


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, mp.inf, mp.nan],
                         ids=["inf", "-inf", "nan", "mpf-inf", "mpf-nan"])
def test_exact_fraction_rejects_non_finite(x):
    # an mpf infinity has a zero mantissa: it must not read as 0
    with pytest.raises(InvalidInputError, match="exact rational"):
        exact_fraction(x)


def test_float_phase_reduces_before_rounding():
    assert float_phase(Fraction(10 ** 400) + Fraction(1, 10)) == 0.1
    assert float_phase(mp.mpf(10) ** 400) == 0.0
    assert float_phase(Fraction(-1, 4)) == 0.75


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
        assert torus_norm(mp.mpf(num) / 16) == torus_norm_exact(x)


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
    assert cf.depth == 30


def test_cf_from_real_float_emits_only_certified_terms():
    val = (math.sqrt(5) - 1) / 2
    cf = cf_from_real(val, 60, precision=53)
    # 53 bits certify far fewer than 60 golden terms
    assert 20 <= cf.depth < 60
    assert all(a == 1 for a in cf.coefficients)


def test_cf_from_real_dyadic_boundary_raises():
    with pytest.raises(PrecisionExhaustedError):
        cf_from_real(0.5, 10, precision=53)


def test_liouville_growth_tracks_target():
    cf = liouville_cf(1.0, 4)
    b = beta(cf)
    assert abs(b.per_level[-1] - 1.0) < 0.01


def test_liouville_coefficient_cap():
    # a_4 ~ e^{2 q_3} / q_3, q_3 = 65,659,978, is capped at 2^MAX_COEFF_BITS
    cf = liouville_cf(2.0, 8)
    assert max(a.bit_length() for a in cf.coefficients) == MAX_COEFF_BITS + 1


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
    # when |k| is within the horizon of 1000
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


def test_min_sine_budget_guard(golden40):
    # q_31 = 2,178,309 is over the site budget: refused before any walk
    assert golden40.q[31] > SITE_BUDGET
    with pytest.raises(BudgetError):
        sine_product_check(Fraction(1, 7), golden40, 31)


def test_sine_product_centering(golden40):
    S, lnq = sine_product_check(Fraction(1, 7), golden40, 8)
    assert lnq == pytest.approx(math.log(golden40.q[8]))
    assert abs(S) / lnq < 10
    # S leaves out j0, the factor of the smallest norm, found here by brute force
    alpha = float(golden40.value)
    logs = [math.log(abs(2 * math.sin(math.pi * (1 / 7 + j * alpha))))
            for j in range(golden40.q[8])]
    assert S == pytest.approx(sum(logs) - min(logs), rel=1e-9)


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
    assert sine_product_check(0.1, cf, 12) == (4.913755587892461, 5.4510384535657)
    # at theta = 0 the left-out j = 0 factor is exactly 0
    assert sine_product_check(0, cf, 12) == (5.2971114194237146, 5.4510384535657)
    assert sine_product_check(0, cf, 1) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the exact orbit walk against the arbitrary-precision walk it replaced


def _mp_orbit(theta, alpha, n):
    """x_j = theta + j alpha for j < n, reduced into [0, 1) at the current
    working precision: one mpf add and one floor per point."""
    x = as_mpf(theta)
    for _ in range(n):
        x -= mp.floor(x)
        yield x
        x += alpha


def _mp_gamma(cf, theta, n_max):
    """gamma on two _mp_orbit walks at cf.precision, logs at LOG_PREC."""
    levels = []
    with mp.workprec(cf.precision):
        floor = mp.mpf(2) ** (-(cf.precision // 2))
        alpha = cf.value
        base = as_mpf(theta) * 2
        walks = zip(_mp_orbit(base + alpha, alpha, n_max),
                    _mp_orbit(base - alpha, -alpha, n_max))
        for n, (xp, xm) in enumerate(walks, 1):
            np_, nm_ = min(xp, 1 - xp), min(xm, 1 - xm)
            for sgn, nrm in ((n, np_), (-n, nm_)):
                if nrm < floor:
                    return IndexValue(value=math.inf, per_level=tuple(levels),
                                      tail_start=1, terms_used=n, witness=sgn,
                                      resolution_limited=(n,))
            levels.append(float(-ln_low(min(np_, nm_)) / n))
    return _surrogate(levels)


def _libmp_gamma(cf, theta, n_max):
    """gamma with every level from the libmp line ``_mp_level``, one term at
    a time, and the resolution floor tested per term."""
    prec = cf.precision
    floor = 1 << (prec - prec // 2)
    alpha = fixed_point(cf.value, prec)
    base = 2 * fixed_point(theta, prec)
    walks = zip(orbit_norms(base + alpha, alpha, n_max, prec),
                orbit_norms(base - alpha, -alpha, n_max, prec))
    levels = []
    for n, (np_, nm_) in enumerate(walks, 1):
        if min(np_, nm_) < floor:
            return IndexValue(value=math.inf, per_level=tuple(levels),
                              tail_start=1, terms_used=n,
                              witness=n if np_ < floor else -n,
                              resolution_limited=(n,))
        levels.append(_mp_level(min(np_, nm_), n, prec))
    return _surrogate(levels)


def _mp_excluded_translate(cf, theta, pole):
    """The k in -HORIZON..HORIZON that _mp_orbit finds with theta within
    resolution of pole + k alpha, or None."""
    with mp.workprec(cf.precision):
        floor = mp.mpf(2) ** (-(cf.precision // 2))
        start = as_mpf(theta) - as_mpf(pole) + HORIZON * cf.value
        for i, x in enumerate(_mp_orbit(start, -cf.value, 2 * HORIZON + 1)):
            if min(x, 1 - x) < floor:
                return i - HORIZON
    return None


@given(st.integers(min_value=-(1 << 70), max_value=1 << 70),
       st.integers(min_value=-(1 << 70), max_value=1 << 70),
       st.integers(min_value=2, max_value=66))
@settings(max_examples=50, deadline=None)
def test_orbit_norms_are_exact_torus_norms(x, step, prec):
    got = list(orbit_norms(x, step, 20, prec))
    unit = Fraction(1, 1 << prec)
    assert got == [torus_norm_exact((x + j * step) * unit) / unit for j in range(20)]


@pytest.mark.parametrize("cf_name,theta", [
    ("liouville(1.0, 4)", "3/8"), ("liouville(1.0, 4)", "1/8"),
    ("liouville(1.0, 4)", "5/8"), ("liouville(1.0, 4)", "7/8"),
    ("golden(40)", "1/3"), ("liouville(1.12, 5)", "3/8"),
])
def test_gamma_is_bit_identical_to_the_mp_walk(cf_name, theta):
    cf = {"liouville(1.0, 4)": lambda: liouville_cf(1.0, 4),
          "golden(40)": lambda: golden_cf(40),
          "liouville(1.12, 5)": lambda: liouville_cf(1.12, 5)}[cf_name]()
    theta = Fraction(theta)
    g = gamma(cf, theta, 2000)
    assert g == _mp_gamma(cf, theta, 2000)
    assert g == _libmp_gamma(cf, theta, 2000)


def test_gamma_resonance_witness_matches_the_mp_walk():
    # 2 theta + k alpha = 1 + c 2^-(P // 2): a resonance below the
    # resolution floor (c < 1) is +inf with witness k after the same |k| - 1
    # levels as on the mp walk, also at the first and the last term of a block
    cf = golden_cf(20)
    alpha = exact_fraction(cf.value)
    floor = Fraction(1, 1 << (cf.precision // 2))
    n_max = _GAMMA_BLOCK + 50
    for k in (3, -5, 1, -1, _GAMMA_BLOCK, -_GAMMA_BLOCK, _GAMMA_BLOCK + 1,
              -_GAMMA_BLOCK - 1):
        for c in (0, Fraction(99, 100) if k > 0 else Fraction(-99, 100)):
            theta = (1 - k * alpha + c * floor) / 2
            g = gamma(cf, theta, n_max)
            assert g == _mp_gamma(cf, theta, n_max) == _libmp_gamma(cf, theta, n_max)
            assert (g.value, g.witness, len(g.per_level)) == (math.inf, k, abs(k) - 1)
    # just above the floor the level is finite: -ln(c 2^-(P // 2)) / |k|,
    # to the 2^-P rounding of theta relative to the norm
    for k, c in ((3, Fraction(101, 100)), (-5, Fraction(-101, 100))):
        theta = (1 - k * alpha + c * floor) / 2
        g = gamma(cf, theta, 50)
        assert g.witness is None
        assert g.per_level[abs(k) - 1] == pytest.approx(
            -math.log(abs(c * floor)) / abs(k), rel=1e-13)


def test_excluded_phase_translates_match_the_mp_walk():
    # hits at the horizon's two ends pin the walk's start offset and sign
    cf = golden_cf(20)
    pole = Fraction(1, 2)
    for k in (-HORIZON - 1, -HORIZON, -HORIZON + 1, -1, 0, 1, HORIZON - 1,
              HORIZON, HORIZON + 1):
        with mp.workprec(cf.precision):
            theta = as_mpf(pole) + k * cf.value
        expect = _mp_excluded_translate(cf, theta, pole)
        assert expect == (k if abs(k) <= HORIZON else None)
        if expect is None:
            delta_index(cf, theta, [pole])
            continue
        with pytest.raises(ExcludedPhaseError) as exc:
            delta_index(cf, theta, [pole])
        assert (exc.value.pole, exc.value.translate) == (pole, expect)
    # just inside and just outside the resolution floor 2^-(P // 2)
    floor = Fraction(1, 1 << (cf.precision // 2))
    for c, hit in ((Fraction(99, 100), True), (Fraction(101, 100), False)):
        theta = pole + 7 * exact_fraction(cf.value) - c * floor
        assert _mp_excluded_translate(cf, theta, pole) == (7 if hit else None)
        if hit:
            with pytest.raises(ExcludedPhaseError):
                delta_index(cf, theta, [pole])
        else:
            delta_index(cf, theta, [pole])


# ---------------------------------------------------------------------------
# gamma's longdouble pass against the libmp line it falls back to


@pytest.fixture
def mp_calls(monkeypatch):
    """Count the terms that take the libmp line."""
    calls = []

    def counted(nrm, n, prec):
        calls.append(n)
        return _mp_level(nrm, n, prec)

    monkeypatch.setattr(arithmetic, "_mp_level", counted)
    return calls


@pytest.mark.parametrize("theta", ["3/8", "1/8", "5/8", "7/8"])
def test_gamma_equals_the_libmp_line_over_10000_terms(theta, mp_calls):
    # the library's index configs: every level ==, and about one term in 90
    # falls back
    cf = liouville_cf(1.0, 4)
    g = gamma(cf, Fraction(theta), 10000)
    assert 10 < len(mp_calls) < 500
    assert g == _libmp_gamma(cf, Fraction(theta), 10000)


def test_longdouble_levels_match_the_libmp_line_at_every_bit_length():
    # random norms between the resolution floor and 1/2, from 80 to 300 bits,
    # so the leading 64 bits are both shifted down and (m < 2^64) up
    rng = random.Random(5)
    for prec in (80, 96, 127, 128, 129, 200, 300):
        lo = prec - prec // 2
        norms = [rng.getrandbits(rng.randint(lo + 1, prec - 1)) | (1 << lo)
                 for _ in range(300)] + [1 << lo, 1 << (prec - 1)]
        n0 = rng.randint(1, 5000)
        assert _ld_levels(norms, n0, prec) == _mp_levels(norms, n0, prec)


def test_levels_next_to_a_double_midpoint_take_the_fallback(mp_calls):
    # m = round(e^(-n mu) 2^P), mu halfway between two adjacent doubles,
    # puts -ln(m 2^-P) / n within 2^-200 of mu: Ziv's test cannot round it
    prec, n0 = 300, 7
    norms, n_of = [], []
    with mp.workprec(600):
        for i, y in enumerate((0.3, 0.75, 1.0, 2.0 / 3.0, 4.5)):
            n = n0 + i
            mu = (mp.mpf(y) + mp.mpf(math.nextafter(y, math.inf))) / 2
            norms.append(int(mp.nint(mp.exp(-n * mu) * mp.mpf(2) ** prec)))
            n_of.append(n)
    levels = _ld_levels(norms, n0, prec)
    assert mp_calls == n_of
    assert levels == _mp_levels(norms, n0, prec)


def test_longdouble_log_is_within_the_budget_of_gammas_bound():
    # gamma's bound takes np.log on longdouble within 2^-62 relative on
    # t = top 2^-64 in [1/2, 1); check it against mp on sampled tops
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("longdouble is a plain double here: gamma takes the libmp line")
    rng = random.Random(3)
    tops = [1 << 63, (1 << 63) + 1, (1 << 64) - 1, (1 << 64) - 2, 3 << 62,
            0xb504f333f9de6484] + [rng.getrandbits(63) | (1 << 63) for _ in range(2000)]
    ld = np.longdouble
    logs = np.log(np.array(tops, dtype=np.uint64).astype(ld) * ld(2.0 ** -64))
    his = logs.astype(np.float64)
    los = (logs - his).astype(np.float64)  # exact: the 64-bit log less its double
    worst = 0.0
    with mp.workprec(256):
        for top, hi, lo in zip(tops, his.tolist(), los.tolist()):
            exact = mp.log(mp.mpf(top) / mp.mpf(2) ** 64)
            worst = max(worst, float(abs((mp.mpf(hi) + mp.mpf(lo) - exact) / exact)))
    assert worst <= 2.0 ** -62, (
        f"longdouble np.log on this host is too inaccurate for gamma's bound: "
        f"relative error {worst:.3g} > 2^-62")


def test_ln2_split_is_cody_waite():
    hi = Fraction(_LN2_HI)
    assert hi.denominator <= 1 << 33 and hi.numerator < 1 << 33  # 33 bits
    with mp.workprec(300):
        rest = exact_fraction(mp.log(2)) - hi
    assert 0 < _LN2_LO and abs(Fraction(_LN2_LO) - rest) <= Fraction(1, 1 << 87)


def test_gamma_without_an_extended_longdouble_takes_the_libmp_line(monkeypatch,
                                                                   mp_calls):
    real = np.finfo
    monkeypatch.setattr(np, "finfo", lambda t: SimpleNamespace(nmant=52)
                        if t is np.longdouble else real(t))
    cf = liouville_cf(1.0, 4)
    g = gamma(cf, Fraction(3, 8), 1500)
    assert mp_calls == list(range(1, 1501))
    assert g == _libmp_gamma(cf, Fraction(3, 8), 1500)


def _module_level_imports(path):
    """Names of the modules a file imports when it is imported: every import
    outside a function body."""
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        stack.extend(ast.iter_child_nodes(node))


def test_arithmetic_imports_no_numpy_at_module_level():
    # ``qpspec cf`` is to run without numpy: gamma imports it in its body
    names = list(_module_level_imports(Path(arithmetic.__file__)))
    assert "mpmath" in names
    assert not [name for name in names if name.split(".")[0] == "numpy"]
