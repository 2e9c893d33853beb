"""Continued fractions, the torus norm, and the arithmetic indices.

Everything arithmetic lives here: big-integer convergents p_n/q_n, exact
rational checks of the approximation inequalities, and the three indices
(growth index of the denominators, phase resonance index, and the combined
pole/denominator index) as finite-depth limsup surrogates.  The exact orbit
walks (the phase index, the resonant-phase check and the sine product) all
step through ``orbit_norms``, the exact member of the orbit layer: a P-bit
fixed-point integer walk mod 2^P, P = cf.precision, that yields torus norms
as integers in units of 2^-P.  Its float64 member is ``potential.orbit`` and
its site-value walk ``potential._site_terms``.  The phase index takes the
logs of those norms in a longdouble pass over blocks of them, and sends the
few terms that Ziv's rounding test cannot round to the libmp line; ``gamma``
derives the bound, and imports numpy in its body, so the module needs none
at import.
``sine_product`` is the one walk that forms the orbit sine product, for both
``sine_product_check`` and, one pole at a time,
``potential.f_product_check``, since |f(x)| = prod_l 2 sin(pi ||x - theta_l||).

``pair_rounding`` rounds (m, e) integer pairs, m 2^e, once to a precision as
libmp does; the certificate's site pass and fused loop share it.

Conventions fixed once:
  * convergents start at (p_0, q_0) = (0, 1), (p_1, q_1) = (1, a_1),
    with the virtual (p_{-1}, q_{-1}) = (1, 0) driving the recurrence;
  * a limsup over an infinite sequence is reported as the max of the
    per-level sequence over levels >= tail_start = ceil(M/2), with the
    whole sequence exposed so callers can judge convergence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath as mp
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_log, mpf_neg, to_float

from .errors import (
    BudgetError,
    ExcludedPhaseError,
    InvalidInputError,
    PrecisionExhaustedError,
    RangeError,
)

__all__ = [
    "ContinuedFraction",
    "IndexValue",
    "cf_from_coeffs",
    "cf_from_real",
    "cf_to_text",
    "golden_cf",
    "silver_cf",
    "liouville_cf",
    "torus_norm",
    "torus_norm_exact",
    "beta",
    "gamma",
    "delta_index",
    "sine_product_check",
    "qualifying_levels",
    "as_mpf",
    "exact_fraction",
]


# precision of logs and norms that are only compared or turned into floats
LOG_PREC = 113
# precision of gamma's division of a LOG_PREC-bit log by its term index
DIV_PREC = 128
# delta_index rejects a phase on a pole's translate by k alpha, |k| <= HORIZON
HORIZON = 1000
# most orbit sites one window walk may take (q_n here, 3q for a certificate,
# n_max for each of gamma's two walks)
SITE_BUDGET = 2_000_000
# liouville_cf caps a coefficient at 2^MAX_COEFF_BITS
MAX_COEFF_BITS = 4096
# gamma takes the orbit norms this many at a time
_GAMMA_BLOCK = 1024
# ln 2 = _LN2_HI + _LN2_LO (Cody-Waite): 33 significant bits, and the double
# nearest the rest
_LN2_HI = float.fromhex("0x1.62e42fefp-1")
_LN2_LO = float.fromhex("0x1.473de6af278edp-34")


def ln_low(x):
    """ln x at LOG_PREC bits, x first rounded to LOG_PREC bits.

    Unrounded, mpmath 1.3's log mistakes an x just above 1/4 whose mantissa
    is much wider than the precision for a number near 1, and returns about
    x - 1/4 instead of about -ln 4.
    """
    with mp.workprec(LOG_PREC):
        return mp.log(+x)


# ---------------------------------------------------------------------------
# number plumbing


def exact_fraction(x):
    """Exact value of a finite float / mpf / Fraction / int."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(*x.as_integer_ratio())
    if isinstance(x, mp.mpf) and mp.isfinite(x):
        sign, man, exp, _ = x._mpf_
        man = int(man)
        if sign:
            man = -man
        if exp >= 0:
            return Fraction(man * (1 << exp))
        return Fraction(man, 1 << (-exp))
    raise InvalidInputError(f"cannot interpret {x!r} as an exact rational")


def float_phase(x) -> float:
    """x mod 1 as a float, reduced exactly first: a huge x keeps its fraction."""
    return float(exact_fraction(x) % 1)


def as_mpf(x):
    """Convert to mpf at the *current* working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def pair_rounding(prec: int):
    """Rounding and division on (m, e) pairs, the values m 2^e with a signed
    integer m: ``rnd(m, e)`` rounds m 2^e once to ``prec`` bits, to nearest
    with ties to even, as ``from_man_exp(m, e, prec, "n")`` does, and
    ``div(num, den, e)`` rounds (num / den) 2^e the same way, as libmp's
    mpf_div at rounding "n" does.  A result's mantissa may keep trailing zero
    bits, so a pair is not canonical; its value is.

    ``div`` takes one integer divmod with at least prec + 2 quotient bits
    and folds a nonzero remainder in as a sticky unit below them, so the
    half bit that ``rnd`` reads is exact and a remainder breaks a tie."""
    lim = prec + 2

    def rnd(m, e):
        n = m.bit_length() - prec
        if n <= 0:
            return m, e
        # t = floor(m / 2^(n-1)) ends in the half bit, and m's n - 1 bits
        # below it are the sticky bits; flooring is right for a negative m
        # too, since ties to even round symmetrically
        t = m >> (n - 1)
        if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
            return (t >> 1) + 1, e + n
        return t >> 1, e + n

    def div(num, den, e):
        if not num:
            return 0, 0
        k = max(0, lim - num.bit_length() + den.bit_length())
        q, r = divmod(abs(num) << k, abs(den))
        m = (q << 1) + (r > 0)
        return rnd(-m if (num < 0) != (den < 0) else m, e - k - 1)

    return rnd, div


def torus_norm(x):
    """Distance from x to the nearest integer, as an mpf in [0, 1/2]."""
    x = as_mpf(x)
    r = x - mp.floor(x)
    return min(r, 1 - r)


def torus_norm_exact(x: Fraction) -> Fraction:
    r = x - (x.numerator // x.denominator)
    return min(r, 1 - r)


def fixed_point(x, prec: int) -> int:
    """x mod 1 as a prec-bit fixed-point integer in [0, 2^prec), from the
    exact value of x rounded to the nearest multiple of 2^-prec."""
    return round(exact_fraction(x) * (1 << prec)) & ((1 << prec) - 1)


def orbit_norms(x: int, step: int, n: int, prec: int):
    """Torus norms of the orbit x + j step mod 2^prec for j < n, as integers
    in units of 2^-prec; x and step are fixed-point integers of either sign.

    The walk is exact: each point is the previous one plus step, reduced by a
    mask, and its norm is min(x, 2^prec - x).
    """
    full = 1 << prec
    mask, half = full - 1, full >> 1
    x &= mask
    for _ in range(n):
        yield x if x <= half else full - x
        x = (x + step) & mask


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients a_1..a_N and big-integer convergents of an alpha in (0,1).

    ``p`` and ``q`` have length N+1 and are indexed by level, so q[n] is q_n
    with q[0] = 1.  ``value`` is alpha at ``precision`` bits.  An expansion
    recovered from a real number holds only the coefficients that the
    input's precision certifies.
    """

    coefficients: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]
    value: mp.mpf
    precision: int

    @property
    def depth(self) -> int:
        return len(self.coefficients)

    def as_fraction(self) -> Fraction:
        """The deepest convergent p_N/q_N, the exact finite surrogate."""
        return Fraction(self.p[-1], self.q[-1])

    def approx_dist_exact(self, n: int) -> Fraction:
        """Exact |q_n alpha - p_n| for the finite surrogate.

        Coincides with ||q_n alpha|| for n >= 1, where p_n is the nearest
        integer to q_n alpha; at n = 0 it keeps the designated numerator p_0.
        """
        if not 0 <= n <= self.depth:
            raise RangeError(f"level {n} outside stored depth {self.depth}")
        return abs(self.q[n] * self.as_fraction() - self.p[n])

    def check_gap_bounds(self, n: int) -> bool:
        """1/(2 q_{n+1}) <= |q_n alpha - p_n| <= 1/q_{n+1} in exact arithmetic.

        Valid for levels n <= depth-2 of the finite surrogate.
        """
        if not 0 <= n <= self.depth - 2:
            raise RangeError(f"level {n} outside exactly-checkable range 0..{self.depth - 2}")
        nrm = self.approx_dist_exact(n)
        qn1 = self.q[n + 1]
        return Fraction(1, 2 * qn1) <= nrm <= Fraction(1, qn1)


def _convergents(coeffs: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    p_prev, q_prev = 1, 0  # virtual level -1
    p, q = [0], [1]
    for a in coeffs:
        p_new = a * p[-1] + p_prev
        q_new = a * q[-1] + q_prev
        p_prev, q_prev = p[-1], q[-1]
        p.append(p_new)
        q.append(q_new)
    return tuple(p), tuple(q)


def cf_from_coeffs(coeffs: Iterable[int]) -> ContinuedFraction:
    coeffs = tuple(int(a) for a in coeffs)
    if not coeffs:
        raise InvalidInputError("empty coefficient list")
    for i, a in enumerate(coeffs):
        if a < 1:
            raise InvalidInputError(f"coefficient a_{i + 1} = {a} must be >= 1")
    p, q = _convergents(coeffs)
    precision = 64 + 2 * q[-1].bit_length()
    with mp.workprec(precision):
        value = mp.mpf(p[-1]) / mp.mpf(q[-1])
    return ContinuedFraction(coeffs, p, q, value, precision)


def _expand_fraction(x: Fraction, max_terms: int) -> list[int]:
    """Continued-fraction coefficients of x in (0, 1); terminates for rationals."""
    coeffs: list[int] = []
    num, den = x.numerator, x.denominator
    while num != 0 and len(coeffs) < max_terms:
        a, r = divmod(den, num)
        coeffs.append(a)
        den, num = num, r
    return coeffs


def cf_from_real(alpha, max_terms: int, precision: int) -> ContinuedFraction:
    """Expand a real alpha in (0, 1), emitting only precision-certified terms.

    alpha, a float or an mpf, is treated as a dyadic point known to +-1 ulp
    at ``precision`` bits (53 for a float, the working precision it was read
    at for an mpf); coefficients are kept while the expansions of both
    interval endpoints agree.
    """
    if max_terms < 1:
        raise InvalidInputError("max_terms must be >= 1")
    x = exact_fraction(alpha)
    if not 0 < x < 1:
        raise InvalidInputError("alpha must lie in (0, 1)")
    ulp = Fraction(1, 1 << precision)
    if x - ulp <= 0 or x + ulp >= 1:
        raise PrecisionExhaustedError(
            f"alpha is within one ulp of the interval boundary at {precision} bits")
    lo = _expand_fraction(x - ulp, max_terms + 1)
    hi = _expand_fraction(x + ulp, max_terms + 1)
    coeffs = []
    for a, b in zip(lo, hi):
        if a != b:
            break
        coeffs.append(a)
    coeffs = coeffs[:max_terms]
    if not coeffs:
        raise PrecisionExhaustedError(
            f"precision ({precision} bits) certifies no coefficients")
    cf = cf_from_coeffs(coeffs)
    work = max(cf.precision, precision)
    with mp.workprec(work):
        value = as_mpf(x)
    return ContinuedFraction(cf.coefficients, cf.p, cf.q, value, work)


def cf_to_text(cf: ContinuedFraction) -> str:
    """One decimal coefficient per line."""
    return "\n".join(str(a) for a in cf.coefficients) + "\n"


def golden_cf(terms: int = 40) -> ContinuedFraction:
    return cf_from_coeffs([1] * terms)


def silver_cf(terms: int = 40) -> ContinuedFraction:
    return cf_from_coeffs([2] * terms)


def liouville_cf(beta_target: float, terms: int,
                 first_coeff: int = 1) -> ContinuedFraction:
    """Frequency whose denominator growth index tracks ``beta_target``.

    Picks a_{n+1} ~ ceil(e^{beta_target * q_n} / q_n) so that
    ln q_{n+1} / q_n -> beta_target; coefficients are capped at
    2^MAX_COEFF_BITS to stay representable, after which the growth index of
    the remaining levels decays (the construction is Liouville-like only on
    the uncapped prefix).
    """
    if beta_target <= 0:
        raise InvalidInputError("beta_target must be positive")
    coeffs = [int(first_coeff)]
    if coeffs[0] < 1:
        raise InvalidInputError("first_coeff must be >= 1")
    _, q = _convergents(coeffs)
    while len(coeffs) < terms:
        qn = q[-1]
        if qn.bit_length() > 60:  # e^{beta qn} is far past any sane cap
            bits_needed = MAX_COEFF_BITS + 1
        else:
            bits_needed = int(beta_target * qn / math.log(2)) + 80
        if bits_needed > MAX_COEFF_BITS:
            a = 1 << MAX_COEFF_BITS
        else:
            with mp.workprec(bits_needed):
                a = int(mp.ceil(mp.e ** (mp.mpf(beta_target) * qn) / qn))
            a = max(a, 1)
        coeffs.append(a)
        _, q = _convergents(coeffs)
    return cf_from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# index values


@dataclass(frozen=True)
class IndexValue:
    """Finite-depth limsup surrogate: max of per_level over the stored tail."""

    value: float
    per_level: tuple[float, ...]
    tail_start: int  # 1-based level index where the tail max begins
    terms_used: int
    witness: int | None = None
    resolution_limited: tuple[int, ...] = ()

    def band(self) -> tuple[float, float]:
        """(lower, upper) surrogate pair: tail maxima over the last
        ceil(M/4) and ceil(M/2) levels."""
        m = len(self.per_level)
        lo_win = self.per_level[m - _ceil_div(m, 4):]
        hi_win = self.per_level[m - _ceil_div(m, 2):]
        return max(lo_win), max(hi_win)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _surrogate(per_level: Sequence[float], **kw) -> IndexValue:
    m = len(per_level)
    tail_start = max(1, _ceil_div(m, 2))
    value = max(per_level[tail_start - 1:])
    return IndexValue(value=value, per_level=tuple(per_level),
                      tail_start=tail_start, terms_used=m, **kw)


def qualifying_levels(iv: IndexValue, epsilon: float) -> list[int]:
    """Levels n (1-based) with per_level_n > value - epsilon/4.

    These are the levels along which the subsequence extraction in the
    product lower bounds is valid.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    cut = iv.value - epsilon / 4
    return [n for n, v in enumerate(iv.per_level, start=1)
            if v > cut and math.isfinite(v)]


# ---------------------------------------------------------------------------
# the indices


def _require_depth(cf: ContinuedFraction, need: int):
    if cf.depth < need:
        raise RangeError(f"continued fraction too shallow: {cf.depth} < {need}")


def _delta_per_level(cf: ContinuedFraction, theta, poles) -> tuple[list[float], list[int]]:
    """Per-level sequence (sum_i ln||q_n (theta-theta_i)|| + ln q_{n+1}) / q_n.

    The torus norms are taken at cf.precision, their logs at LOG_PREC; norms
    below the resolution floor 2^(-precision/2) are flagged rather than
    trusted.  With no poles the pole sum is empty and the sequence is exactly
    ln q_{n+1} / q_n.
    """
    levels: list[float] = []
    limited: list[int] = []
    with mp.workprec(cf.precision):
        floor = mp.mpf(2) ** (-(cf.precision // 2))
        diffs = [as_mpf(theta) - as_mpf(pl) for pl in poles]
        for n in range(1, cf.depth):
            qn = cf.q[n]
            nrms = [torus_norm(qn * dd) for dd in diffs]
            limited.extend(n for nrm in nrms if 0 < nrm < floor)
            acc = sum(map(ln_low, nrms)) + ln_low(cf.q[n + 1])
            levels.append(float(acc / qn))
    return levels, limited


def beta(cf: ContinuedFraction) -> IndexValue:
    """Growth index of the approximation denominators, limsup ln q_{n+1}/q_n."""
    _require_depth(cf, 2)
    levels, _ = _delta_per_level(cf, None, [])
    return _surrogate(levels)


def delta_index(cf: ContinuedFraction, theta, poles: Sequence) -> IndexValue:
    """Combined pole-resonance/denominator-growth index.

    ``poles`` lists pole positions with multiplicity (repeats).  The phase is
    rejected if it sits, within resolution, on a lattice translate
    theta_l + k*alpha + Z for |k| <= HORIZON.
    """
    _require_depth(cf, 2)
    poles = list(poles)
    if poles:
        _check_excluded_phase(cf, theta, poles)
    levels, limited = _delta_per_level(cf, theta, poles)
    return _surrogate(levels, resolution_limited=tuple(limited))


def _check_excluded_phase(cf: ContinuedFraction, theta, poles):
    prec = cf.precision
    floor = 1 << (prec - prec // 2)  # 2^-(prec // 2) in units of 2^-prec
    alpha = fixed_point(cf.value, prec)
    for pl in poles:
        # the translates theta - theta_l - k alpha for k = -HORIZON..HORIZON
        start = fixed_point(exact_fraction(theta) - exact_fraction(pl), prec)
        walk = orbit_norms(start + HORIZON * alpha, -alpha, 2 * HORIZON + 1, prec)
        for i, nrm in enumerate(walk):
            if nrm < floor:
                k = i - HORIZON
                raise ExcludedPhaseError(
                    f"phase is within resolution of pole {pl} translated by "
                    f"{k}*alpha", pole=pl, translate=k)


def gamma(cf: ContinuedFraction, theta, n_max: int = 10000) -> IndexValue:
    """Phase resonance index: limsup over n != 0 of -ln||2 theta + n alpha||/|n|.

    An exact (resolution-limited) resonance within the scan yields +inf with
    the witnessing n recorded; an n_max over SITE_BUDGET raises BudgetError
    before the scan.  Level n is float(-ln(m 2^-P) / n), m the
    smaller of the two torus norms of 2 theta +- n alpha, in units of 2^-P,
    P = cf.precision, and it is the float the libmp line ``_mp_level``
    returns, reached in three steps:

      * the exact walk: ``orbit_norms`` yields the norms as integers, taken
        in blocks of _GAMMA_BLOCK; the resolution floor is tested on a
        block's norms before any log is taken;
      * a longdouble pass over the block (``_ld_levels``), whose value y is
        within eps = 2^-60 |y| of -ln(m 2^-P) / n;
      * Ziv's rounding test (ACM TOMS 17(3), 1991): if y - eps and y + eps
        round to the same double, that double is the level; otherwise the
        term goes down the libmp line, about one term in 90.

    The bound.  The pass writes m = (top + f) 2^(b - 64), b = m.bit_length(),
    top the leading 64 bits of m and 0 <= f < 1, so that with t = top 2^-64
    in [1/2, 1) and k = b - P <= 0, ln(m 2^-P) = ln t + k ln 2 + ln(1 + f/top).
    It forms y = -((ln t + k _LN2_LO) + k _LN2_HI) / n in np.longdouble, of unit
    roundoff u <= 2^-64.  The three terms of the sum are <= 0, so it does not
    cancel, and m <= 2^(P-1) makes the exact log L at least ln 2 in
    magnitude.  Relative to |L|:
      * truncating m to top drops ln(1 + f/top) < 2^-63 <= 0.73 2^-62 |L|;
      * the longdouble log is within 2^-62 |ln t| <= 2^-62 |L| (2 ulp: the
        x87 logl of glibc is within 1, and tests/test_arithmetic.py checks
        the bound against mp);
      * ln 2 is split in the Cody-Waite way: _LN2_HI has 33 significant
        bits, so k _LN2_HI is exact while |k| <= P/2 < 2^31, and _LN2_LO,
        the double nearest ln 2 - _LN2_HI, is within 2^-87 of it; k _LN2_LO,
        rounded, is within |k| 2^-86 < 2^-85 |L|;
      * the two adds round partial sums no larger than |L| by u each:
        0.5 2^-62 |L|.
    The divide by n, which longdouble holds exactly, adds u.  So y is within
    (0.73 + 1 + 0.5 + 0.25 + 2^-23) 2^-62 < 0.63 2^-60 of the exact level
    Y = -L/n, relative.  The libmp line rounds m 2^-P and its log to 113 bits
    and divides at 128, so its quotient is within 2^-100 |Y| of Y.

    The test forms y - eps and y + eps, each rounded once to longdouble
    (within u (1 + 2^-60) |y| of the exact value) and then once to a double.
    If both give the same double D, every real between them rounds to D,
    since rounding is monotone; they enclose y +- 0.93 2^-60 |y|, so Y and
    the libmp quotient, and D is the level the libmp line returns.  Where
    longdouble is a plain double (np.finfo(np.longdouble).nmant < 63),
    every term takes the libmp line.
    """
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    if n_max > SITE_BUDGET:
        raise BudgetError(f"n_max = {n_max} exceeds step budget {SITE_BUDGET}")
    import numpy as np  # not at module level: ``qpspec cf`` needs no numpy

    levels_of = _ld_levels if np.finfo(np.longdouble).nmant >= 63 else _mp_levels
    levels: list[float] = []
    prec = cf.precision
    floor = 1 << (prec - prec // 2)  # 2^-(prec // 2) in units of 2^-prec
    alpha = fixed_point(cf.value, prec)
    base = 2 * fixed_point(theta, prec)
    # the two walks 2 theta + n alpha and 2 theta - n alpha for n >= 1
    walks = zip(orbit_norms(base + alpha, alpha, n_max, prec),
                orbit_norms(base - alpha, -alpha, n_max, prec))
    while len(levels) < n_max:
        norms = [a if a <= b else b for a, b in itertools.islice(walks, _GAMMA_BLOCK)]
        hit = None
        if min(norms) < floor:
            hit = next(i for i, nrm in enumerate(norms) if nrm < floor)
        levels += levels_of(norms[:hit], len(levels) + 1, prec)
        if hit is not None:
            n = len(levels) + 1
            # the witness is n when 2 theta + n alpha is below the floor
            plus = next(orbit_norms(base + n * alpha, alpha, 1, prec))
            return IndexValue(value=math.inf, per_level=tuple(levels),
                              tail_start=1, terms_used=n,
                              witness=n if plus < floor else -n,
                              resolution_limited=(n,))
    return _surrogate(levels)


def _mp_level(nrm: int, n: int, prec: int) -> float:
    """float(-ln_low(nrm 2^-prec) / n), the libmp line of ``gamma``.

    Only the terms that Ziv's test in ``_ld_levels`` cannot round come here
    (every term where longdouble is a plain double).  For them: the quotient
    of a LOG_PREC-bit log by n < 2^59 is either a float midpoint or more than
    2^-113 (relative) from every one, so its rounding to DIV_PREC >= 116 bits
    rounds to the same float as the exact quotient.
    """
    ln = mpf_log(from_man_exp(nrm, -prec, LOG_PREC, "n"), LOG_PREC, "n")
    return to_float(mpf_div(mpf_neg(ln), from_int(n), DIV_PREC, "n"), rnd="n")


def _mp_levels(norms: list[int], n0: int, prec: int) -> list[float]:
    """``_mp_level`` of each norm, the first at term index n0."""
    return [_mp_level(nrm, n, prec) for n, nrm in enumerate(norms, n0)]


def _ld_levels(norms: list[int], n0: int, prec: int) -> list[float]:
    """``_mp_levels`` by the longdouble pass and Ziv's rounding test that
    ``gamma`` describes and bounds; the terms the test cannot round take
    ``_mp_level``."""
    import numpy as np

    ld, size = np.longdouble, len(norms)
    # y = -((ln t + k _LN2_LO) + k _LN2_HI) / n, in place on few arrays
    y = np.fromiter(((nrm << 64) >> nrm.bit_length() for nrm in norms),
                    np.uint64, size).astype(ld)
    y *= 2.0 ** -64
    np.log(y, out=y)
    k = np.fromiter(map(int.bit_length, norms), np.int64, size)
    k -= prec
    k = k.astype(ld)
    y += k * _LN2_LO
    k *= _LN2_HI
    y += k
    y /= np.arange(n0, n0 + size, dtype=ld)
    np.negative(y, out=y)
    eps = y * 2.0 ** -60
    hi = (y + eps).astype(np.float64)
    levels = hi.tolist()
    for i in np.flatnonzero((y - eps).astype(np.float64) != hi).tolist():
        levels[i] = _mp_level(norms[i], n0 + i, prec)
    return levels


# ---------------------------------------------------------------------------
# sine products (orbit products over one denominator window)


def _window(cf: ContinuedFraction, n: int) -> int:
    """q_n, the length of the level-n window, within the depth and
    SITE_BUDGET."""
    if not 0 <= n <= cf.depth:
        raise RangeError(f"level {n} outside stored depth {cf.depth}")
    qn = cf.q[n]
    if qn > SITE_BUDGET:
        raise BudgetError(f"q_{n} = {qn} exceeds step budget {SITE_BUDGET}")
    return qn


def _window_norms(theta, cf: ContinuedFraction, q: int):
    """orbit_norms of theta + j alpha, j < q, at cf.precision bits."""
    prec = cf.precision
    return orbit_norms(fixed_point(theta, prec), fixed_point(cf.value, prec), q, prec)


def sine_product(theta, cf: ContinuedFraction, q: int) -> tuple[mp.mpf, mp.mpf]:
    """The orbit sine product prod_{j<q} 2 sin(pi ||theta + j alpha||) as
    (rest, least): least is the factor of the smallest norm (the first on
    ties) and rest the product of the other q - 1 factors.

    least is kept apart rather than divided out, since it is exactly 0 where
    the orbit hits an integer.  The walk and the norm comparisons are exact
    at cf.precision bits; each norm is rounded to LOG_PREC before its sine,
    whose cost mpmath scales with the argument's width, and the sines and
    their product (which the mp exponent range keeps from underflowing) are
    taken at LOG_PREC.
    """
    prec = cf.precision
    rest = least = mp.mpf(1)
    best = 1 << prec  # above every norm: the first factor displaces least = 1
    with mp.workprec(LOG_PREC):
        for nrm in _window_norms(theta, cf, q):
            s = 2 * mp.sinpi(mp.make_mpf(from_man_exp(nrm, -prec, LOG_PREC, "n")))
            if nrm < best:  # s becomes least, the displaced least joins rest
                best, least, s = nrm, s, least
            rest *= s
    return rest, least


def sine_product_check(theta, cf: ContinuedFraction,
                       n: int) -> tuple[float, float]:
    """Centered log sine product over one denominator window.

    Returns (S, ln q_n) with
    S = sum_{j != j0} ln|2 sin pi(theta + j alpha)|, j0 the index j < q_n
    of the smallest torus norm ||theta + j alpha|| (the smallest such j on
    ties); boundedness of |S| / ln q_n is the caller's assertion.  S is the
    log of the ``rest`` of ``sine_product``.
    """
    qn = _window(cf, n)
    rest, _ = sine_product(theta, cf, qn)
    return float(ln_low(rest)), float(ln_low(qn))
