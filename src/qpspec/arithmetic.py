"""Continued fractions, the torus norm, and the arithmetic indices.

Everything arithmetic lives here: big-integer convergents p_n/q_n, exact
rational checks of the approximation inequalities, and the three indices
(growth index of the denominators, phase resonance index, and the combined
pole/denominator index) as finite-depth limsup surrogates.  The exact orbit
walks (the phase index, the resonant-phase check, the minimal sine and the
sine product) all step through ``torus_orbit``, the arbitrary-precision
member of the orbit layer; its float64 member is ``potential.orbit`` and its
site-value pass ``potential.site_values``.  ``sine_product`` is the one walk
that forms the orbit sine product, for both ``sine_product_check`` and, one
pole at a time, ``potential.f_product_check``, since
|f(x)| = prod_l 2 sin(pi ||x - theta_l||).

Conventions fixed once:
  * convergents start at (p_0, q_0) = (0, 1), (p_1, q_1) = (1, a_1),
    with the virtual (p_{-1}, q_{-1}) = (1, 0) driving the recurrence;
  * a limsup over an infinite sequence is reported as the max of the
    per-level sequence over levels >= tail_start = ceil(M/2), with the
    whole sequence exposed so callers can judge convergence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath as mp

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
    "cf_from_text",
    "golden_cf",
    "silver_cf",
    "liouville_cf",
    "torus_norm",
    "torus_norm_exact",
    "torus_orbit",
    "beta",
    "gamma",
    "delta_index",
    "min_sine_index",
    "sine_product_check",
    "qualifying_levels",
    "as_mpf",
    "exact_fraction",
]


# precision of logs and norms that are only compared or turned into floats
LOG_PREC = 113


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
    """Exact rational value of a float / mpf / Fraction / int / decimal string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        man = int(man)
        if sign:
            man = -man
        if exp >= 0:
            return Fraction(man * (1 << exp))
        return Fraction(man, 1 << (-exp))
    raise InvalidInputError(f"cannot interpret {type(x).__name__} as an exact rational")


def as_mpf(x):
    """Convert to mpf at the *current* working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def torus_norm(x):
    """Distance from x to the nearest integer; in [0, 1/2]."""
    if isinstance(x, Fraction):
        return torus_norm_exact(x)
    x = as_mpf(x)
    r = x - mp.floor(x)
    return min(r, 1 - r)


def torus_norm_exact(x: Fraction) -> Fraction:
    r = x - (x.numerator // x.denominator)
    return min(r, 1 - r)


def torus_orbit(theta, alpha, n: int):
    """The orbit points x_j = theta + j alpha for j < n, reduced into [0, 1)
    at the current working precision (for either sign of alpha).

    Each point is the previous one plus alpha, reduced by x -= floor(x), so
    the walk costs one add and one floor per point.
    """
    x = as_mpf(theta)
    for _ in range(n):
        x -= mp.floor(x)
        yield x
        x += alpha


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients a_1..a_N and big-integer convergents of an alpha in (0,1).

    ``p`` and ``q`` have length N+1 and are indexed by level, so q[n] is q_n
    with q[0] = 1.  ``value`` is alpha at ``precision`` bits; for expansions
    recovered from a real number, ``valid_prefix`` marks how many leading
    coefficients are certified by the input's precision (always equal to
    len(coefficients): uncertified coefficients are never emitted).
    """

    coefficients: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]
    value: mp.mpf
    precision: int
    valid_prefix: int

    @property
    def depth(self) -> int:
        return len(self.coefficients)

    @property
    def convergents(self) -> list[tuple[int, int]]:
        return list(zip(self.p, self.q))

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
    return ContinuedFraction(coeffs, p, q, value, precision, len(coeffs))


def _expand_fraction(x: Fraction, max_terms: int) -> list[int]:
    """Continued-fraction coefficients of x in (0, 1); terminates for rationals."""
    coeffs: list[int] = []
    num, den = x.numerator, x.denominator
    while num != 0 and len(coeffs) < max_terms:
        a, r = divmod(den, num)
        coeffs.append(a)
        den, num = num, r
    return coeffs


def cf_from_real(alpha, max_terms: int, precision: int | None = None,
                 exact: bool = False) -> ContinuedFraction:
    """Expand a real alpha in (0, 1), emitting only precision-certified terms.

    The input is treated as a dyadic/rational point known to +-1 ulp at
    ``precision`` bits; coefficients are kept while the expansions of both
    interval endpoints agree.  With ``exact=True`` (or a Fraction input) the
    value is taken at face value and the terminating expansion is returned.
    """
    if max_terms < 1:
        raise InvalidInputError("max_terms must be >= 1")
    if precision is None:
        if isinstance(alpha, mp.mpf):
            precision = mp.prec
        elif isinstance(alpha, float):
            precision = 53
        else:
            precision = 64
    x = exact_fraction(alpha)
    if not 0 < x < 1:
        raise InvalidInputError("alpha must lie in (0, 1)")
    if exact or isinstance(alpha, (Fraction, str)):
        coeffs = _expand_fraction(x, max_terms)
    else:
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
    return ContinuedFraction(cf.coefficients, cf.p, cf.q, value, work, len(coeffs))


def cf_to_text(cf: ContinuedFraction) -> str:
    """One decimal coefficient per line."""
    return "\n".join(str(a) for a in cf.coefficients) + "\n"


def cf_from_text(text: str) -> ContinuedFraction:
    lines = [ln.strip() for ln in text.splitlines()]
    coeffs = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        try:
            coeffs.append(int(ln))
        except ValueError as exc:
            raise InvalidInputError(f"bad coefficient line: {ln!r}") from exc
    return cf_from_coeffs(coeffs)


def golden_cf(terms: int = 40) -> ContinuedFraction:
    return cf_from_coeffs([1] * terms)


def silver_cf(terms: int = 40) -> ContinuedFraction:
    return cf_from_coeffs([2] * terms)


def liouville_cf(beta_target: float, terms: int,
                 first_coeff: int = 1, max_coeff_bits: int = 4096) -> ContinuedFraction:
    """Frequency whose denominator growth index tracks ``beta_target``.

    Picks a_{n+1} ~ ceil(e^{beta_target * q_n} / q_n) so that
    ln q_{n+1} / q_n -> beta_target; coefficients are capped at
    ``max_coeff_bits`` bits to stay representable, after which the growth
    index of the remaining levels decays (the construction is Liouville-like
    only on the uncapped prefix).
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
            bits_needed = max_coeff_bits + 1
        else:
            bits_needed = int(beta_target * qn / math.log(2)) + 80
        if bits_needed > max_coeff_bits:
            a = 1 << max_coeff_bits
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

    def to_json_dict(self) -> dict:
        return {
            "value": _json_num(self.value),
            "per_level": [_json_num(v) for v in self.per_level],
            "tail_start": self.tail_start,
            "terms_used": self.terms_used,
            "witness": self.witness,
            "resolution_limited": list(self.resolution_limited),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _json_num(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return v


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


def delta_index(cf: ContinuedFraction, theta, poles: Sequence,
                horizon: int = 1000) -> IndexValue:
    """Combined pole-resonance/denominator-growth index.

    ``poles`` lists pole positions with multiplicity (repeats).  The phase is
    rejected if it sits, within resolution, on a lattice translate
    theta_l + k*alpha + Z for |k| <= horizon.
    """
    _require_depth(cf, 2)
    poles = list(poles)
    if poles:
        _check_excluded_phase(cf, theta, poles, horizon)
    levels, limited = _delta_per_level(cf, theta, poles)
    return _surrogate(levels, resolution_limited=tuple(limited))


def _check_excluded_phase(cf: ContinuedFraction, theta, poles, horizon: int):
    with mp.workprec(cf.precision):
        floor = mp.mpf(2) ** (-(cf.precision // 2))
        alpha = cf.value
        for pl in poles:
            # the translates theta - theta_l - k alpha for k = -horizon..horizon
            start = as_mpf(theta) - as_mpf(pl) + horizon * alpha
            for i, x in enumerate(torus_orbit(start, -alpha, 2 * horizon + 1)):
                if min(x, 1 - x) < floor:
                    k = i - horizon
                    raise ExcludedPhaseError(
                        f"phase is within resolution of pole {pl} translated by "
                        f"{k}*alpha", pole=pl, translate=k)


def gamma(cf: ContinuedFraction, theta, n_max: int = 10000) -> IndexValue:
    """Phase resonance index: limsup over n != 0 of -ln||2 theta + n alpha||/|n|.

    An exact (resolution-limited) resonance within the scan yields +inf with
    the witnessing n recorded.  The walks run at cf.precision, the log of the
    smaller of the two norms at LOG_PREC.
    """
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    levels: list[float] = []
    with mp.workprec(cf.precision):
        floor = mp.mpf(2) ** (-(cf.precision // 2))
        alpha = cf.value
        base = as_mpf(theta) * 2
        # the two walks 2 theta + n alpha and 2 theta - n alpha for n >= 1
        walks = zip(torus_orbit(base + alpha, alpha, n_max),
                    torus_orbit(base - alpha, -alpha, n_max))
        for n, (xp, xm) in enumerate(walks, 1):
            np_ = min(xp, 1 - xp)
            nm_ = min(xm, 1 - xm)
            for sgn, nrm in ((n, np_), (-n, nm_)):
                if nrm < floor:
                    return IndexValue(value=math.inf, per_level=tuple(levels),
                                      tail_start=1, terms_used=n, witness=sgn,
                                      resolution_limited=(n,))
            levels.append(float(-ln_low(min(np_, nm_)) / n))
    return _surrogate(levels)


# ---------------------------------------------------------------------------
# sine products (orbit products over one denominator window)


def _window(cf: ContinuedFraction, n: int, budget: int) -> int:
    """q_n, the length of the level-n window, within the depth and budget."""
    if not 0 <= n <= cf.depth:
        raise RangeError(f"level {n} outside stored depth {cf.depth}")
    qn = cf.q[n]
    if qn > budget:
        raise BudgetError(f"q_{n} = {qn} exceeds step budget {budget}")
    return qn


def sine_product(theta, cf: ContinuedFraction, q: int) -> tuple[mp.mpf, mp.mpf]:
    """The orbit sine product prod_{j<q} 2 sin(pi ||theta + j alpha||) as
    (rest, least): least is the factor of the smallest norm (the first on
    ties) and rest the product of the other q - 1 factors.

    least is kept apart rather than divided out, since it is exactly 0 where
    the orbit hits an integer.  The walk and the norm comparisons run at
    cf.precision; each norm is rounded to LOG_PREC before its sine, whose
    cost mpmath scales with the argument's width, and the sines and their
    product (which the mp exponent range keeps from underflowing) are taken
    at LOG_PREC.
    """
    rest = least = mp.mpf(1)
    best = 1  # above every torus norm: the first factor displaces least = 1
    with mp.workprec(cf.precision):
        for x in torus_orbit(theta, cf.value, q):
            nrm = min(x, 1 - x)
            with mp.workprec(LOG_PREC):
                s = 2 * mp.sinpi(+nrm)
                if nrm < best:  # s becomes least, the displaced least joins rest
                    best, least, s = nrm, s, least
                rest *= s
    return rest, least


def min_sine_index(theta, cf: ContinuedFraction, n: int,
                   budget: int = 2_000_000) -> tuple[int, mp.mpf]:
    """Index j0 in [0, q_n) minimising |sin pi(theta + j alpha)|, ties to the
    smallest j, together with the attained value."""
    qn = _window(cf, n, budget)
    with mp.workprec(cf.precision):
        nrms = (min(x, 1 - x) for x in torus_orbit(theta, cf.value, qn))
        best_j, best = min(enumerate(nrms), key=lambda jn: jn[1])
        # |sin pi t| is increasing in the torus norm of t
        return best_j, mp.sinpi(best)


def sine_product_check(theta, cf: ContinuedFraction, n: int,
                       budget: int = 2_000_000) -> tuple[float, float]:
    """Centered log sine product over one denominator window.

    Returns (S, ln q_n) with
    S = sum_{j != j0} ln|2 sin pi(theta + j alpha)|, j0 the index of
    ``min_sine_index``; boundedness of |S| / ln q_n is the caller's
    assertion.  S is the log of the ``rest`` of ``sine_product``.
    """
    qn = _window(cf, n, budget)
    rest, _ = sine_product(theta, cf, qn)
    return float(ln_low(rest)), float(ln_low(qn))
