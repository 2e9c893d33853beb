"""Eigenvalue-exclusion certificates from near-periodicity at denominator scales.

The engine: at a denominator q of the frequency, with h = q alpha - p, the
certificate compares A_q^2 with A_{2q} and A_q(theta) with A_q(theta - q a).
Both differences are exponentially small, so they are never formed by
subtracting products of size e^{qL}.  One fused loop over the site values of
[-q, 2q) steps the product P = A_k(theta), k < q, and next to it the
differences D+ = P - A_k(theta + q a) and D- = P - A_k(theta - q a).  A step
A(s) = [[s, -1], [1, 0]] differs from A(s') only in its corner, and
A(s) P - A(s') P' = A(s') (P - P') + (A(s) - A(s')) P, so

    D+ <- A(s+) D+ + (s - s+) e_1 row_0(P),  D- <- A(s-) D- + (s - s-) e_1 row_0(P),

with the row taken before P steps.  After the loop, A_q(theta +- q a) is
A_q - D+-, A_{2q} = (A_q - D+) A_q and A_q^2 - A_{2q} = D+ A_q, and since
every step has determinant 1 the inverses are adjugates [[d, -b], [-c, a]]:
the inverse difference is adj(D-), with the norm of D-.

Working precision is max(2 log2||M||, log2(1/|h|)) + 192 bits.  ||M|| bounds
the three products, read off float walks forward from the identity
(``_log2_norm_bound``): A_q(theta - q a) over sites -q..-1, A_q over
0..q-1, and A_{2q} on from A_q over q..2q-1.  The min-max over directions
needs about 2 log2||M|| + 128 bits.  The log2(1/|h|) term (h taken exactly
from alpha's value) keeps at least 192 bits of every site difference
s - s+- under plain subtraction, so the differences come out to about 128
relative bits however small they are.  There is no resolution floor: only
an exactly zero difference, or h = 0, raises NumericError.

The site pass (``potential``) computes S_j = E - V(x_j) once per site, as
an (m, e) integer pair, in two parts.  ``_site_terms`` walks the phasor
(cos pi x_j, sin pi x_j) as W-bit fixed-point integers, W = the working
precision + ceil(log2(3q)) + 32, one integer rotation by (cos pi a, sin pi a)
per site rounded to nearest, so the phasor's absolute error stays about
3q 2^-W.  f and g are integer polynomials in it.  The pole factors of f
are also the pole test: the first site within ``eps_floor`` of a pole raises
OrbitPoleError.  None of this depends on E, so the energies of one
``exclusion_certificates`` call share a level's terms while its working
precision stays the same.  ``_site_pairs`` then rounds
S_j = (E f - g) / f once to the working precision from the exact E f - g,
with one integer division (a pole-free potential rounds E - g once).
The fused loop steps those pairs with ``_pair_ops``, which rounds as mpf
arithmetic does, so its entries are the bits of the same mpf expressions
without a libmp call or an mpf value per operation.  A level whose 3q
sites exceed ``arithmetic.SITE_BUDGET`` is refused before any work
(``_check_levels``).

The precision pre-pass's float sites V take the Lyapunov kernel's
phasors (``potential._OrbitPhasors``) and ``_V_and_near``
(``_window_sites``).  They do not depend on E either: a level's one record
(``_Level``) keeps them with the walk, and only S = E - V is per energy.

The certificate quantifies over every initial direction v in closed form
(``gordon_lhs_uniform``): the two left-hand sides are linear in v, so their
suprema are spectral norms, and the minimum of the three-norm maximum lies
among nine candidates (each curve's minimum and each pairwise crossing).
``smallness_check`` reads the two differences' own norms, ||D+|| and
||D-||, which bound Gordon's error terms D+ Phi(q) and adj(D-) Phi(0) for
every solution at once.  Their logs are taken at LOG_PREC bits
(``arithmetic.ln_low``).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp

from .arithmetic import (SITE_BUDGET, ContinuedFraction, IndexValue, as_mpf,
                         exact_fraction, float_phase, ln_low, pair_rounding,
                         qualifying_levels)
from .cocycle import TransferMatrix2
from .errors import (BudgetError, InvalidInputError, NumericError, RangeError,
                     SubsequenceError)
from .potential import (PHASOR_ROWS, MeromorphicPotential, _OrbitPhasors,
                        _site_pairs, _site_terms, _SiteTerms, check_energy)

__all__ = [
    "GordonCertificate",
    "GordonLhs",
    "GordonMatrices",
    "SmallnessCheck",
    "gordon_matrices",
    "gordon_lhs_uniform",
    "smallness_check",
    "exclusion_certificate",
    "exclusion_certificates",
]

MAX_NORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# high-precision matrix assembly


@dataclass(frozen=True)
class GordonMatrices:
    """The three q-scale products and the two certificate differences, at a
    common working precision.

    ``D_fwd`` is A_q(theta) - A_q(theta + q alpha), so that
    A_q^2 - A_{2q} = D_fwd A_q; ``D_back`` is A_q(theta) - A_q(theta - q alpha),
    whose adjugate is A_q^{-1}(theta) - A_q^{-1}(theta - q alpha).
    """

    precision: int
    A_back: TransferMatrix2  # A_q(theta - q alpha)
    A_q: TransferMatrix2
    A_2q: TransferMatrix2
    D_fwd: TransferMatrix2
    D_back: TransferMatrix2


def _shift_bits(alpha, q: int) -> int:
    """An upper bound on log2(1/|h|) for h = q alpha - round(q alpha), from
    the exact value of alpha (bit lengths, since |h| can underflow a float).
    Raises NumericError when h = 0: the windows then repeat exactly and both
    differences vanish."""
    x = q * exact_fraction(alpha)
    h = x - round(x)
    if h == 0:
        raise NumericError(
            f"q alpha is an integer at q={q}: the certificate differences "
            "vanish identically")
    return h.denominator.bit_length() - abs(h.numerator).bit_length() + 1


def _window_sites(pot: MeromorphicPotential, theta, alpha, q: int) -> np.ndarray:
    """V at the 3q float sites of the window [-q, 2q), site k at index
    k + q, on the kernel's phasors (``_OrbitPhasors`` at theta with offset
    -q) and from ``_V_and_near``."""
    n = 3 * q
    phasors = _OrbitPhasors(np.array([float_phase(theta)]), float(as_mpf(alpha)), [-q])
    work = [np.empty((-(-n // PHASOR_ROWS) * PHASOR_ROWS, 1, 1)) for _ in range(5)]
    phasors.fill(0, work[1:3], work[0])  # whole phasor blocks
    V = pot._V_and_near([w[:n] for w in work], lambda idx: phasors.phases(0, idx))[0]
    # a site on a pole reads about 1e300; the cap keeps s a - c finite
    return np.clip(V.ravel(), -1e250, 1e250)


def _log2_norm_bound(E, V, q: int) -> list[float]:
    """Float pre-pass: upper estimates of log2 ||A_q||, log2 ||A_{2q}|| and
    log2 ||A_q(theta - q alpha)||, in that order, from forward walks over
    S = E - V at the window's sites V (``_window_sites``).  A state
    (a, b, c, d, scale) stands for [[a, b], [c, d]] 2^scale, rescaled
    whenever the top row passes 2^64.
    """
    S = (float(E) - V).tolist()

    def walk(sites, a=1.0, b=0.0, c=0.0, d=1.0, scale=0.0):
        for s in sites:
            a, b, c, d = s * a - c, s * b - d, a, b
            m = max(abs(a), abs(b))
            if m > 2.0 ** 64:
                scale += math.log2(m)
                a, b, c, d = a / m, b / m, c / m, d / m
        return a, b, c, d, scale

    # site k sits at S[k + q]
    back, fwd = walk(S[:q]), walk(S[q:2 * q])
    # the largest entry is within a factor 2 of the spectral norm
    return [scale + math.log2(max(abs(a), abs(b), abs(c), abs(d))) + 1
            for a, b, c, d, scale in (fwd, walk(S[2 * q:], *fwd), back)]


def _pair_ops(prec: int):
    """Multiply, add and subtract on (m, e) pairs, each result rounded once
    to ``prec`` bits by ``arithmetic.pair_rounding``.  Those are the
    roundings of libmp's mpf_mul, mpf_add and mpf_sub at rounding "n", so
    the values are theirs bit for bit; the pairs skip the sign word, bit
    count and trailing-zero strip of a raw mpf.

    The domain is operands of at most ``prec`` significant bits: the loop
    adds only outputs of ``rnd`` and ``div`` and its (1, 0) and (0, 0)
    start.  An add forms the exact sum and rounds it once.  mpf_add instead
    replaces an operand more than prec + 4 bits below the other by a sticky
    bit; on this domain such an operand lies below half an ulp of a value
    on the prec-bit grid, so both round to that value.
    """
    rnd = pair_rounding(prec)[0]

    def mul(x, y):
        return rnd(x[0] * y[0], x[1] + y[1])

    def add(x, y, neg=False):
        m1, e1 = x
        m2, e2 = y
        if neg:
            m2 = -m2
        if not m2:
            return rnd(m1, e1)
        if not m1:
            return rnd(m2, e2)
        d = e1 - e2
        if d >= 0:
            return rnd((m1 << d) + m2, e2)
        return rnd(m1 + (m2 << -d), e1)

    def sub(x, y):
        return add(x, y, True)

    return mul, add, sub


@dataclass
class _Level:
    """A window's energy-free record: its float sites (``_window_sites``)
    and its walk (``_site_terms``) at the working precision last made."""

    V: np.ndarray
    precision: int = 0
    terms: _SiteTerms | None = None


def _check_window(q: int, name: str = "the window") -> None:
    """Refuse a window of 3q orbit sites over SITE_BUDGET (BudgetError)."""
    if 3 * q > SITE_BUDGET:
        raise BudgetError(f"{name} needs 3q = {3 * q} orbit sites (q = {q}), "
                          f"over the site budget {SITE_BUDGET}")


def gordon_matrices(pot: MeromorphicPotential, E, theta, alpha, q: int,
                    held: dict | None = None) -> GordonMatrices:
    """Build A_q(theta - q alpha), A_q, A_{2q} and the two differences from
    one pass over the 3q orbit sites [-q, 2q).

    The precision is max(2 log2||M||, log2(1/|h|)) + 192 bits, with ||M||
    the float pre-pass's bound on the three products and h = q alpha - p.
    The sites come from ``potential``'s fixed-point phasor walk as (m, e)
    integer pairs: ``_site_terms`` walks the window and ``_site_pairs``
    turns its terms into the sites at E.  ``held``, a dict that a caller
    with several energies keeps between calls (``exclusion_certificates``),
    maps q to the level's one record (``_Level``): the float sites, made
    once, and the walk, which energies at one precision share and a new
    precision replaces.  A_q and the differences are stepped with
    ``_pair_ops``, 22 operations a site, and wrapped in TransferMatrix2
    once, at the end, with A_q - D for each D.  A window over SITE_BUDGET
    is refused first (BudgetError).
    """
    check_energy(E)
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    _check_window(q)
    h_bits = _shift_bits(alpha, q)
    if held is None:
        held = {}
    level = held.get(q)
    if level is None:
        level = held[q] = _Level(_window_sites(pot, theta, alpha, q))
    norm_bits = max(_log2_norm_bound(E, level.V, q))
    precision = max(2 * math.ceil(norm_bits), h_bits) + 192
    if level.precision != precision:
        level.terms = None  # the old walk goes before the new one is made
        level.terms = _site_terms(pot, theta, alpha, -q, 2 * q, precision)
        level.precision = precision
    S = _site_pairs(E, level.terms, precision)
    # (a..d) = A_k(theta); (xa..xd) and (ya..yd) are its differences from
    # A_k(theta + q alpha) and A_k(theta - q alpha).  A(s) differs from A(s')
    # only in its corner, so A(s) P - A(s') P' = A(s') (P - P') + (s - s') e_1
    # row_0(P): a difference steps by its shifted site, with the top row of P
    # taken before P steps.  Each operation rounds to the working precision,
    # in the order of the expressions sp xa - xc + t a and s a - c
    mul, add, sub = _pair_ops(precision)
    a, b, c, d = (1, 0), (0, 0), (0, 0), (1, 0)
    xa = xb = xc = xd = ya = yb = yc = yd = (0, 0)
    for s, sm, sp in zip(S[q:2 * q], S[:q], S[2 * q:]):
        t, u = sub(s, sp), sub(s, sm)
        xa, xb, xc, xd = (add(sub(mul(sp, xa), xc), mul(t, a)),
                          add(sub(mul(sp, xb), xd), mul(t, b)), xa, xb)
        ya, yb, yc, yd = (add(sub(mul(sm, ya), yc), mul(u, a)),
                          add(sub(mul(sm, yb), yd), mul(u, b)), ya, yb)
        a, b, c, d = sub(mul(s, a), c), sub(mul(s, b), d), a, b

    def matrix(*entries):
        return TransferMatrix2(*(mp.make_mpf(from_man_exp(m, e))
                                 for m, e in entries))

    P, D_fwd, D_back = (a, b, c, d), (xa, xb, xc, xd), (ya, yb, yc, yd)
    A_q, A_back = matrix(*P), matrix(*map(sub, P, D_back))
    with mp.workprec(precision):
        # A_{2q}(theta) = A_q(theta + q alpha) A_q(theta), exactly
        A_2q = matrix(*map(sub, P, D_fwd)).matmul(A_q)
    return GordonMatrices(precision=precision, A_back=A_back, A_q=A_q, A_2q=A_2q,
                          D_fwd=matrix(*D_fwd), D_back=matrix(*D_back))


class GordonLhs(NamedTuple):
    """Certificate left-hand sides as logs, which survive float64 underflow.
    ``max_norm`` is the generated solution's three-norm maximum
    max(||A_q v||, ||A_q^{-1}(theta - q alpha) v||, ||A_{2q} v||)."""

    square_log: float
    inverse_log: float
    max_norm: float


def _resolved_log(x) -> float:
    """ln x of a certificate difference; raises NumericError on an exact
    zero, which has no log to report."""
    if x == 0:
        raise NumericError("certificate difference is exactly zero")
    return float(ln_low(x))


def _adj(m: TransferMatrix2) -> TransferMatrix2:
    """Adjugate [[d, -b], [-c, a]]: the exact inverse of a unimodular m."""
    return TransferMatrix2(m.d, -m.b, -m.c, m.a)


def _min_max_direction(matrices):
    """min over unit v of max_i ||M_i v||^2, with the point (x, y) of the
    unit circle where it is reached.

    At v = (cos psi, sin psi), ||M v||^2 = a + b x + c y is linear in
    (x, y) = (cos 2psi, sin 2psi) on the unit circle.  The minimum of the
    maximum lies at one curve's own minimum -(b, c)/|(b, c)| (anywhere for a
    constant curve) or where two curves cross, i.e. where a line meets the
    circle.  A minimising v is the half angle of (x, y).
    """
    curves = []
    for m in matrices:
        col0, col1 = m.a * m.a + m.c * m.c, m.b * m.b + m.d * m.d
        curves.append(((col0 + col1) / 2, (col0 - col1) / 2, m.a * m.b + m.c * m.d))
    points = []
    for _, b, c in curves:
        r = mp.sqrt(b * b + c * c)
        points.append((-b / r, -c / r) if r else (mp.mpf(1), mp.mpf(0)))
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(curves, 2):
        a, b, c = a1 - a2, b1 - b2, c1 - c2
        m = b * b + c * c
        if m == 0 or a * a > m:
            continue
        s = mp.sqrt(m - a * a)
        points += [((-a * b - c * s) / m, (-a * c + b * s) / m),
                   ((-a * b + c * s) / m, (-a * c - b * s) / m)]
    return min((max(a + b * x + c * y for a, b, c in curves), (x, y))
               for x, y in points)


def gordon_lhs_uniform(mats: GordonMatrices) -> GordonLhs:
    """The certificate left-hand sides over every unit initial vector v at
    once: their suprema (the spectral norms of A_q^2 - A_{2q} = D_fwd A_q and
    of A_q^{-1}(theta) - A_q^{-1}(theta - q alpha) = adj(D_back)) and the
    minimum of the three-norm maximum, at the working precision.  The
    adjugate keeps the spectral norm, so the inverse difference has the
    norm of D_back.  Raises NumericError when a supremum is exactly zero."""
    with mp.workprec(mats.precision):
        sup_sq = mats.D_fwd.matmul(mats.A_q).norm()
        sup_inv = mats.D_back.norm()
        min_sq, _ = _min_max_direction((mats.A_q, _adj(mats.A_back), mats.A_2q))
        max_norm = float(mp.sqrt(min_sq))
    return GordonLhs(square_log=_resolved_log(sup_sq),
                     inverse_log=_resolved_log(sup_inv),
                     max_norm=max_norm)


# ---------------------------------------------------------------------------
# the quantitative smallness bound


@dataclass(frozen=True)
class SmallnessCheck:
    """ln||D_fwd|| and ln||D_back|| against the bound
    e^{q (L - delta_hat + 4 eps)}.

    ``vacuous`` marks configurations where the bound exceeds 1 and nothing is
    being tested.  Logs are reported so tiny values stay comparable.
    """

    q: int
    level: int
    d_fwd_log: float
    d_back_log: float
    bound_log: float
    vacuous: bool
    passed: bool | None
    empirical_rate: float


def smallness_check(pot: MeromorphicPotential, E, theta, cf: ContinuedFraction,
                  n_i: int, epsilon: float, L: float,
                  delta_iv: IndexValue) -> SmallnessCheck:
    """Evaluate the smallness estimates at a qualifying level.

    For every solution phi, with Phi(k) = (phi_k, phi_{k-1}) and
    A = A_q(theta), Gordon's lemma rests on

        Phi(0) = tr(A) Phi(q) - Phi(2q) - D_fwd Phi(q),
        tr(A) Phi(0) = Phi(q) + Phi(-q) + adj(D_back) Phi(0),

    so the check reads the norms of the two differences of one
    ``gordon_matrices``, at its working precision, and passes when both
    logs are within the bound.  Raises NumericError when a difference is
    exactly zero.
    """
    if n_i not in qualifying_levels(delta_iv, epsilon):
        raise SubsequenceError(
            f"level {n_i} not in the qualifying subsequence for eps={epsilon}")
    q = cf.q[n_i]
    bound_log = q * (L - delta_iv.value + 4 * epsilon)
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    with mp.workprec(mats.precision):
        fwd, back = mats.D_fwd.norm(), mats.D_back.norm()
    fwd_log, back_log = _resolved_log(fwd), _resolved_log(back)
    worst = max(fwd_log, back_log)
    vacuous = bound_log >= 0
    return SmallnessCheck(q=q, level=n_i, d_fwd_log=fwd_log,
                          d_back_log=back_log, bound_log=float(bound_log),
                          vacuous=vacuous,
                          passed=None if vacuous else worst <= bound_log,
                          empirical_rate=-worst / q)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class GordonCertificate:
    """Per-level exclusion record over every initial direction.

    lhs values are the suprema over unit initial vectors, max_norm is the
    minimum over them of the three-norm maximum, so the verdict quantifies
    over every solution.
    """

    E: float
    q: int
    level: int
    lhs_square_log: float
    lhs_inverse_log: float
    trace: float
    max_norm: float
    empirical_rate: float
    verdict: str  # "excluded" | "inconclusive"
    # the working precision of gordon_matrices and the seconds it took; for
    # stage logs only, never written to the output files
    precision: int
    matrices_s: float = field(default=0.0, compare=False, repr=False)


def _check_levels(cf: ContinuedFraction, levels) -> None:
    """Reject, before any work, a level outside 1..depth (RangeError) and a
    level whose window of 3q orbit sites exceeds SITE_BUDGET (BudgetError)."""
    for n_i in levels:
        if not 1 <= n_i <= cf.depth:
            raise RangeError(f"level {n_i} outside 1..{cf.depth}")
        _check_window(cf.q[n_i], f"level {n_i}")


def exclusion_certificates(pot: MeromorphicPotential, energies, theta,
                           cf: ContinuedFraction, levels,
                           c: float) -> Iterator[list[GordonCertificate]]:
    """One certificate per requested level for each energy, yielded as a
    list per energy as soon as that energy's levels are done.

    A level is excluded when, for every unit initial vector, both left-hand
    sides are <= e^{-c q} and the generated solution's three-norm maximum is
    >= 1/4 - tol; ``gordon_lhs_uniform`` gives the suprema and the minimum in
    closed form.  The energies share one record per level (``_Level``)
    until the generator finishes: the window's float sites, made once, and
    one walk (``_site_terms``), made again at each change of working
    precision.  The levels and the energies are
    checked here, before any work: an empty list of levels raises
    InvalidInputError, a bad level as ``_check_levels`` does, and an
    energy whose float is infinite or NaN InvalidInputError
    (``check_energy``).
    """
    if not levels:
        raise InvalidInputError("levels must be nonempty")
    _check_levels(cf, levels)
    energies = list(energies)
    for E in energies:
        check_energy(E)
    return _certificates(pot, energies, theta, cf, levels, c)


def _certificates(pot, energies, theta, cf, levels, c):
    held = {}  # q -> _Level, shared by the energies
    for E in energies:
        certs = []
        for n_i in levels:
            q = cf.q[n_i]
            t0 = time.perf_counter()
            mats = gordon_matrices(pot, E, theta, cf.value, q, held)
            matrices_s = time.perf_counter() - t0
            lhs = gordon_lhs_uniform(mats)
            thr_log = -c * q
            excluded = (lhs.square_log <= thr_log and lhs.inverse_log <= thr_log
                        and lhs.max_norm >= 0.25 - MAX_NORM_TOL)
            with mp.workprec(mats.precision):
                trace = float(mats.A_q.trace())
            certs.append(GordonCertificate(
                E=float(E), q=q, level=n_i, lhs_square_log=lhs.square_log,
                lhs_inverse_log=lhs.inverse_log, trace=trace,
                max_norm=lhs.max_norm,
                empirical_rate=-max(lhs.square_log, lhs.inverse_log) / q,
                verdict="excluded" if excluded else "inconclusive",
                precision=mats.precision, matrices_s=matrices_s))
        yield certs


def exclusion_certificate(pot: MeromorphicPotential, E, theta, cf: ContinuedFraction,
                          levels, c: float) -> list[GordonCertificate]:
    """``exclusion_certificates`` for the one energy E."""
    (certs,) = exclusion_certificates(pot, [E], theta, cf, levels, c)
    return certs
