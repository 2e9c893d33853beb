"""Eigenvalue-exclusion certificates from near-periodicity at denominator scales.

The engine: at a denominator q of the frequency, with h = q alpha - p, the
certificate compares A_q^2 with A_{2q} and A_q(theta) with A_q(theta - q a).
Both differences are exponentially small, so they are never formed by
subtracting products of size e^{qL}.  One fused loop over the site values of
[-q, 2q) steps the three products P = A_k(theta), P+ = A_k(theta + q a) and
P- = A_k(theta - q a), k < q, and next to them the differences
D+ = P - P+ and D- = P - P-.  A step A(s) = [[s, -1], [1, 0]] differs from
A(s') only in its corner, so

    D+ <- A(s) D+ + (s - s+) e_1 row_0(P+),  D- <- A(s) D- + (s - s-) e_1 row_0(P-),

with the rows taken before P+ and P- step.  Then A_{2q} = P+ A_q exactly
(never the square of A_q), A_q^2 - A_{2q} = D+ A_q, and since every step
has determinant 1 the inverses are adjugates [[d, -b], [-c, a]]: the inverse
difference is adj(D-), with the norm of D-.

Working precision is max(2 log2||M||, log2(1/|h|)) + 192 bits.  ||M|| bounds
the three products, read off one float walk (``_window_walks``): A_q and
A_{2q} are forward states, and a backward state holds the adjugate of
A_q(theta - q a).  The min-max over directions needs about
2 log2||M|| + 128 bits.  The log2(1/|h|) term (h taken exactly from
alpha's value) keeps at least 192 bits of every site difference s - s+-
under plain subtraction, so the differences come out to about 128
relative bits however small they are.  There is no resolution floor: only
an exactly zero difference, or h = 0, raises NumericError.

The site pass (``potential``) computes S_j = E - V(x_j) once per site, as
an (m, e) integer pair, in two parts.  ``_site_terms`` walks the phasor
(cos pi x_j, sin pi x_j) as W-bit fixed-point integers, W = the working
precision + ceil(log2(3q)) + 32, one integer rotation by (cos pi a, sin pi a)
per site rounded to nearest, so the phasor's absolute error stays about
3q 2^-W.  f and every built-in g are integer polynomials in it; a
user-supplied g is evaluated directly at x_j.  The pole factors of f are
also the pole test: the first site within ``eps_floor`` of a pole raises
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

``potential.site_values`` wraps the same pairs as mpf values for
``solve_recurrence``.  The float walk, which serves the precision pre-pass
and ``bounded_candidate``, takes its phases from ``potential.orbit``.

The certificate quantifies over every initial direction v in closed form
(``gordon_lhs_uniform``): the two left-hand sides are linear in v, so their
suprema are spectral norms, and the minimum of the three-norm maximum lies
among nine candidates (each curve's minimum and each pairwise crossing).
``gordon_lhs`` evaluates the same quantities at one given v.  Logs and norms
that are only compared or turned into floats are taken at LOG_PREC bits.
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

from .arithmetic import (LOG_PREC, SITE_BUDGET, ContinuedFraction, IndexValue,
                         as_mpf, exact_fraction, ln_low, pair_rounding,
                         qualifying_levels)
from .cocycle import TransferMatrix2
from .errors import (BudgetError, InvalidInputError, NumericError, RangeError,
                     SubsequenceError)
from .potential import (MeromorphicPotential, _site_pairs, _site_terms,
                        check_energy, orbit, site_values)

__all__ = [
    "SolutionSegment",
    "GordonCertificate",
    "GordonLhs",
    "GordonMatrices",
    "SmallnessCheck",
    "solve_recurrence",
    "gordon_matrices",
    "gordon_lhs",
    "gordon_lhs_uniform",
    "max_inequality",
    "smallness_check",
    "exclusion_certificate",
    "exclusion_certificates",
    "bounded_candidate",
]

MAX_NORM_TOL = 1e-6
# initial directions on the grid that seeds bounded_candidate's search
CANDIDATE_GRID = 720


# ---------------------------------------------------------------------------
# solution segments


@dataclass(frozen=True)
class SolutionSegment:
    """Values of a formal solution over k in [k_min, k_max], reconstructed by
    transfer-matrix steps from a unit initial pair (phi_0, phi_{-1})."""

    E: float
    theta: object
    initial: tuple
    k_min: int
    k_max: int
    values: tuple

    def phi(self, k: int):
        if not self.k_min <= k <= self.k_max:
            raise RangeError(f"k={k} outside segment [{self.k_min}, {self.k_max}]")
        return self.values[k - self.k_min]

    def vec(self, k: int):
        """(phi_k, phi_{k-1})."""
        return (self.phi(k), self.phi(k - 1))

    def vec_norm(self, k: int) -> float:
        a, b = self.vec(k)
        return float(mp.sqrt(a * a + b * b))

    def max_residual(self, pot: MeromorphicPotential) -> float:
        """Largest relative residual of the three-term recurrence, at the
        current working precision."""
        from .potential import eval_V

        worst = 0.0
        for k in range(self.k_min + 1, self.k_max):
            v = eval_V(pot, self.theta + k * self._alpha)
            lhs = self.phi(k + 1) + self.phi(k - 1) + v * self.phi(k)
            rhs = self.E * self.phi(k)
            scale = max(abs(lhs), abs(rhs), abs(v * self.phi(k)), 1)
            worst = max(worst, float(abs(lhs - rhs) / scale))
        return worst

    # alpha is needed for residuals; carried out-of-band to keep values compact
    _alpha: object = field(default=None, compare=False)


def solve_recurrence(pot: MeromorphicPotential, E, theta, initial,
                     k_range: tuple[int, int], alpha) -> SolutionSegment:
    """Fill phi over [k_min, k_max] in both directions from (phi_0, phi_{-1}),
    at the current working precision.

    The initial pair is normalised to unit length.  The values depend on the
    sites (k_min, k_max) only, whose s_k = E - V(theta + k alpha) come from
    one ``site_values`` pass; a pole among them raises OrbitPoleError with
    its site index.
    """
    k_min, k_max = k_range
    if k_min > -1 or k_max < 0:
        raise RangeError("window must contain [-1, 0]")
    av = as_mpf(alpha)
    th = as_mpf(theta)
    v0 = as_mpf(initial[0])
    v1 = as_mpf(initial[1])
    nrm = mp.sqrt(v0 * v0 + v1 * v1)
    if nrm == 0:
        raise InvalidInputError("initial vector must be nonzero")
    v0, v1 = v0 / nrm, v1 / nrm
    S = site_values(pot, E, theta, alpha, k_min + 1, k_max)
    i0 = -k_min - 1  # S[i0] is site 0
    fwd = [v1, v0]  # forward: phi_{k+1} = s_k phi_k - phi_{k-1}
    for s in S[i0:]:
        fwd.append(s * fwd[-1] - fwd[-2])
    bwd = [v0, v1]  # backward: phi_{k-1} = s_k phi_k - phi_{k+1}
    for s in reversed(S[:i0]):
        bwd.append(s * bwd[-1] - bwd[-2])
    values = tuple(bwd[:0:-1] + fwd[1:])  # phi_{k_min} .. phi_{k_max}
    return SolutionSegment(E=float(E), theta=th, initial=(v0, v1),
                           k_min=k_min, k_max=k_max, values=values, _alpha=av)


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


def _window_walks(pot: MeromorphicPotential, E, theta, alpha,
                  q: int) -> Iterator[tuple]:
    """The float walk over the window [-q-1, 2q): yields 3q+1 states
    (a, b, c, d, scale) that stand for [[a, b], [c, d]] 2^scale, rescaled
    whenever the top row passes 2^64.  They come one at a time, so a caller
    that reads a few of them keeps none of the others: in a fresh process,
    holding all of them in new memory costs more than the walk itself.

    State k < 2q is A_{k+1}(theta), the forward product over sites 0..k.
    State 2q + j is the product of the inverse steps [[0, 1], [-1, s]] over
    sites -1..-1-j with its rows swapped: since
    swap [[0, 1], [-1, s]] swap = [[s, -1], [1, 0]], it is the same walk
    started from the row swap.  So every state maps (phi_0, phi_{-1}) to a
    pair of consecutive phi at the window's sites, up to the row order.
    """
    x = orbit(float(as_mpf(theta)) % 1.0, float(as_mpf(alpha)), -q - 1, 2 * q)
    # a site on a pole reads about 1e300; the cap keeps s a - c finite
    S = (float(E) - np.clip(pot.V_array(x), -1e250, 1e250)).tolist()
    # forward over sites 0..2q-1 from the identity, back over -1..-q-1
    # from the row swap
    for sites, (a, b, c, d) in ((S[q + 1:], (1.0, 0.0, 0.0, 1.0)),
                                (S[q::-1], (0.0, 1.0, 1.0, 0.0))):
        scale = 0.0
        for s in sites:
            a, b, c, d = s * a - c, s * b - d, a, b
            m = max(abs(a), abs(b))
            if m > 2.0 ** 64:
                scale += math.log2(m)
                a, b, c, d = a / m, b / m, c / m, d / m
            yield a, b, c, d, scale


def _log2_norm_bound(pot: MeromorphicPotential, E, theta, alpha,
                     q: int) -> float:
    """Float pre-pass: an upper estimate of log2 of the largest of
    ||A_q(theta - q alpha)||, ||A_q|| and ||A_{2q}||, read off states q-1,
    2q-1 and 3q-1 of ``_window_walks``: A_q, A_{2q} and, after sites
    -1..-q, the adjugate of A_q(theta - q alpha) with its rows swapped,
    which holds the same entries up to sign."""
    ends = itertools.islice(_window_walks(pot, E, theta, alpha, q),
                            q - 1, 3 * q, q)
    # the largest entry is within a factor 2 of the spectral norm
    return max(scale + math.log2(max(abs(a), abs(b), abs(c), abs(d)))
               for a, b, c, d, scale in ends) + 1


def _pair_ops(prec: int):
    """Multiply, add and subtract on (m, e) pairs, each result rounded once
    to ``prec`` bits by ``arithmetic.pair_rounding``.  Those are the
    roundings of libmp's mpf_mul, mpf_add and mpf_sub at rounding "n", so
    the values are theirs bit for bit; the pairs skip the sign word, bit
    count and trailing-zero strip of a raw mpf.

    As in mpf_add, when the two exponents (of the canonical forms) lie more
    than 100 bits apart and the top bits more than prec + 4 apart, the
    smaller operand is replaced by a sticky bit: the larger mantissa is
    shifted up by prec + 4 bits and moved one unit toward the smaller one's
    sign.  So a sum of prec-bit operands builds no integer much wider than
    2 prec bits, however far apart they lie.
    """
    lim = prec + 4
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
        gap = m1.bit_length() + d - m2.bit_length()
        if gap > lim or gap < -lim:
            if gap < 0:
                m1, e1, m2, e2 = m2, e2, m1, e1
            z1 = (m1 & -m1).bit_length() - 1
            z2 = (m2 & -m2).bit_length() - 1
            if e1 + z1 - e2 - z2 > 100:
                return rnd(((m1 >> z1) << lim) + (1 if m2 > 0 else -1),
                           e1 + z1 - lim)
            d = e1 - e2
        if d >= 0:
            return rnd((m1 << d) + m2, e2)
        return rnd(m1 + (m2 << -d), e1)

    def sub(x, y):
        return add(x, y, True)

    return mul, add, sub


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
    maps q to the (precision, terms) last made for it: energies at the same
    precision share one walk, and a new precision replaces it.  The products
    and differences are stepped on the pairs with ``_pair_ops`` and wrapped
    in TransferMatrix2 once, at the end.
    """
    check_energy(E)
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    h_bits = _shift_bits(alpha, q)
    norm_bits = _log2_norm_bound(pot, E, theta, alpha, q)
    precision = max(2 * math.ceil(norm_bits), h_bits) + 192
    if held is None:
        held = {}
    if held.get(q, (None,))[0] != precision:
        held.pop(q, None)  # the old walk goes before the new one is made
        held[q] = precision, _site_terms(pot, theta, alpha, -q, 2 * q, precision)
    S = _site_pairs(E, held[q][1], precision)
    # (a..d) = A_k(theta), (ap..dp) = A_k(theta + q alpha) and
    # (am..dm) = A_k(theta - q alpha); (xa..xd) and (ya..yd) hold their
    # differences from A_k(theta).  A step A(s) differs from A(s') only in
    # its corner entry, so a difference picks up (s - s') times the top row
    # of the shifted product before that product steps.  Every product,
    # sum and difference is rounded to the working precision, in the order
    # of the expressions s xa - xc + t ap and s a - c
    mul, add, sub = _pair_ops(precision)
    one, zero = (1, 0), (0, 0)
    a, b, c, d = ap, bp, cp, dp = am, bm, cm, dm = one, zero, zero, one
    xa = xb = xc = xd = ya = yb = yc = yd = zero
    for s, sm, sp in zip(S[q:2 * q], S[:q], S[2 * q:]):
        t, u = sub(s, sp), sub(s, sm)
        xa, xb, xc, xd = (add(sub(mul(s, xa), xc), mul(t, ap)),
                          add(sub(mul(s, xb), xd), mul(t, bp)), xa, xb)
        ya, yb, yc, yd = (add(sub(mul(s, ya), yc), mul(u, am)),
                          add(sub(mul(s, yb), yd), mul(u, bm)), ya, yb)
        a, b, c, d = sub(mul(s, a), c), sub(mul(s, b), d), a, b
        ap, bp, cp, dp = sub(mul(sp, ap), cp), sub(mul(sp, bp), dp), ap, bp
        am, bm, cm, dm = sub(mul(sm, am), cm), sub(mul(sm, bm), dm), am, bm

    def matrix(*entries):
        return TransferMatrix2(*(mp.make_mpf(from_man_exp(m, e))
                                 for m, e in entries))

    A_q = matrix(a, b, c, d)
    with mp.workprec(precision):
        # A_{2q}(theta) = A_q(theta + q alpha) A_q(theta), exactly
        A_2q = matrix(ap, bp, cp, dp).matmul(A_q)
    return GordonMatrices(precision=precision, A_back=matrix(am, bm, cm, dm),
                          A_q=A_q, A_2q=A_2q, D_fwd=matrix(xa, xb, xc, xd),
                          D_back=matrix(ya, yb, yc, yd))


def _vec_norm(v):
    return mp.sqrt(v[0] * v[0] + v[1] * v[1])


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


def gordon_lhs(pot: MeromorphicPotential, E, theta, alpha, q: int, v=(1, 0),
               mats: GordonMatrices | None = None) -> GordonLhs:
    """The two certificate left-hand sides at scale q for initial vector v:

        ||(A_q^2 - A_{2q})(theta) v|| = ||D_fwd A_q v||  and
        ||(A_q^{-1}(theta) - A_q^{-1}(theta - q alpha)) v|| = ||adj(D_back) v||,

    with the three-norm maximum, each matrix applied to v once.  Raises
    NumericError when a difference is exactly zero.
    """
    if mats is None:
        mats = gordon_matrices(pot, E, theta, alpha, q)
    with mp.workprec(mats.precision):
        vv = (as_mpf(v[0]), as_mpf(v[1]))
        nrm = _vec_norm(vv)
        vv = (vv[0] / nrm, vv[1] / nrm)
        w_q = mats.A_q.apply(vv)
        w_2q = mats.A_2q.apply(vv)
        u1 = _adj(mats.A_back).apply(vv)
        d_sq = mats.D_fwd.apply(w_q)
        d_inv = _adj(mats.D_back).apply(vv)
    # the products above need the full precision; their norms do not
    with mp.workprec(LOG_PREC):
        lhs_square = _vec_norm(d_sq)
        lhs_inverse = _vec_norm(d_inv)
        max_norm = float(max(_vec_norm(w_q), _vec_norm(u1), _vec_norm(w_2q)))
    return GordonLhs(square_log=_resolved_log(lhs_square),
                     inverse_log=_resolved_log(lhs_inverse),
                     max_norm=max_norm)


def _adj(m: TransferMatrix2) -> TransferMatrix2:
    """Adjugate [[d, -b], [-c, a]]: the exact inverse of a unimodular m."""
    return TransferMatrix2(m.d, -m.b, -m.c, m.a)


def _min_max_direction(matrices):
    """min over unit v of max_i ||M_i v||^2, with a minimising v.

    At v = (cos psi, sin psi), ||M v||^2 = a + b x + c y is linear in
    (x, y) = (cos 2psi, sin 2psi) on the unit circle.  The minimum of the
    maximum lies at one curve's own minimum -(b, c)/|(b, c)| (anywhere for a
    constant curve) or where two curves cross, i.e. where a line meets the
    circle.
    """
    curves = []
    for m in matrices:
        col0, col1 = m.a * m.a + m.c * m.c, m.b * m.b + m.d * m.d
        curves.append(((col0 + col1) / 2, (col0 - col1) / 2, m.a * m.b + m.c * m.d))
    points = []
    for _, b, c in curves:
        r = mp.sqrt(b * b + c * c)
        points.append((-b / r, -c / r) if r else (mp.one, mp.zero))
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(curves, 2):
        a, b, c = a1 - a2, b1 - b2, c1 - c2
        m = b * b + c * c
        if m == 0 or a * a > m:
            continue
        s = mp.sqrt(m - a * a)
        points += [((-a * b - c * s) / m, (-a * c + b * s) / m),
                   ((-a * b + c * s) / m, (-a * c - b * s) / m)]
    value, (x, y) = min((max(a + b * x + c * y for a, b, c in curves), (x, y))
                        for x, y in points)
    psi = mp.atan2(y, x) / 2
    return value, (mp.cos(psi), mp.sin(psi))


def gordon_lhs_uniform(mats: GordonMatrices) -> tuple[GordonLhs, tuple]:
    """``gordon_lhs`` over every unit initial vector v at once: the suprema of
    the two left-hand sides (the spectral norms of A_q^2 - A_{2q} = D_fwd A_q
    and of A_q^{-1}(theta) - A_q^{-1}(theta - q alpha) = adj(D_back)) and the
    minimum of the three-norm maximum, with a minimising v at the working
    precision.  The adjugate keeps the spectral norm, so the inverse
    difference has the norm of D_back.  Raises NumericError when a supremum
    is exactly zero."""
    with mp.workprec(mats.precision):
        sup_sq = mats.D_fwd.matmul(mats.A_q).norm()
        sup_inv = mats.D_back.norm()
        min_sq, v = _min_max_direction((mats.A_q, _adj(mats.A_back), mats.A_2q))
        max_norm = float(mp.sqrt(min_sq))
    return GordonLhs(square_log=_resolved_log(sup_sq),
                     inverse_log=_resolved_log(sup_inv),
                     max_norm=max_norm), v


# ---------------------------------------------------------------------------
# the bounded candidate of the smallness check


def _ln_max_norm(ls: np.ndarray, mats: np.ndarray, psis) -> np.ndarray:
    """max over k of ls_k + ln||M_k v|| at each v = (cos psi, sin psi)."""
    vs = np.stack([np.cos(psis), np.sin(psis)])
    out = np.full(vs.shape[1], -np.inf)
    chunk = max(1, (1 << 18) // vs.shape[1])  # bounds the (k, 2, psi) block
    for i in range(0, len(mats), chunk):
        w = mats[i:i + chunk] @ vs
        nn = np.sqrt(w[:, 0] ** 2 + w[:, 1] ** 2)
        out = np.maximum(out, np.max(ls[i:i + chunk, None]
                                     + np.log(np.maximum(nn, 1e-300)), axis=0))
    return out


def bounded_candidate(pot: MeromorphicPotential, E, theta, alpha,
                      q: int) -> tuple[tuple[float, float], float]:
    """Unit initial vector whose orbit stays smallest over [-q-1, 2q].

    Works in float64 with a separate log scale; returns (v, ln C) where C
    bounds ||(phi_k, phi_{k-1})|| over the window for the returned direction.
    The 3q+1 states of ``_window_walks`` are stacked once (a row swap keeps
    every norm); a grid of directions seeds a ternary search, and the grid,
    the search and the bound all evaluate the same ``_ln_max_norm``.
    """
    walks = np.array(list(_window_walks(pot, E, theta, alpha, q)))
    ls = walks[:, 4] * math.log(2)
    mats = walks[:, :4].reshape(-1, 2, 2)
    psis = np.pi * np.arange(CANDIDATE_GRID) / CANDIDATE_GRID
    i = int(np.argmin(_ln_max_norm(ls, mats, psis)))
    lo = psis[i] - np.pi / CANDIDATE_GRID
    hi = psis[i] + np.pi / CANDIDATE_GRID
    for _ in range(40):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        c1, c2 = _ln_max_norm(ls, mats, np.array([m1, m2]))
        if c1 <= c2:
            hi = m2
        else:
            lo = m1
    psi = (lo + hi) / 2
    v = (math.cos(psi), math.sin(psi))
    return v, float(_ln_max_norm(ls, mats, np.array([psi]))[0])


# ---------------------------------------------------------------------------
# the max inequality


def max_inequality(seg: SolutionSegment, q: int) -> tuple[float, str]:
    """max of ||(phi_q, phi_{q-1})||, ||(phi_{-q}, phi_{-q-1})||,
    ||(phi_{2q}, phi_{2q-1})||; verdict 'excluded' when >= 1/4 - tol."""
    if seg.k_min > -q - 1 or seg.k_max < 2 * q:
        raise RangeError(f"segment [{seg.k_min}, {seg.k_max}] does not cover "
                         f"[-{q + 1}, {2 * q}]")
    mx = max(seg.vec_norm(q), seg.vec_norm(-q), seg.vec_norm(2 * q))
    verdict = "excluded" if mx >= 0.25 - MAX_NORM_TOL else "inconclusive"
    return mx, verdict


# ---------------------------------------------------------------------------
# the quantitative smallness bound


@dataclass(frozen=True)
class SmallnessCheck:
    """Certificate left-hand sides against the bound e^{q (L - delta_hat + 4 eps)}.

    ``vacuous`` marks configurations where the bound exceeds 1 and nothing is
    being tested.  Logs are reported so tiny values stay comparable.
    """

    q: int
    level: int
    lhs_square_log: float
    lhs_inverse_log: float
    bound_log: float
    vacuous: bool
    passed: bool | None
    candidate: tuple[float, float]
    empirical_rate: float


def smallness_check(pot: MeromorphicPotential, E, theta, alpha,
                  cf: ContinuedFraction, n_i: int, epsilon: float,
                  L: float, delta_iv: IndexValue) -> SmallnessCheck:
    """Evaluate the smallness estimates at a qualifying level.

    The initial vector is ``bounded_candidate``'s: the direction whose orbit
    stays most bounded over the window, matching the bounded-solution
    hypothesis.
    """
    if n_i not in qualifying_levels(delta_iv, epsilon):
        raise SubsequenceError(
            f"level {n_i} not in the qualifying subsequence for eps={epsilon}")
    q = cf.q[n_i]
    bound_log = q * (L - delta_iv.value + 4 * epsilon)
    v, _ = bounded_candidate(pot, E, theta, alpha, q)
    lhs = gordon_lhs(pot, E, theta, alpha, q, v=v)
    vacuous = bound_log >= 0
    lsq = lhs.square_log
    linv = lhs.inverse_log
    passed = None if vacuous else (lsq <= bound_log and linv <= bound_log)
    rate = -max(lsq, linv) / q
    return SmallnessCheck(q=q, level=n_i, lhs_square_log=lsq, lhs_inverse_log=linv,
                       bound_log=float(bound_log), vacuous=vacuous, passed=passed,
                       candidate=(float(v[0]), float(v[1])), empirical_rate=rate)


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
        q = cf.q[n_i]
        if 3 * q > SITE_BUDGET:
            raise BudgetError(f"level {n_i} needs 3q = {3 * q} orbit sites "
                              f"(q = {q}), over the site budget {SITE_BUDGET}")


def exclusion_certificates(pot: MeromorphicPotential, energies, theta,
                           alpha, cf: ContinuedFraction, levels,
                           c: float) -> Iterator[list[GordonCertificate]]:
    """One certificate per requested level for each energy, yielded as a
    list per energy as soon as that energy's levels are done.

    A level is excluded when, for every unit initial vector, both left-hand
    sides are <= e^{-c q} and the generated solution's three-norm maximum is
    >= 1/4 - tol; ``gordon_lhs_uniform`` gives the suprema and the minimum in
    closed form.  The energies share each level's walk (``_site_terms``):
    it is made once per working precision, and at most one per level is
    held, until the generator finishes.  The levels and the energies are
    checked here, before any work: an empty list of levels raises
    InvalidInputError, a bad level as ``_check_levels`` does, and an
    infinite or NaN energy InvalidInputError.
    """
    if not levels:
        raise InvalidInputError("levels must be nonempty")
    _check_levels(cf, levels)
    energies = list(energies)
    for E in energies:
        check_energy(E)
    return _certificates(pot, energies, theta, alpha, cf, levels, c)


def _certificates(pot, energies, theta, alpha, cf, levels, c):
    held = {}  # q -> (precision, site terms), shared by the energies
    for E in energies:
        certs = []
        for n_i in levels:
            q = cf.q[n_i]
            t0 = time.perf_counter()
            mats = gordon_matrices(pot, E, theta, alpha, q, held)
            matrices_s = time.perf_counter() - t0
            lhs, _ = gordon_lhs_uniform(mats)
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


def exclusion_certificate(pot: MeromorphicPotential, E, theta, alpha,
                          cf: ContinuedFraction, levels,
                          c: float) -> list[GordonCertificate]:
    """``exclusion_certificates`` for the one energy E."""
    (certs,) = exclusion_certificates(pot, [E], theta, alpha, cf, levels, c)
    return certs
