"""Eigenvalue-exclusion certificates from near-periodicity at denominator scales.

The engine: at a denominator q of the frequency, the four high-precision
matrices A_q(theta), A_{2q}(theta), A_q^{-1}(theta) and A_q^{-1}(theta - q a)
are built from one pass over the 3q orbit sites [-q, 2q) (A_{2q} as a fresh
2q-step product, never as the square of A_q, since the certificate measures
exactly the gap between the two).  Working precision is sized from a cheap
float pre-pass over the orbit so the exponentially small differences survive
the cancellation.

The pass (``potential.site_values``) computes S_j = E - V(x_j) once per site.
It advances the phasor z_j = e^{i pi x_j} by one complex multiply by
e^{i pi a}, carried with ceil(log2(3q)) + 32 guard bits and then rounded to
the working precision; f and every built-in g are trig polynomials in z_j,
and only a user-supplied g is evaluated directly at x_j.  Every site within
``eps_floor`` of a pole raises OrbitPoleError.  A step of A_q is then two
multiplies, (a, b, c, d) <- (s a - c, s b - d, a, b), and a step of the
inverse products (a, b, c, d) <- (-b, a + b s, -d, c + d s).

The same pass feeds ``solve_recurrence``; the float walks (the precision
pre-pass and ``bounded_candidate``) take their phases from
``potential.orbit``.

The certificate quantifies over every initial direction v in closed form
(``gordon_lhs_uniform``): the two left-hand sides are linear in v, so their
suprema are spectral norms, and the minimum of the three-norm maximum lies
among nine candidates (each curve's minimum and each pairwise crossing).
``gordon_lhs`` evaluates the same quantities at one given v.  Both check the
differences against the resolution floor
max(ln||A_{2q}||, 1) - (precision - 48) ln 2, computed once per level; logs
and norms that are only compared or turned into floats are taken at
LOG_PREC bits.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .arithmetic import ContinuedFraction, IndexValue, as_mpf, qualifying_levels
from .cocycle import (
    TransferMatrix2,
    inverse_from_sites,
    product_from_sites,
    spectral_norm_2x2,
)
from .errors import InvalidInputError, NumericError, RangeError, SubsequenceError
from .potential import MeromorphicPotential, orbit, site_values

__all__ = [
    "SolutionSegment",
    "GordonCertificate",
    "GordonMatrices",
    "SmallnessCheck",
    "TraceReport",
    "solve_recurrence",
    "gordon_matrices",
    "gordon_lhs",
    "gordon_lhs_uniform",
    "max_inequality",
    "trace_dichotomy",
    "smallness_check",
    "exclusion_certificate",
    "bounded_candidate",
]

MAX_NORM_TOL = 1e-6
# initial directions on the grid that seeds bounded_candidate's search
CANDIDATE_GRID = 720
# precision of logs and norms that are only compared or turned into floats
LOG_PREC = 113


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

    def max_residual(self, pot: MeromorphicPotential,
                     precision: int | None = None) -> float:
        """Largest relative residual of the three-term recurrence."""
        from .potential import eval_V

        worst = 0.0
        with mp.workprec(precision or mp.mp.prec):
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
                     k_range: tuple[int, int], alpha,
                     precision: int | None = None) -> SolutionSegment:
    """Fill phi over [k_min, k_max] in both directions from (phi_0, phi_{-1}).

    The initial pair is normalised to unit length.  The values depend on the
    sites (k_min, k_max) only, whose s_k = E - V(theta + k alpha) come from
    one ``site_values`` pass; a pole among them raises OrbitPoleError with
    its site index.
    """
    k_min, k_max = k_range
    if k_min > -1 or k_max < 0:
        raise RangeError("window must contain [-1, 0]")
    if precision is None:
        precision = mp.mp.prec
    with mp.workprec(precision):
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
                               k_min=k_min, k_max=k_max, values=values,
                               _alpha=av)


# ---------------------------------------------------------------------------
# high-precision matrix assembly


@dataclass(frozen=True)
class GordonMatrices:
    """The four q-scale products, at a common working precision.

    ``floor_log`` is the log of the rounding floor of the products: a
    certificate difference whose log falls below it is not resolved.
    """

    q: int
    precision: int
    A_q: TransferMatrix2
    A_2q: TransferMatrix2
    Ainv_q: TransferMatrix2
    Ainv_q_shift: TransferMatrix2  # A_q^{-1}(theta - q alpha)
    floor_log: float


def _orbit_log_norm_estimate(pot: MeromorphicPotential, E: float, alpha: float,
                             theta: float, q: int) -> float:
    """Float pre-pass: sum over the window [-q, 2q) of ln of a per-step norm
    bound, used only to size the working precision."""
    V = pot.V_array(orbit(theta, alpha, -q, 2 * q), cap=1e250)
    row = np.abs(E - V) + 1.0
    return float(np.sum(np.log(np.maximum(row, 2.0))))


def gordon_matrices(pot: MeromorphicPotential, E, theta, alpha, q: int,
                    precision: int | None = None) -> GordonMatrices:
    """Build A_q, A_{2q}, A_q^{-1} and the shifted A_q^{-1} from one pass over
    the 3q orbit sites [-q, 2q)."""
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    if precision is None:
        s = _orbit_log_norm_estimate(pot, float(E), float(as_mpf(alpha)),
                                     float(as_mpf(theta)) % 1.0, q)
        precision = 192 + int(2.2 * s / math.log(2))
    with mp.workprec(precision):
        S = site_values(pot, E, theta, alpha, -q, 2 * q)
        window, forward = S[q:2 * q], S[2 * q:]  # sites [0, q) and [q, 2q)
        A_q = product_from_sites(window)
        A_2q = product_from_sites(forward, A_q)
        Ainv_q = inverse_from_sites(window)
        Ainv_shift = inverse_from_sites(S[:q])  # sites [-q, 0)
        scale_log = _log(A_2q.norm())
    floor_log = max(scale_log, 1.0) - precision * math.log(2) + 48 * math.log(2)
    return GordonMatrices(q=q, precision=precision, A_q=A_q, A_2q=A_2q,
                          Ainv_q=Ainv_q, Ainv_q_shift=Ainv_shift,
                          floor_log=floor_log)


def _vec_norm(v):
    return mp.sqrt(v[0] * v[0] + v[1] * v[1])


def _log(x) -> float:
    """ln x as a float (-inf at 0), taken at LOG_PREC bits."""
    with mp.workprec(LOG_PREC):
        return float(mp.log(x))


class GordonLhs(NamedTuple):
    """Certificate left-hand sides; the ``*_log`` fields survive float64
    underflow.  ``max_norm`` is the generated solution's three-norm maximum
    max(||A_q v||, ||A_q^{-1}(theta - q alpha) v||, ||A_{2q} v||)."""

    square: float
    inverse: float
    square_log: float
    inverse_log: float
    max_norm: float


def _resolved_log(x, floor_log: float) -> float:
    """ln x of a certificate difference; raises NumericError when it is below
    the precision floor.  An exact zero counts as below it, since it only says
    that the two products agree to every working bit."""
    val_log = _log(x)
    if val_log < floor_log:
        raise NumericError(
            "certificate difference is below the working-precision floor; "
            "increase precision")
    return val_log


def gordon_lhs(pot: MeromorphicPotential, E, theta, alpha, q: int, v=(1, 0),
               mats: GordonMatrices | None = None) -> GordonLhs:
    """The two certificate left-hand sides at scale q for initial vector v:

        ||(A_q^2 - A_{2q})(theta) v||  and
        ||(A_q^{-1}(theta) - A_q^{-1}(theta - q alpha)) v||,

    with the three-norm maximum, each matrix applied to v once.  Raises
    NumericError when a difference is below the precision floor.
    """
    if mats is None:
        mats = gordon_matrices(pot, E, theta, alpha, q)
    with mp.workprec(mats.precision):
        vv = (as_mpf(v[0]), as_mpf(v[1]))
        nrm = _vec_norm(vv)
        vv = (vv[0] / nrm, vv[1] / nrm)
        w_q = mats.A_q.apply(vv)
        w_sq = mats.A_q.apply(w_q)
        w_2q = mats.A_2q.apply(vv)
        u0 = mats.Ainv_q.apply(vv)
        u1 = mats.Ainv_q_shift.apply(vv)
        d_sq = (w_sq[0] - w_2q[0], w_sq[1] - w_2q[1])
        d_inv = (u0[0] - u1[0], u0[1] - u1[1])
    # the differences above need the full precision; their norms do not
    with mp.workprec(LOG_PREC):
        lhs_square = _vec_norm(d_sq)
        lhs_inverse = _vec_norm(d_inv)
        max_norm = float(max(_vec_norm(w_q), _vec_norm(u1), _vec_norm(w_2q)))
    return GordonLhs(square=float(lhs_square), inverse=float(lhs_inverse),
                     square_log=_resolved_log(lhs_square, mats.floor_log),
                     inverse_log=_resolved_log(lhs_inverse, mats.floor_log),
                     max_norm=max_norm)


def _diff_norm(m1: TransferMatrix2, m2: TransferMatrix2):
    return spectral_norm_2x2(m1.a - m2.a, m1.b - m2.b, m1.c - m2.c, m1.d - m2.d)


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
    the two left-hand sides (the spectral norms of A_q^2 - A_{2q} and of
    A_q^{-1}(theta) - A_q^{-1}(theta - q alpha)) and the minimum of the
    three-norm maximum, with a minimising v at the working precision.
    Raises NumericError when a supremum is below the precision floor."""
    with mp.workprec(mats.precision):
        sup_sq = _diff_norm(mats.A_q.matmul(mats.A_q), mats.A_2q)
        sup_inv = _diff_norm(mats.Ainv_q, mats.Ainv_q_shift)
        min_sq, v = _min_max_direction((mats.A_q, mats.Ainv_q_shift, mats.A_2q))
        max_norm = float(mp.sqrt(min_sq))
    return GordonLhs(square=float(sup_sq), inverse=float(sup_inv),
                     square_log=_resolved_log(sup_sq, mats.floor_log),
                     inverse_log=_resolved_log(sup_inv, mats.floor_log),
                     max_norm=max_norm), v


# ---------------------------------------------------------------------------
# the bounded candidate of the smallness check


def bounded_candidate(pot: MeromorphicPotential, E, theta, alpha,
                      q: int) -> tuple[tuple[float, float], float]:
    """Unit initial vector whose orbit stays smallest over [-q-1, 2q].

    Works in float64 with a separate log scale; returns (v, C) where C bounds
    ||(phi_k, phi_{k-1})|| over the window for the returned direction.
    """
    alpha_f = float(as_mpf(alpha))
    theta_f = float(as_mpf(theta)) % 1.0
    # V at the window's sites k = -q-1 .. 2q-1; site k sits at V[k + q + 1]
    V = pot.V_array(orbit(theta_f, alpha_f, -q - 1, 2 * q), cap=1e250)
    mats = []  # (logscale, 2x2) mapping v -> (phi_k, phi_{k-1})
    m = np.eye(2)
    ls = 0.0
    for v_k in V[q + 1:]:  # sites 0 .. 2q-1
        m = np.array([[E - v_k, -1.0], [1.0, 0.0]]) @ m
        s = np.max(np.abs(m))
        if s > 1e100 or s < 1e-100:
            ls += math.log(s)
            m = m / s
        mats.append((ls, m.copy()))
    m = np.eye(2)
    ls = 0.0
    for v_k in V[q::-1]:  # sites -1 .. -q-1, inverse steps
        m = np.array([[0.0, 1.0], [-1.0, E - v_k]]) @ m
        s = np.max(np.abs(m))
        if s > 1e100 or s < 1e-100:
            ls += math.log(s)
            m = m / s
        mats.append((ls, m.copy()))
    psis = np.pi * np.arange(CANDIDATE_GRID) / CANDIDATE_GRID
    vs = np.stack([np.cos(psis), np.sin(psis)])  # (2, CANDIDATE_GRID)
    worst = np.full(CANDIDATE_GRID, -np.inf)
    for ls, mk in mats:
        w = mk @ vs
        nn = np.sqrt(w[0] ** 2 + w[1] ** 2)
        worst = np.maximum(worst, ls + np.log(np.maximum(nn, 1e-300)))
    i = int(np.argmin(worst))

    def cost(psi: float) -> float:
        v = np.array([math.cos(psi), math.sin(psi)])
        c = -np.inf
        for ls, mk in mats:
            w = mk @ v
            c = max(c, ls + math.log(max(math.hypot(w[0], w[1]), 1e-300)))
        return c

    lo = psis[i] - np.pi / CANDIDATE_GRID
    hi = psis[i] + np.pi / CANDIDATE_GRID
    for _ in range(40):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if cost(m1) <= cost(m2):
            hi = m2
        else:
            lo = m1
    psi = (lo + hi) / 2
    v = (math.cos(psi), math.sin(psi))
    return v, math.exp(cost(psi))


# ---------------------------------------------------------------------------
# the max inequality and the trace dichotomy


def max_inequality(seg: SolutionSegment, q: int) -> tuple[float, str]:
    """max of ||(phi_q, phi_{q-1})||, ||(phi_{-q}, phi_{-q-1})||,
    ||(phi_{2q}, phi_{2q-1})||; verdict 'excluded' when >= 1/4 - tol."""
    if seg.k_min > -q - 1 or seg.k_max < 2 * q:
        raise RangeError(f"segment [{seg.k_min}, {seg.k_max}] does not cover "
                         f"[-{q + 1}, {2 * q}]")
    mx = max(seg.vec_norm(q), seg.vec_norm(-q), seg.vec_norm(2 * q))
    verdict = "excluded" if mx >= 0.25 - MAX_NORM_TOL else "inconclusive"
    return mx, verdict


@dataclass(frozen=True)
class TraceReport:
    q: int
    trace: float
    case: str  # "|tr|>1/2" | "|tr|<1/2" | "|tr|=1/2"
    residual_linear: float   # B - tr(B) I + B^{-1}
    residual_square: float   # B^2 - tr(B) B + I


def trace_dichotomy(pot: MeromorphicPotential, E, theta, alpha, q: int,
                    mats: GordonMatrices | None = None) -> TraceReport:
    """Trace of A_q with the two Cayley-Hamilton residuals (relative), which
    are exact identities for unit-determinant matrices."""
    if mats is None:
        mats = gordon_matrices(pot, E, theta, alpha, q)
    with mp.workprec(mats.precision):
        B = mats.A_q
        tr = B.trace()
        Binv = B.inv()
        nrm = B.norm()
        r1 = TransferMatrix2(B.a - tr + Binv.a, B.b + Binv.b,
                             B.c + Binv.c, B.d - tr + Binv.d).norm()
        B2 = B.matmul(B)
        r2 = TransferMatrix2(B2.a - tr * B.a + 1, B2.b - tr * B.b,
                             B2.c - tr * B.c, B2.d - tr * B.d + 1).norm()
        res_lin = float(r1 / max(nrm, mp.mpf(1)))
        res_sq = float(r2 / max(nrm * nrm, mp.mpf(1)))
        trf = float(tr)
    if abs(trf) > 0.5:
        case = "|tr|>1/2"
    elif abs(trf) < 0.5:
        case = "|tr|<1/2"
    else:
        case = "|tr|=1/2"
    return TraceReport(q=q, trace=trf, case=case,
                       residual_linear=res_lin, residual_square=res_sq)


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
    candidate_bound: float
    empirical_rate: float


def smallness_check(pot: MeromorphicPotential, E, theta, alpha,
                  cf: ContinuedFraction, n_i: int, epsilon: float,
                  L: float, delta_iv: IndexValue,
                  v=None, mats: GordonMatrices | None = None) -> SmallnessCheck:
    """Evaluate the smallness estimates at a qualifying level.

    The candidate initial vector defaults to the direction whose orbit stays
    most bounded over the window, matching the bounded-solution hypothesis.
    """
    if n_i not in qualifying_levels(delta_iv, epsilon):
        raise SubsequenceError(
            f"level {n_i} not in the qualifying subsequence for eps={epsilon}")
    q = cf.q[n_i]
    bound_log = q * (L - delta_iv.value + 4 * epsilon)
    if v is None:
        v, cbound = bounded_candidate(pot, E, theta, alpha, q)
    else:
        cbound = math.nan
    lhs = gordon_lhs(pot, E, theta, alpha, q, v=v, mats=mats)
    vacuous = bound_log >= 0
    lsq = lhs.square_log
    linv = lhs.inverse_log
    passed = None if vacuous else (lsq <= bound_log and linv <= bound_log)
    rate = -max(lsq, linv) / q
    return SmallnessCheck(q=q, level=n_i, lhs_square_log=lsq, lhs_inverse_log=linv,
                       bound_log=float(bound_log), vacuous=vacuous, passed=passed,
                       candidate=(float(v[0]), float(v[1])),
                       candidate_bound=float(cbound), empirical_rate=rate)


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

    def to_json_dict(self) -> dict:
        return {"E": self.E, "q": self.q, "level": self.level,
                "lhs_square_log": self.lhs_square_log,
                "lhs_inverse_log": self.lhs_inverse_log,
                "trace": self.trace, "max_norm": self.max_norm,
                "empirical_rate": self.empirical_rate, "verdict": self.verdict}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def exclusion_certificate(pot: MeromorphicPotential, E, theta, alpha,
                          cf: ContinuedFraction, levels,
                          c: float) -> list[GordonCertificate]:
    """One certificate per requested level.

    A level is excluded when, for every unit initial vector, both left-hand
    sides are <= e^{-c q} and the generated solution's three-norm maximum is
    >= 1/4 - tol; ``gordon_lhs_uniform`` gives the suprema and the minimum in
    closed form.
    """
    if not levels:
        raise InvalidInputError("levels must be nonempty")
    for n_i in levels:
        if not 1 <= n_i <= cf.depth:
            raise RangeError(f"level {n_i} exceeds stored depth {cf.depth}")
    certs = []
    for n_i in levels:
        q = cf.q[n_i]
        mats = gordon_matrices(pot, E, theta, alpha, q)
        lhs, _ = gordon_lhs_uniform(mats)
        thr_log = -c * q
        excluded = (lhs.square_log <= thr_log and lhs.inverse_log <= thr_log
                    and lhs.max_norm >= 0.25 - MAX_NORM_TOL)
        with mp.workprec(mats.precision):
            trace = float(mats.A_q.trace())
        certs.append(GordonCertificate(
            E=float(E), q=q, level=n_i, lhs_square_log=lhs.square_log,
            lhs_inverse_log=lhs.inverse_log, trace=trace, max_norm=lhs.max_norm,
            empirical_rate=-max(lhs.square_log, lhs.inverse_log) / q,
            verdict="excluded" if excluded else "inconclusive"))
    return certs
