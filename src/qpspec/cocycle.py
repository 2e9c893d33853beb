"""Transfer-matrix cocycles and Lyapunov exponent estimation.

Single steps come in two flavours: the unimodular step A = [[E-V, -1],
[1, 0]] and its pole-free regular part D = f*A with det = f^2.  Inverse
products come from the site values through ``inverse_from_sites``.

Lyapunov exponents are always estimated through the regular part (the two
cocycles share the exponent because ln|f| integrates to zero); A-kind
estimates exist for cross-checks with pole windows masked out.  The float
engine takes one step form for both kinds, [[s, -f], [f, 0]] with the site
arrays s = E f - g for D and s = E - V, f = 1 for A, vectorised over phases.
It renormalises the running product to unit scale every 32 steps and keeps
the log scale in a separate accumulator.  The single-orbit base point runs
as one more phase next to the phase grid, so one pass gives both estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .arithmetic import as_mpf
from .errors import InvalidInputError, NumericError, OrbitPoleError
from .potential import MeromorphicPotential, orbit, site_values

__all__ = [
    "TransferMatrix2",
    "LyapunovEstimate",
    "UniformBoundReport",
    "step_A",
    "step_D",
    "product",
    "product_inverse",
    "product_from_sites",
    "inverse_from_sites",
    "lyapunov",
    "uniform_bound_check",
    "spectral_norm_2x2",
    "DEFAULT_X0",
    "RENORM_EVERY",
]

# generic single-orbit base point; irrational and unrelated to the test
# frequencies, so it dodges accidental rational resonances
DEFAULT_X0 = math.sqrt(2.0) - 1.0
RENORM_EVERY = 32
CHUNK = 4096  # orbit steps whose site arrays the float engine builds at once


def _sqrt(x):
    return mp.sqrt(x) if isinstance(x, mp.mpf) else math.sqrt(x)


def spectral_norm_2x2(a, b, c, d):
    """Operator 2-norm of [[a, b], [c, d]] from the closed singular-value form."""
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = fro2 * fro2 - 4 * det * det
    if disc < 0:
        disc = 0 * disc
    return _sqrt((fro2 + _sqrt(disc)) / 2)


@dataclass(frozen=True)
class TransferMatrix2:
    """2x2 real matrix [[a, b], [c, d]]."""

    a: object
    b: object
    c: object
    d: object

    def matmul(self, o: "TransferMatrix2") -> "TransferMatrix2":
        return TransferMatrix2(
            self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def apply(self, v):
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def norm(self):
        return spectral_norm_2x2(self.a, self.b, self.c, self.d)

    def inv(self) -> "TransferMatrix2":
        det = self.det()
        if det == 0:
            raise NumericError("singular transfer matrix")
        return TransferMatrix2(self.d / det, -self.b / det,
                               -self.c / det, self.a / det)

    def scaled(self, s) -> "TransferMatrix2":
        return TransferMatrix2(self.a * s, self.b * s, self.c * s, self.d * s)

    @staticmethod
    def identity() -> "TransferMatrix2":
        return TransferMatrix2(1, 0, 0, 1)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Per-step log growth with the cross-estimator discrepancy recorded."""

    value: float
    n: int
    method: str
    phases_used: int
    discrepancy: float
    kind: str = "D"
    energy: float | None = None

    def to_json_dict(self) -> dict:
        return {"E": self.energy, "value": self.value, "n": self.n,
                "method": self.method, "phases_used": self.phases_used,
                "discrepancy": self.discrepancy, "kind": self.kind}


# ---------------------------------------------------------------------------
# single steps


def step_A(pot: MeromorphicPotential, E, x) -> TransferMatrix2:
    """Unimodular step [[E - V(x), -1], [1, 0]]; raises on pole proximity."""
    from .potential import eval_V

    v = eval_V(pot, x)
    one = mp.mpf(1) if isinstance(v, mp.mpf) else 1.0
    return TransferMatrix2(E - v, -one, one, 0 * one)


def step_D(pot: MeromorphicPotential, E, x) -> TransferMatrix2:
    """Regular part [[E f - g, -f], [f, 0]]; finite everywhere, det = f^2."""
    xv = as_mpf(x)
    fv = pot.f(xv)
    gv = pot.g(xv)
    return TransferMatrix2(E * fv - gv, -fv, fv, 0 * fv)


# ---------------------------------------------------------------------------
# ordered products


_STEPS = {"A": step_A, "D": step_D}


def product(pot: MeromorphicPotential, E, x, alpha, n: int,
            kind: str = "A") -> TransferMatrix2:
    """Ordered cocycle product M_n(x) = M(x+(n-1)a) ... M(x); for n < 0 the
    shifted-window identity M_{-m}(x) = M_m(x - m a) is applied."""
    if kind not in _STEPS:
        raise InvalidInputError(f"unknown step kind {kind!r}")
    if n < 0:
        return product(pot, E, x + n * as_mpf(alpha), alpha, -n, kind)
    step = _STEPS[kind]
    acc = TransferMatrix2.identity()
    xv = as_mpf(x)
    av = as_mpf(alpha)
    for j in range(n):
        try:
            s = step(pot, E, xv + j * av)
        except Exception as exc:
            from .errors import PoleProximityError

            if isinstance(exc, PoleProximityError):
                raise OrbitPoleError(
                    f"pole within floor at orbit step {j}", dist=exc.dist,
                    step=j) from exc
            raise
        acc = s.matmul(acc)
    return acc


def product_inverse(pot: MeromorphicPotential, E, x, alpha, n: int) -> TransferMatrix2:
    """(A_n(x))^{-1} = A(x)^{-1} A(x+a)^{-1} ... A(x+(n-1)a)^{-1}."""
    if n < 0:
        raise InvalidInputError("product_inverse expects n >= 0")
    return inverse_from_sites(site_values(pot, E, x, alpha, 0, n))


def product_from_sites(S, acc: TransferMatrix2 | None = None) -> TransferMatrix2:
    """A(s_{n-1}) ... A(s_0) acc for site values s_j = E - V(x_j).

    A(s) = [[s, -1], [1, 0]], so each step is two multiplies:
    (a, b, c, d) <- (s a - c, s b - d, a, b).  ``acc`` defaults to the identity.
    """
    if acc is None:
        a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
    else:
        a, b, c, d = acc.a, acc.b, acc.c, acc.d
    for s in S:
        a, b, c, d = s * a - c, s * b - d, a, b
    return TransferMatrix2(a, b, c, d)


def inverse_from_sites(S) -> TransferMatrix2:
    """A(s_0)^{-1} A(s_1)^{-1} ... A(s_{n-1})^{-1} for site values s_j.

    A(s)^{-1} = [[0, 1], [-1, s]] multiplies on the right, two multiplies per
    step: (a, b, c, d) <- (-b, a + b s, -d, c + d s).
    """
    a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
    for s in S:
        a, b, c, d = -b, a + b * s, -d, c + d * s
    return TransferMatrix2(a, b, c, d)


# ---------------------------------------------------------------------------
# Lyapunov engine (float64, vectorised over phases)


def _ln_norms(pot: MeromorphicPotential, E: float, alpha: float,
              xs: np.ndarray, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(1/n) ln||M_n(x)|| for each phase in xs, plus an excluded mask for
    A-kind phases whose orbit enters the pole floor.

    Both kinds take the step [[s, -f], [f, 0]]: D has s = E f - g, and A is
    the same step with f = 1, s = E - V (multiplying by 1.0 is exact).
    """
    K = xs.shape[0]
    a = np.ones(K)
    b = np.zeros(K)
    c = np.zeros(K)
    d = np.ones(K)
    logs = np.zeros(K)
    excluded = np.zeros(K, dtype=bool)
    for start in range(0, n, CHUNK):
        X = orbit(xs, alpha, start, min(start + CHUNK, n))
        if kind == "A":
            F = np.broadcast_to(1.0, X.shape)
            S = E - pot.V_array(X)
            if pot.m:
                excluded |= np.any(pot.pole_distance(X) <= pot.eps_floor, axis=0)
                # V at a pole reaches 2e300 and would overflow the column to
                # inf/nan (with numpy warnings); a masked column's value is
                # discarded, so it steps with s = 0 instead
                S[:, excluded] = 0.0
        else:
            F = pot.f(X) if pot.m else np.broadcast_to(1.0, X.shape)
            S = E * F - np.asarray(pot.g(X), dtype=float)
        for step, (s, f) in enumerate(zip(S, F), start + 1):
            a, b, c, d = s * a - f * c, s * b - f * d, f * a, f * b
            if step % RENORM_EVERY == 0:
                m = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                               np.maximum(np.abs(c), np.abs(d)))
                m = np.where(m == 0, 1.0, m)
                logs += np.log(m)
                a, b, c, d = a / m, b / m, c / m, d / m
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum(fro2 * fro2 - 4 * det * det, 0.0)
    sn = np.sqrt((fro2 + np.sqrt(disc)) / 2)
    with np.errstate(divide="ignore"):
        out = (logs + np.log(sn)) / n
    if not np.all(np.isfinite(out[~excluded])):
        raise NumericError("non-finite product norm in the Lyapunov engine")
    return out, excluded


def phase_grid(K: int) -> np.ndarray:
    """Equidistributed grid (k + 1/2)/K on the torus."""
    return (np.arange(K) + 0.5) / K


def lyapunov(pot: MeromorphicPotential, E: float, alpha, n: int,
             method: str = "phase-average", grid: int = 64,
             kind: str = "D", x0: float = DEFAULT_X0) -> LyapunovEstimate:
    """Lyapunov exponent estimate at length n.

    phase-average: mean over an equidistributed phase grid of
    (1/n) ln||M_n(x)||; single-orbit: the same at one generic base point.
    Both are always computed and their gap is reported as the discrepancy.
    A-kind runs drop grid phases whose orbit enters the pole floor.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if method not in ("phase-average", "single-orbit"):
        raise InvalidInputError(f"unknown method {method!r}")
    if grid < 1:
        raise InvalidInputError("grid must be >= 1")
    if kind not in ("A", "D"):
        raise InvalidInputError(f"unknown step kind {kind!r}")
    # one engine pass: the grid phases, then the single-orbit base point
    xs = np.append(phase_grid(grid), x0 % 1.0)
    vals, excl = _ln_norms(pot, float(E), float(as_mpf(alpha)), xs, n, kind)
    keep = ~excl[:grid]
    used = int(np.sum(keep))
    if used == 0:
        raise NumericError("all grid phases excluded by pole windows")
    if excl[grid]:
        raise NumericError("single-orbit base point hits a pole window")
    pa = float(np.mean(vals[:grid][keep]))
    so = float(vals[grid])
    disc = abs(pa - so)
    value = pa if method == "phase-average" else so
    phases = used if method == "phase-average" else 1
    return LyapunovEstimate(value=value, n=n, method=method, phases_used=phases,
                            discrepancy=disc, kind=kind, energy=float(E))


# ---------------------------------------------------------------------------
# uniform upper bounds (upper semicontinuity check)


@dataclass(frozen=True)
class UniformBoundReport:
    """Per-phase margins ln||D_n(x)||/n - (L + eps); all should be <= ln(C)/n.

    ``scalar_margins`` carries the one-dimensional analogue
    (1/n) ln|prod h(x + l alpha)| - (mean ln|h| + eps) when a scalar factor
    h was supplied.
    """

    n: int
    epsilon: float
    L: float
    matrix_margins: tuple[float, ...]
    scalar_margins: tuple[float, ...] = ()

    def max_constant(self) -> float:
        """Smallest C with ||D_n(x)|| <= C e^{n(L+eps)} over the samples."""
        return math.exp(self.n * max(self.matrix_margins))


def uniform_bound_check(pot: MeromorphicPotential, E: float, alpha, n: int,
                        epsilon: float, sample_x,
                        L: float | None = None,
                        scalar_func=None,
                        scalar_log_mean: float | None = None) -> UniformBoundReport:
    """Check ||D_n(x)|| <= C e^{n(L+eps)} at sampled phases.

    L defaults to a phase-averaged estimate at the same n.  A scalar factor
    (callable on numpy arrays) with its torus mean of ln|h| can be supplied
    for the one-dimensional version of the bound.
    """
    alpha_f = float(as_mpf(alpha))
    xs = np.asarray([float(as_mpf(x)) % 1.0 for x in sample_x], dtype=float)
    if L is None:
        L = lyapunov(pot, E, alpha, n, method="phase-average").value
    vals, excl = _ln_norms(pot, float(E), alpha_f, xs, n, "D")
    margins = tuple(float(v - (L + epsilon)) for v in vals)
    scalar_margins: tuple[float, ...] = ()
    if scalar_func is not None:
        if scalar_log_mean is None:
            raise InvalidInputError("scalar factor needs its mean of ln|h|")
        sm = []
        for x in xs:
            hv = np.abs(np.asarray(scalar_func(orbit(x, alpha_f, 0, n)), dtype=float))
            hv = hv[hv > 0]
            sm.append(float(np.sum(np.log(hv)) / n - (scalar_log_mean + epsilon)))
        scalar_margins = tuple(sm)
    return UniformBoundReport(n=n, epsilon=epsilon, L=float(L),
                              matrix_margins=margins,
                              scalar_margins=scalar_margins)
