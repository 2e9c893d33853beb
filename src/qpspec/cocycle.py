"""Transfer-matrix cocycles and Lyapunov exponent estimation.

The high-precision step is the unimodular A = [[E-V, -1], [1, 0]].
A product has determinant 1, so its inverse is its adjugate, with no
product of inverse steps.

Lyapunov exponents are estimated by default through the pole-free regular
part D = f*A with det = f^2 (the two cocycles share the exponent because
ln|f| integrates to zero); A-kind estimates exist for cross-checks with
pole windows masked out.  The float engine takes one step form for both
kinds, [[s, -f], [f, 0]] with the site arrays s = E f - g for D and
s = E - V, f = 1 for A, vectorised over phases.  Each orbit's n steps are
cut into SEGMENTS = 16 consecutive stretches of ceil(n / 16) steps (the sites
past n pad the last ones with s = 0, f = 1, an exact quarter turn), and the
stretches of all phases step side by side.  The state is four rows
(a, b, c, d) of one buffer, stepped in place (``_step_row``): with f = 1
(the A kind, and D without poles) a step writes s a - c over c and
s b - d over d and renames the rows, four numpy calls, and a D step is
eight, each entry rounded as in s*a - f*c, s*b - f*d, f*a, f*b, with no
array allocated.  Each stretch product is renormalised to
unit scale every 32 steps, with the log scale in a separate accumulator;
the 16 stretch products of a phase are then chained with one
renormalisation per link.  The single-orbit base point runs as one more
phase next to the phase grid, so one pass gives both estimates.

The site arrays are built per chunk of CHUNK = 4096 * 4 sites (rows of all
columns) from one tangent per site (``potential._phasor``), in six site
buffers allocated once per call and filled in place: each takes 128 KB,
so a chunk's arrays stay in a 2 MB L2 cache, and the row count never
changes a value.  A-kind chunks evaluate f and read |f| once, for V and
for the pole mask: the exact pole distance is taken only at the few sites
whose |f| admits the floor (``MeromorphicPotential._f_near_pole``), and
serves both the pole-hit fix of V and the mask.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .arithmetic import as_mpf
from .errors import (InvalidInputError, NumericError, OrbitPoleError,
                     PoleProximityError)
from .potential import MeromorphicPotential, orbit

__all__ = [
    "TransferMatrix2",
    "LyapunovEstimate",
    "UniformBoundReport",
    "step_A",
    "product",
    "lyapunov",
    "uniform_bound_check",
    "spectral_norm_2x2",
]

# generic single-orbit base point; irrational and unrelated to the test
# frequencies, so it dodges accidental rational resonances
DEFAULT_X0 = math.sqrt(2.0) - 1.0
RENORM_EVERY = 32
SEGMENTS = 16  # stretches of each orbit that the float engine steps side by side
# sites (rows x columns) whose arrays the float engine builds at once: each
# site array then takes 128 KB, so a chunk's arrays stay in a 2 MB L2 cache
CHUNK = 4096 * 4
# largest |s| + |f| for which RENORM_EVERY steps stay below 2^992
SAFE_SITE = 2.0 ** 31


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


# ---------------------------------------------------------------------------
# single steps


def step_A(pot: MeromorphicPotential, E, x) -> TransferMatrix2:
    """Unimodular step [[E - V(x), -1], [1, 0]]; raises on pole proximity."""
    from .potential import eval_V

    v = eval_V(pot, x)
    one = mp.mpf(1) if isinstance(v, mp.mpf) else 1.0
    return TransferMatrix2(E - v, -one, one, 0 * one)


# ---------------------------------------------------------------------------
# ordered products


def product(pot: MeromorphicPotential, E, x, alpha, n: int) -> TransferMatrix2:
    """Ordered cocycle product A_n(x) = A(x+(n-1)a) ... A(x); for n < 0 the
    shifted-window identity A_{-m}(x) = A_m(x - m a) is applied."""
    if n < 0:
        return product(pot, E, x + n * as_mpf(alpha), alpha, -n)
    acc = TransferMatrix2.identity()
    xv = as_mpf(x)
    av = as_mpf(alpha)
    for j in range(n):
        try:
            s = step_A(pot, E, xv + j * av)
        except PoleProximityError as exc:
            raise OrbitPoleError(f"pole within floor at orbit step {j}",
                                 dist=exc.dist, step=j) from exc
        acc = s.matmul(acc)
    return acc


# ---------------------------------------------------------------------------
# Lyapunov engine (float64, vectorised over phases)


def _rescale(M: np.ndarray) -> np.ndarray:
    """Divide the stacked entries M = (a, b, c, d) (a (4, ...) array) in
    place by their largest magnitude (1 where all vanish); returns the log
    of the divisor."""
    m = np.abs(M).max(axis=0)
    m[m == 0] = 1.0
    M /= m
    return np.log(m)


def _step_row(M: tuple, s: np.ndarray, f: np.ndarray | None,
              tmp: tuple) -> tuple:
    """One row of steps [[s, -f], [f, 0]] on the state M = (a, b, c, d),
    four rows of one buffer, in place; ``f`` None means f = 1 (the A-kind
    step) and ``tmp`` holds two scratch rows.  Returns the new (a, b, c, d),
    the same four rows reordered.  Every entry gets the roundings of
    s*a - f*c, s*b - f*d, f*a, f*b; multiplying by f = 1 is exact, so an
    A-kind row writes s a - c over c and s b - d over d and renames the
    rows, four calls for eight.  No operand is broadcast: with numpy 2.4 on
    a 2-vCPU Xeon, a call that broadcasts a row over two stacked rows took
    about 1 us more than one on equal shapes, more than halving the calls
    saves, and a D step on stacked (a, b), (c, d) rows ran slower than
    eight allocating calls."""
    a, b, c, d = M
    t, u = tmp
    if f is None:
        np.subtract(np.multiply(s, a, out=t), c, out=c)
        np.subtract(np.multiply(s, b, out=t), d, out=d)
        return c, d, a, b
    np.multiply(f, c, out=t)
    np.multiply(f, d, out=u)
    np.multiply(f, a, out=c)
    np.multiply(f, b, out=d)
    np.subtract(np.multiply(s, a, out=a), t, out=a)
    np.subtract(np.multiply(s, b, out=b), u, out=b)
    return a, b, c, d


def _quiet(on: bool):
    """Silence overflow and the invalid values it leads to when ``on``."""
    return np.errstate(over="ignore", invalid="ignore") if on else contextlib.nullcontext()


def _ln_norms(pot: MeromorphicPotential, E: float, alpha: float,
              xs: np.ndarray, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(1/n) ln||M_n(x)|| for each phase in xs, plus an excluded mask for
    A-kind phases whose orbit enters the pole floor; excluded phases read nan.

    Both kinds take the step [[s, -f], [f, 0]]: D has s = E f - g, and A is
    the same step with f = 1, s = E - V (as is D without poles, f = 1).
    Each orbit's n steps run as SEGMENTS stretches of ceil(n / SEGMENTS)
    steps, all stretches of all phases side by side; the sites past n step
    with s = 0, f = 1, an exact quarter turn.  The stretch products are then
    chained per phase.  The layout depends on n only: the rows built per
    chunk change the speed, never the values.  The site arrays of a chunk
    are filled in buffers allocated once per call.
    """
    K = xs.shape[0]
    stretch = -(-n // SEGMENTS)  # steps per stretch
    cols = SEGMENTS * K
    rows = max(1, CHUNK // cols)
    # the state (a, b, c, d) as four rows of one buffer, stepped in place
    state = np.zeros((4, cols))
    state[0] = state[3] = 1.0
    M = tuple(state)
    tmp = tuple(np.empty((2, cols)))
    logs = np.zeros(cols)
    excluded = np.zeros(K, dtype=bool)
    unit_f = kind == "A" or not pot.m  # the step's f is 1
    f_peak = 1.0 if unit_f else 2.0 ** pot.m  # |f| <= 2^m
    huge_E = not abs(E) < SAFE_SITE  # E f may overflow in the site arrays
    # the phases and the five site buffers of _V_and_near / _f_and_g, as
    # separate arrays: each stays on the heap, and those that a potential
    # never writes take no memory
    X_buf, *work_buf = (np.empty((rows, SEGMENTS, K)) for _ in range(6))
    for start in range(0, stretch, rows):
        # step j of stretch i is orbit step i * stretch + j
        steps = np.add.outer(np.arange(start, min(start + rows, stretch)),
                             stretch * np.arange(SEGMENTS))
        r = steps.shape[0]
        work = [w[:r] for w in work_buf]
        X = orbit(xs, alpha, steps, out=X_buf[:r], scratch=work[1])
        with _quiet(huge_E):
            if kind == "A":
                V, near = pot._V_and_near(X, work)
                S = np.subtract(E, V, out=work[2])
            else:
                F, G = pot._f_and_g(X, work)
                if F is None:
                    S = np.subtract(E, G, out=work[2])
                else:
                    S = np.subtract(np.multiply(F, E, out=work[1]), G, out=work[2])
        if kind == "A" and pot.m:
            # the exact pole distance, taken by _V_and_near only where |f|
            # admits the floor; only sites before n (not the padding) count
            idx, dist = near
            if idx.size:
                i, j, k = np.unravel_index(idx, X.shape)
                excluded[k[(dist <= pot.eps_floor) & (steps[i, j] < n)]] = True
            # V at a pole reaches 2e300 and would overflow the column to
            # inf/nan (with numpy warnings); a masked column's value is
            # discarded, so it steps with s = 0 instead
            if excluded.any():
                S[:, :, excluded] = 0.0
        pad = (steps >= n)[:, :, None]
        if pad.any():
            np.copyto(S, 0.0, where=pad)
            if not unit_f:
                np.copyto(F, 1.0, where=pad)
        # a step multiplies the largest entry by at most |s| + |f|, so with
        # sites below SAFE_SITE no RENORM_EVERY steps can overflow; larger
        # sites (a huge E or coupling) step with overflow silenced, and the
        # non-finite result raises below
        F_rows = itertools.repeat(None) if unit_f else F.reshape(-1, cols)
        with _quiet(not max(S.max(), -S.min()) + f_peak <= SAFE_SITE):
            for step, (s, f) in enumerate(zip(S.reshape(-1, cols), F_rows),
                                          start + 1):
                M = _step_row(M, s, f, tmp)
                if step % RENORM_EVERY == 0:
                    logs += _rescale(state)
    # chain the stretch products of each phase, the first one rightmost
    # (elementwise throughout, so a phase's value does not depend on K)
    a, b, c, d, seg_logs = (v.reshape(SEGMENTS, K) for v in (*M, logs))
    P, logs = np.array([a[0], b[0], c[0], d[0]]), seg_logs[0]
    for i in range(1, SEGMENTS):
        pa, pb, pc, pd = P
        P = np.array([a[i] * pa + b[i] * pc, a[i] * pb + b[i] * pd,
                      c[i] * pa + d[i] * pc, c[i] * pb + d[i] * pd])
        logs = logs + seg_logs[i] + _rescale(P)
    pa, pb, pc, pd = P
    fro2 = pa * pa + pb * pb + pc * pc + pd * pd
    det = pa * pd - pb * pc
    disc = np.maximum(fro2 * fro2 - 4 * det * det, 0.0)
    sn = np.sqrt((fro2 + np.sqrt(disc)) / 2)
    with np.errstate(divide="ignore"):
        out = (logs + np.log(sn)) / n
    out[excluded] = np.nan
    if not np.all(np.isfinite(out[~excluded])):
        raise NumericError(
            f"non-finite product norm in the Lyapunov engine at E = {E!r}")
    return out, excluded


def phase_grid(K: int) -> np.ndarray:
    """Equidistributed grid (k + 1/2)/K on the torus."""
    return (np.arange(K) + 0.5) / K


def lyapunov(pot: MeromorphicPotential, E: float, alpha, n: int,
             grid: int = 64, kind: str = "D") -> LyapunovEstimate:
    """Lyapunov exponent estimate at length n.

    The value is the phase average: the mean over an equidistributed phase
    grid of (1/n) ln||M_n(x)||.  The same at the generic base point
    DEFAULT_X0 (single orbit) runs in the same pass, and the gap between the
    two is reported as the discrepancy.  A-kind runs drop grid phases whose
    orbit enters the pole floor.
    """
    return _estimate(pot, E, alpha, n, grid, kind)[0]


def _estimate(pot: MeromorphicPotential, E: float, alpha, n: int, grid: int,
              kind: str, extra=()) -> tuple[LyapunovEstimate, np.ndarray]:
    """``lyapunov``'s estimate, with (1/n) ln||M_n(x)|| at the phases
    ``extra`` taken from the same engine pass (columns never mix, so those
    values equal a call of their own bit for bit)."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if grid < 1:
        raise InvalidInputError("grid must be >= 1")
    if kind not in ("A", "D"):
        raise InvalidInputError(f"unknown step kind {kind!r}")
    # one engine pass: the grid phases, the single-orbit base point, extra
    xs = np.concatenate([phase_grid(grid), [DEFAULT_X0], extra])
    vals, excl = _ln_norms(pot, float(E), float(as_mpf(alpha)), xs, n, kind)
    keep = ~excl[:grid]
    used = int(np.sum(keep))
    if used == 0:
        raise NumericError("all grid phases excluded by pole windows")
    if excl[grid]:
        raise NumericError("single-orbit base point hits a pole window")
    pa = float(np.mean(vals[:grid][keep]))
    so = float(vals[grid])
    est = LyapunovEstimate(value=pa, n=n, method="phase-average",
                           phases_used=used, discrepancy=abs(pa - so), kind=kind)
    return est, vals[grid + 1:]


# ---------------------------------------------------------------------------
# uniform upper bounds (upper semicontinuity check)


@dataclass(frozen=True)
class UniformBoundReport:
    """Per-phase margins ln||D_n(x)||/n - (L + eps); all should be <= ln(C)/n."""

    n: int
    epsilon: float
    L: float
    matrix_margins: tuple[float, ...]

    def max_constant(self) -> float:
        """Smallest C with ||D_n(x)|| <= C e^{n(L+eps)} over the samples."""
        return math.exp(self.n * max(self.matrix_margins))


def uniform_bound_check(pot: MeromorphicPotential, E: float, alpha, n: int,
                        epsilon: float, sample_x) -> UniformBoundReport:
    """Check ||D_n(x)|| <= C e^{n(L+eps)} at sampled phases.

    L is the phase-averaged estimate at the same n, from the same engine
    pass as the sampled phases.
    """
    xs = np.asarray([float(as_mpf(x)) % 1.0 for x in sample_x], dtype=float)
    est, vals = _estimate(pot, E, alpha, n, 64, "D", xs)
    L = est.value
    margins = tuple(float(v - (L + epsilon)) for v in vals)
    return UniformBoundReport(n=n, epsilon=epsilon, L=float(L),
                              matrix_margins=margins)
