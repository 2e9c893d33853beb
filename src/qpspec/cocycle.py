"""Transfer-matrix cocycles and Lyapunov exponent estimation.

The high-precision step is the unimodular A = [[E-V, -1], [1, 0]].
A product has determinant 1, so its inverse is its adjugate, with no
product of inverse steps.

Lyapunov exponents are estimated by default through the pole-free regular
part D = f*A with det = f^2 (the two cocycles share the exponent because
ln|f| integrates to zero); A-kind estimates exist for cross-checks with
pole windows masked out.  The float engine takes one step form for both
kinds, [[s, -f], [f, 0]] with the site arrays s = E f - g for D and
s = E - V, f = 1 for A, vectorised over phases and energies.  Each orbit's
n steps are cut into SEGMENTS = 16 consecutive stretches of ceil(n / 16)
steps (the sites past n pad the last ones with s = 0, f = 1, an exact
quarter turn), and the stretches of all phases step side by side.  The
state is four rows (a, b, c, d) of one buffer, stepped in place by one
loop per chunk (``_step_chunk``), with no Python call per row: with f = 1
(the A kind, and D without poles) a step writes s a - c over c and
s b - d over d and swaps the row names, four numpy calls, and a D step is
eight, each entry rounded as in s*a - f*c, s*b - f*d, f*a, f*b.  Each
stretch product is renormalised every 32 steps, with the log scale in a
separate accumulator; the 16 stretch products of a phase are then chained
with one renormalisation per link.  The single-orbit base point runs as
one more phase, so one pass gives both estimates.

The site arrays are built per chunk of about CHUNK = 4096 * 4 sites (rows
of the 16 K columns of one energy), in site buffers allocated once per
call, so a chunk's arrays stay in a 2 MB L2 cache.  A chunk is whole 8-row
phasor blocks or a piece of one (``_chunk_rows``), so six numpy calls give
its phasors (cos pi x, sin pi x), by rotation from exact turns, with no
float phase and no tangent (``potential._OrbitPhasors``): within 1.6e-15 of
those at the exact phases theta + j alpha, they depend on step, phase and
n only, so the row count never changes a value.  The chunk loop runs under
one ``np.errstate``: an overflow (a huge E or coupling) only gives the
non-finite norm that the caller reports.  The tangent model's pole factor
is one multiply.  A-kind chunks read |f| once, for V and for the pole
mask: the pole distance is taken only where |f| admits the floor
(``MeromorphicPotential._f_near_pole``), at the exact phase rounded once.
``spectral.lyapunov_scan`` runs up to BATCH = 16 energies per pass: they
share a chunk's phasors, f, g (or V) and pole mask, only S has an energy
axis, and F is copied out per energy so that no step call broadcasts.
Columns never mix, so an energy's values are bit for bit those of a pass
of its own (``lyapunov``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .arithmetic import as_mpf
from .errors import (InvalidInputError, NumericError, OrbitPoleError,
                     PoleProximityError)
from .potential import PHASOR_ROWS, MeromorphicPotential, _OrbitPhasors

__all__ = [
    "TransferMatrix2",
    "LyapunovEstimate",
    "step_A",
    "product",
    "lyapunov",
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
# energies per engine pass in spectral.lyapunov_scan (16 beat 8 and 41)
BATCH = 16

_mul, _sub = np.multiply, np.subtract


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

    return TransferMatrix2(E - eval_V(pot, x), mp.mpf(-1), mp.mpf(1), mp.mpf(0))


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
# Lyapunov engine (float64, vectorised over phases and energies)


def _rescale(M: np.ndarray) -> np.ndarray:
    """Divide the stacked entries M = (a, b, c, d) (a (4, ...) array) in
    place by their largest magnitude (1 where all vanish); returns the log
    of the divisor."""
    m = np.abs(M).max(axis=0)
    m[m == 0] = 1.0
    M /= m
    return np.log(m)


def _step_chunk(state: np.ndarray, M: tuple, S: np.ndarray,
                F: np.ndarray | None, tmp: tuple, first: int,
                logs: np.ndarray) -> tuple:
    """Step the state M = (a, b, c, d), rows of ``state``, in place through
    the site rows of S and F (None: f = 1), row j being step ``first + j``;
    every RENORM_EVERY-th step renormalises into ``logs``.  Returns the rows
    in their new order.  No operand is broadcast: with numpy 2.4 on a 2-vCPU
    Xeon, a call that broadcasts a row over two stacked rows took about 1 us
    more than one on equal shapes, more than halving the calls saves, and a
    D step on stacked (a, b), (c, d) rows ran slower than eight allocating
    calls."""
    a, b, c, d = M
    t, u = tmp
    r = S.shape[0]
    lo = 0
    while lo < r:
        # the rows up to the next renormalisation or the end of the chunk
        hi = min(r, lo + RENORM_EVERY - (first + lo) % RENORM_EVERY)
        if F is None:
            for s in S[lo:hi]:
                _sub(_mul(s, a, t), c, c)
                _sub(_mul(s, b, t), d, d)
                a, c = c, a
                b, d = d, b
        else:
            for s, f in zip(S[lo:hi], F[lo:hi]):
                _mul(f, c, t)
                _mul(f, d, u)
                _mul(f, a, c)
                _mul(f, b, d)
                _sub(_mul(s, a, a), t, a)
                _sub(_mul(s, b, b), u, b)
        if (first + hi) % RENORM_EVERY == 0:
            logs += _rescale(state)
        lo = hi
    return a, b, c, d


def _chunk_rows(width: int) -> int:
    """Rows per chunk for rows of ``width`` sites: whole phasor blocks, the
    multiple of PHASOR_ROWS nearest CHUNK / width, or below PHASOR_ROWS a
    piece of one block, the largest of 4, 2 and 1 rows that fits."""
    x = CHUNK / width
    if x >= PHASOR_ROWS:
        return PHASOR_ROWS * round(x / PHASOR_ROWS)
    return next((k for k in (4, 2) if k <= x), 1)


def _ln_norms(pot: MeromorphicPotential, E: np.ndarray, alpha: float,
              xs: np.ndarray, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(1/n) ln||M_n(x)|| at each energy of the 1-D array E (rows) and each
    phase in xs (columns), plus an excluded mask for A-kind phases whose
    orbit enters the pole floor; excluded phases read nan, and an energy
    whose product overflows reads inf or nan.  Neither the other energies
    nor the rows built per chunk change a value (module docstring)."""
    nE, K = E.shape[0], xs.shape[0]
    stretch = -(-n // SEGMENTS)  # steps per stretch
    cols = nE * SEGMENTS * K
    rows = _chunk_rows(SEGMENTS * K)
    # the state (a, b, c, d) as four rows of one buffer, stepped in place
    state = np.zeros((4, cols))
    state[0] = state[3] = 1.0
    M = tuple(state)
    tmp = tuple(np.empty((2, cols)))
    logs = np.zeros(cols)
    excluded = np.zeros(K, dtype=bool)
    unit_f = kind == "A" or not pot.m  # the step's f is 1
    # step j of stretch i is orbit step i * stretch + j
    walk = _OrbitPhasors(xs, alpha, stretch * np.arange(SEGMENTS))
    # the five site buffers of _V_and_near / _f_and_g, as separate arrays:
    # those that a potential never writes take no memory
    work_buf = [np.empty((rows, SEGMENTS, K)) for _ in range(5)]
    # one energy's S overwrites V or g; a batch has its own S and F copy
    if nE == 1:
        S_buf, F_buf = work_buf[2][:, None], None
    else:
        S_buf = np.empty((rows, nE, SEGMENTS, K))
        F_buf = None if unit_f else np.empty((rows, nE, SEGMENTS, K))
    work, S, r = work_buf, S_buf, rows
    # an overflow only gives the non-finite norm that the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, stretch, rows):
            # whole blocks or a piece of one, as start is a multiple of rows
            walk.fill(start, work_buf[1:3], work_buf[0])
            if start + rows > stretch:  # the last chunk: r rows are steps
                r = stretch - start
                work, S = [w[:r] for w in work_buf], S_buf[:r]
            if kind == "A":
                V, near = pot._V_and_near(work, lambda idx: walk.phases(start, idx))
                for e, En in enumerate(E):
                    _sub(En, V, S[:, e])
            else:
                F, G = pot._f_and_g(work)
                for e, En in enumerate(E):
                    if F is None:
                        _sub(En, G, S[:, e])
                    else:
                        _sub(_mul(F, En, work[1]), G, S[:, e])
            if kind == "A" and pot.m:
                # the exact pole distance, taken by _V_and_near only where |f|
                # admits the floor; only sites before n (not the padding) count
                idx, dist = near
                if idx.size:
                    i, j, k = np.unravel_index(idx, (r, SEGMENTS, K))
                    before_n = start + i + stretch * j < n
                    excluded[k[(dist <= pot.eps_floor) & before_n]] = True
                # V at a pole reaches 2e300 and would overflow the column;
                # a masked column's value is discarded, so it steps s = 0
                if excluded.any():
                    S[..., excluded] = 0.0
            if start + r - 1 + (SEGMENTS - 1) * stretch >= n:
                # padding: steps n and on of the last stretches
                steps = np.add.outer(np.arange(start, start + r),
                                     stretch * np.arange(SEGMENTS))
                pad = (steps >= n)[:, :, None]
                np.copyto(S, 0.0, where=pad[:, None])
                if not unit_f:
                    np.copyto(F, 1.0, where=pad)
            F_rows = None
            if not unit_f:
                if F_buf is not None:
                    np.copyto(F_buf[:r], F[:, None])
                    F = F_buf[:r]
                F_rows = F.reshape(r, cols)
            M = _step_chunk(state, M, S.reshape(r, cols), F_rows, tmp, start, logs)
    # chain the stretch products of each phase, the first one rightmost
    # (elementwise, so a value depends on neither K nor nE); a product that
    # overflowed overflows here too, and the caller reports it
    a, b, c, d, seg_logs = (v.reshape(nE, SEGMENTS, K) for v in (*M, logs))
    P, logs = np.array([a[:, 0], b[:, 0], c[:, 0], d[:, 0]]), seg_logs[:, 0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(1, SEGMENTS):
            pa, pb, pc, pd = P
            P = np.array([a[:, i] * pa + b[:, i] * pc, a[:, i] * pb + b[:, i] * pd,
                          c[:, i] * pa + d[:, i] * pc, c[:, i] * pb + d[:, i] * pd])
            logs = logs + seg_logs[:, i] + _rescale(P)
        pa, pb, pc, pd = P
        fro2 = pa * pa + pb * pb + pc * pc + pd * pd
        det = pa * pd - pb * pc
        disc = np.maximum(fro2 * fro2 - 4 * det * det, 0.0)
        sn = np.sqrt((fro2 + np.sqrt(disc)) / 2)
        out = (logs + np.log(sn)) / n
    out[:, excluded] = np.nan
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
    return _or_raise(_estimates(pot, [E], alpha, n, grid, kind)[0])


def _or_raise(est):
    """An estimate of ``_estimates``, or raise the error in its place."""
    if isinstance(est, NumericError):
        raise est
    return est


def _estimates(pot: MeromorphicPotential, energies, alpha, n: int, grid: int,
               kind: str) -> list:
    """``lyapunov``'s estimate at each energy from one engine pass, or that
    energy's NumericError in its place."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if grid < 1:
        raise InvalidInputError("grid must be >= 1")
    if kind not in ("A", "D"):
        raise InvalidInputError(f"unknown step kind {kind!r}")
    alpha = float(as_mpf(alpha))
    if not math.isfinite(alpha):
        raise InvalidInputError(f"alpha must be finite, got {alpha!r}")
    Es = [float(E) for E in energies]
    # one engine pass: the grid phases and the single-orbit base point
    xs = np.append(phase_grid(grid), DEFAULT_X0)
    rows, excl = _ln_norms(pot, np.array(Es), alpha, xs, n, kind)
    keep = ~excl[:grid]
    used = int(np.sum(keep))
    ests = []
    for E, vals in zip(Es, rows):
        if not np.all(np.isfinite(vals[~excl])):
            ests.append(NumericError(
                f"non-finite product norm in the Lyapunov engine at E = {E!r}"))
        elif used == 0:
            ests.append(NumericError("all grid phases excluded by pole windows"))
        elif excl[grid]:
            ests.append(NumericError("single-orbit base point hits a pole window"))
        else:
            pa = float(np.mean(vals[:grid][keep]))
            so = float(vals[grid])
            ests.append(LyapunovEstimate(value=pa, n=n, method="phase-average",
                                         phases_used=used,
                                         discrepancy=abs(pa - so), kind=kind))
    return ests
