"""Finite truncations, energy scans, and the low-exponent regime labelling.

Truncated spectra of the symmetric tridiagonal restriction (diagonal V along
the orbit, off-diagonal 1) come from LAPACK ``dsterf``, the root-free QR
eigenvalue solver, found through ctypes in the ILP64 OpenBLAS bundled with
numpy's wheels; a numpy built against another LAPACK falls back to the dense
``numpy.linalg.eigvalsh``.  ``sturm_count`` stays as the independent counting
oracle.  The classifier brackets both the Lyapunov estimate and the arithmetic
index and only ever emits candidate labels.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .arithmetic import IndexValue, as_mpf, float_phase
from .cocycle import BATCH, LyapunovEstimate, _estimates
from .errors import InvalidInputError, NumericError
from .potential import MeromorphicPotential, orbit

__all__ = [
    "RegimeClassification",
    "truncated_spectrum",
    "sturm_count",
    "classify_regime",
    "lyapunov_scan",
]

V_CAP = 1e12


def _orbit_diagonal(pot: MeromorphicPotential, theta, alpha,
                    N: int) -> tuple[np.ndarray, list[int]]:
    V = pot.V_array(orbit(float_phase(theta), float(as_mpf(alpha)), 0, N))
    flagged = [int(i) for i in np.nonzero(np.abs(V) > V_CAP)[0]]
    V = np.clip(V, -V_CAP, V_CAP)
    if not np.all(np.isfinite(V)):
        raise NumericError("non-finite potential value in truncation window")
    return V, flagged


def sturm_count(diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the unit-offdiagonal tridiagonal below each x,
    by the signed LDL^T pivot sweep (vectorised over probe points)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    count = np.zeros_like(x, dtype=np.int64)
    t = np.full_like(x, np.inf)
    tiny = 1e-300
    for dk in diag:
        prev = t
        with np.errstate(divide="ignore", over="ignore"):
            t = (dk - x) - np.where(np.isinf(prev), 0.0, 1.0 / prev)
        t = np.where(t == 0.0, -tiny, t)
        count += (t < 0)
    return count


@functools.cache
def _dsterf():
    """LAPACKE ``dsterf(n, d, e) -> info`` from the ILP64 OpenBLAS bundled
    with numpy's wheels, or None; looked up on first use."""
    fn = getattr(ctypes.CDLL(_umath_linalg.__file__),
                 "scipy_LAPACKE_dsterf64_", None)
    if fn is not None:
        vec = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
        fn.argtypes = (ctypes.c_int64, vec, vec)
        fn.restype = ctypes.c_int64
    return fn


def truncated_spectrum(pot: MeromorphicPotential, theta, alpha,
                       N: int) -> tuple[np.ndarray, list[int]]:
    """All N eigenvalues of the Dirichlet window truncation, ascending, plus
    the list of pole-influenced sites, whose |V| is capped at V_CAP.

    One LAPACK ``dsterf`` call, O(N^2) time; without it, ``eigvalsh`` of the
    dense matrix, O(N^3) time and O(N^2) memory.
    """
    if N < 2:
        raise InvalidInputError("N must be >= 2")
    diag, flagged = _orbit_diagonal(pot, theta, alpha, N)
    dsterf = _dsterf()
    if dsterf is None:  # eigvalsh reads the lower triangle only
        T = np.diag(diag)
        T[np.arange(1, N), np.arange(N - 1)] = 1.0
        return np.linalg.eigvalsh(T), flagged
    eigs = diag.copy()  # dsterf overwrites both arrays
    if dsterf(N, eigs, np.ones(N - 1)) != 0:
        raise NumericError("LAPACK dsterf did not converge")
    return eigs, flagged


# ---------------------------------------------------------------------------
# scans and classification


def lyapunov_scan(pot: MeromorphicPotential, alpha, E_grid, n: int, grid: int = 64,
                  kind: str = "D") -> list[LyapunovEstimate | Exception]:
    """Map the Lyapunov estimator over an energy grid, in engine passes of up
    to ``cocycle.BATCH`` energies; each estimate equals ``lyapunov``'s bit
    for bit.  Per-energy numerical failures (NumericError) are recorded in
    place and the scan continues, any other error propagates.  Output order
    follows E_grid."""
    energies = list(E_grid)
    out: list[LyapunovEstimate | NumericError] = []
    for i in range(0, len(energies), BATCH):
        out += _estimates(pot, energies[i:i + BATCH], alpha, n, grid, kind)
    return out


@dataclass(frozen=True)
class RegimeClassification:
    """Per-energy labels for the low-exponent set {E : L(E) < delta_hat}.

    Labels are candidates only: sc-candidate when L + uncertainty clears the
    lower index surrogate, above-delta when L - uncertainty exceeds the upper
    one, uncertain otherwise.  An energy whose estimate failed has nan for L
    and its uncertainty, and the error's class name as its label.
    """

    energies: tuple[float, ...]
    L_values: tuple[float, ...]
    uncertainty: tuple[float, ...]
    labels: tuple[str, ...]
    delta_hat: IndexValue
    delta_lower: float
    delta_upper: float

    @property
    def uncertain_fraction(self) -> float:
        """Share of "uncertain" among the classified energies; a failed
        energy counts in neither part."""
        classified = [lab for lab in self.labels if lab in LABELS]
        if not classified:
            return 0.0
        return classified.count("uncertain") / len(classified)


LABELS = ("sc-candidate", "above-delta", "uncertain")


def classify_label(L: float, u: float, lower: float, upper: float) -> str:
    if L + u < lower:
        return "sc-candidate"
    if L - u > upper:
        return "above-delta"
    return "uncertain"


def classify_regime(pot: MeromorphicPotential, theta, alpha, E_grid,
                    n_lyap: int, delta_hat: IndexValue,
                    grid: int = 64) -> RegimeClassification:
    """Label each grid energy against the index surrogate band.

    Requires a reasonably deep index surrogate and a long product; the
    per-energy margin is the cross-estimator discrepancy of L.  The
    estimates come from ``lyapunov_scan``, so an energy whose estimate
    raises NumericError is recorded (nan L and margin, the error's class
    as its label) and the others stand.
    """
    if delta_hat.terms_used < 8:
        raise InvalidInputError("index surrogate needs >= 8 levels")
    if n_lyap < 10_000:
        raise InvalidInputError("n_lyap must be >= 10^4")
    lower, upper = delta_hat.band()
    energies = tuple(float(E) for E in E_grid)
    Ls, us, labels = [], [], []
    for est in lyapunov_scan(pot, alpha, energies, n_lyap, grid=grid):
        if isinstance(est, Exception):
            Ls.append(math.nan)
            us.append(math.nan)
            labels.append(type(est).__name__)
        else:
            Ls.append(est.value)
            us.append(est.discrepancy)
            labels.append(classify_label(est.value, est.discrepancy, lower, upper))
    return RegimeClassification(
        energies=energies, L_values=tuple(Ls), uncertainty=tuple(us),
        labels=tuple(labels), delta_hat=delta_hat,
        delta_lower=float(lower), delta_upper=float(upper))
