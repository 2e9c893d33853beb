"""Finite truncations, energy scans, and the low-exponent regime labelling.

Truncated spectra come from Sturm-sequence bisection on the symmetric
tridiagonal restriction (diagonal V along the orbit, off-diagonal 1).  The
classifier brackets both the Lyapunov estimate and the arithmetic index and
only ever emits candidate labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import IndexValue, as_mpf
from .cocycle import LyapunovEstimate, lyapunov
from .errors import InvalidInputError, NumericError, RangeError
from .potential import MeromorphicPotential, orbit

__all__ = [
    "RegimeClassification",
    "truncated_spectrum",
    "sturm_count",
    "classify_regime",
    "lyapunov_scan",
    "V_CAP",
]

V_CAP = 1e12
SPECTRUM_TOL = 1e-12  # bisection width of each truncated eigenvalue


def _orbit_diagonal(pot: MeromorphicPotential, theta, alpha, N: int,
                    pole_policy: str) -> tuple[np.ndarray, list[int]]:
    if pole_policy not in ("cap", "strict"):
        raise InvalidInputError(f"unknown pole policy {pole_policy!r}")
    alpha_f = float(as_mpf(alpha))
    theta_f = float(as_mpf(theta)) % 1.0
    V = pot.V_array(orbit(theta_f, alpha_f, 0, N))
    flagged: list[int] = []
    over = np.abs(V) > V_CAP
    if np.any(over):
        idx = [int(i) for i in np.nonzero(over)[0]]
        if pole_policy == "strict":
            raise RangeError(f"pole-influenced sites in window: {idx}")
        V = np.clip(V, -V_CAP, V_CAP)
        flagged = idx
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


def truncated_spectrum(pot: MeromorphicPotential, theta, alpha, N: int,
                       pole_policy: str = "cap") -> tuple[np.ndarray, list[int]]:
    """All N eigenvalues of the Dirichlet window truncation, ascending, plus
    the list of pole-influenced (capped) sites."""
    if N < 2:
        raise InvalidInputError("N must be >= 2")
    diag, flagged = _orbit_diagonal(pot, theta, alpha, N, pole_policy)
    lo0 = float(np.min(diag) - 2.0)
    hi0 = float(np.max(diag) + 2.0)
    lo = np.full(N, lo0)
    hi = np.full(N, hi0)
    ks = np.arange(N)
    span = hi0 - lo0
    iters = max(1, int(math.ceil(math.log2(max(span, 1e-30) / SPECTRUM_TOL))) + 2)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        cnt = sturm_count(diag, mid)
        below = cnt <= ks  # fewer than k+1 eigenvalues under mid -> lambda_k >= mid
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi), flagged


# ---------------------------------------------------------------------------
# scans and classification


def lyapunov_scan(pot: MeromorphicPotential, alpha, E_grid, n: int,
                  method: str = "phase-average", grid: int = 64,
                  kind: str = "D") -> list[LyapunovEstimate | Exception]:
    """Map the Lyapunov estimator over an energy grid; per-energy numerical
    failures (NumericError) are recorded in place and the scan continues,
    any other error propagates.  Output order follows E_grid."""
    out: list[LyapunovEstimate | NumericError] = []
    for E in E_grid:
        try:
            out.append(lyapunov(pot, float(E), alpha, n, method=method,
                                grid=grid, kind=kind))
        except NumericError as exc:  # recorded, scan continues
            out.append(exc)
    return out


@dataclass(frozen=True)
class RegimeClassification:
    """Per-energy labels for the low-exponent set {E : L(E) < delta_hat}.

    Labels are candidates only: sc-candidate when L + uncertainty clears the
    lower index surrogate, above-delta when L - uncertainty exceeds the upper
    one, uncertain otherwise.
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
        if not self.labels:
            return 0.0
        return sum(1 for l in self.labels if l == "uncertain") / len(self.labels)

    def rows(self):
        for e, L, u, lab in zip(self.energies, self.L_values,
                                self.uncertainty, self.labels):
            yield e, L, u, lab

    def to_json_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat.to_json_dict(),
            "delta_lower": self.delta_lower,
            "delta_upper": self.delta_upper,
            "uncertain_fraction": self.uncertain_fraction,
            "rows": [{"E": e, "L": L, "margin": u, "label": lab}
                     for e, L, u, lab in self.rows()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


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
    per-energy margin is the cross-estimator discrepancy of L.
    """
    if delta_hat.terms_used < 8:
        raise InvalidInputError("index surrogate needs >= 8 levels")
    if n_lyap < 10_000:
        raise InvalidInputError("n_lyap must be >= 10^4")
    lower, upper = delta_hat.band()
    energies, Ls, us, labels = [], [], [], []
    for E in E_grid:
        est = lyapunov(pot, float(E), alpha, n_lyap, method="phase-average",
                       grid=grid)
        energies.append(float(E))
        Ls.append(est.value)
        us.append(est.discrepancy)
        labels.append(classify_label(est.value, est.discrepancy, lower, upper))
    return RegimeClassification(
        energies=tuple(energies), L_values=tuple(Ls), uncertainty=tuple(us),
        labels=tuple(labels), delta_hat=delta_hat,
        delta_lower=float(lower), delta_upper=float(upper))
