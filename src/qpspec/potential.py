"""Meromorphic sampling potentials V = g/f on the torus.

f is normalised as the product over poles of 2 sin(pi (x - theta_l)) times a
fixed sign, so that |f(x)| = prod_l |e^{2 pi i x} - e^{2 pi i theta_l}| and
the mean of ln|f| over the torus vanishes.  Built-in families: the cosine
model (no poles) and the tangent model (single pole at 1/2).

Every walk along an orbit theta + j alpha goes through one of three
functions: ``orbit`` (float64 phases, vectorised over base points),
``arithmetic.torus_orbit`` (mp phases reduced mod 1, one at a time) and
``site_values`` (the site values E - V along a window at working precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from .arithmetic import (
    ContinuedFraction,
    IndexValue,
    as_mpf,
    delta_index,
    ln_low,
    qualifying_levels,
    sine_product,
    torus_norm,
)
from .errors import (
    DegenerateModelError,
    InvalidInputError,
    OrbitPoleError,
    PoleProximityError,
    SubsequenceError,
)

__all__ = [
    "MeromorphicPotential",
    "make_amo",
    "make_maryland",
    "make_custom",
    "eval_V",
    "orbit",
    "site_values",
    "f_product_check",
    "G_REGISTRY",
]


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray)


def _sinpi(x):
    return np.sin(np.pi * x) if _is_array(x) else mp.sinpi(x)


@dataclass(frozen=True)
class MeromorphicPotential:
    """V = g/f with poles listed with multiplicity (repeats).

    ``g`` must accept both scalars (mpf) and numpy arrays.  ``f_sign`` fixes
    the overall sign of the normalised f.
    """

    poles: tuple
    g: Callable
    label: str
    f_sign: int = 1
    eps_floor: float = 1e-12

    @property
    def m(self) -> int:
        return len(self.poles)

    def f(self, x):
        """Signed normalised f; |f| is the product of chord lengths."""
        if _is_array(x):
            out = np.full_like(x, float(self.f_sign), dtype=float)
            for pl in self.poles:
                out = out * (2.0 * np.sin(np.pi * (x - float(pl))))
            return out
        acc = mp.mpf(self.f_sign)
        for pl in self.poles:
            acc *= 2 * mp.sinpi(as_mpf(x) - as_mpf(pl))
        return acc

    def pole_distance(self, x):
        """Torus distance from x to the nearest pole; +inf when pole-free."""
        if not self.poles:
            return math.inf if not _is_array(x) else np.full_like(x, np.inf, dtype=float)
        if _is_array(x):
            d = np.full_like(x, np.inf, dtype=float)
            for pl in self.poles:
                r = np.mod(x - float(pl), 1.0)
                d = np.minimum(d, np.minimum(r, 1.0 - r))
            return d
        return min(torus_norm(as_mpf(x) - as_mpf(pl)) for pl in self.poles)

    def V_array(self, x: np.ndarray, cap: float | None = None) -> np.ndarray:
        """Vectorised V for the float engines; optionally magnitude-capped."""
        if self.m == 0:
            v = np.asarray(self.g(x), dtype=float)
        else:
            fv = self.f(x)
            fv = np.where(np.abs(fv) < 1e-300, np.copysign(1e-300, fv + 1e-300), fv)
            v = np.asarray(self.g(x), dtype=float) / fv
        if cap is not None:
            v = np.clip(v, -cap, cap)
        return v

    def log_f_integral(self, dps: int = 30) -> float:
        """Quadrature of ln|f| over one period, split at the poles.

        Vanishes identically for the normalised f; returned for checking.
        """
        if self.m == 0:
            return 0.0
        with mp.workdps(dps):
            pts = sorted({mp.mpf(0), mp.mpf(1), *(as_mpf(pl) for pl in self.poles)})
            val = mp.quad(lambda t: mp.log(abs(self.f(t))), pts)
            return float(val)


# ---------------------------------------------------------------------------
# built-in families and the custom registry


def _with_phasor(g: Callable, phasor: Callable) -> Callable:
    """Attach to ``g`` its trig-polynomial form ``g.phasor(c, s)``: the value
    g(x) from c = cos(pi x) and s = sin(pi x), the parts of the phasor
    z = e^{i pi x}.  ``site_values`` evaluates g along an orbit through it
    without trig calls; a g without it is evaluated directly."""
    g.phasor = phasor
    return g


def _g_const(val):
    def g(x):
        if _is_array(x):
            return np.full_like(x, float(val), dtype=float)
        return mp.mpf(val)
    return _with_phasor(g, lambda c, s: mp.mpf(val))


def _g_cos2pi(lam):
    def g(x):
        return lam * (np.cos(2 * np.pi * x) if _is_array(x) else mp.cospi(2 * as_mpf(x)))
    return _with_phasor(g, lambda c, s: lam * (c * c - s * s))


def _g_sin2pi(lam):
    def g(x):
        return lam * (np.sin(2 * np.pi * x) if _is_array(x) else mp.sinpi(2 * as_mpf(x)))
    return _with_phasor(g, lambda c, s: lam * 2 * c * s)


def _g_sinpi(lam):
    def g(x):
        return lam * _sinpi(x)
    return _with_phasor(g, lambda c, s: lam * s)


# factories coupling -> g; every g they return carries its phasor form
G_REGISTRY: dict[str, Callable[[float], Callable]] = {
    "cos2pi": _g_cos2pi,
    "sin2pi": _g_sin2pi,
    "sinpi": _g_sinpi,
    "const": _g_const,
}


def make_amo(lam: float) -> MeromorphicPotential:
    """Cosine model: no poles, V(x) = lam * cos 2 pi x."""
    lam = float(lam)
    return MeromorphicPotential(poles=(), g=_g_cos2pi(lam), label="amo")


def make_maryland(lam: float) -> MeromorphicPotential:
    """Tangent model: single pole at 1/2, V(x) = lam * tan pi x.

    Factored as g(x) = 2 lam sin pi x (positive at x = 1/4 for lam > 0) over
    f(x) = 2 cos pi x, whose |f| matches the normalised single-pole product.
    """
    lam = float(lam)
    if lam == 0:
        raise DegenerateModelError("tangent model needs a nonzero coupling")
    return MeromorphicPotential(poles=(Fraction(1, 2),), g=_g_sinpi(2 * lam),
                                label="maryland", f_sign=-1)


def make_custom(poles: Sequence, g_name: str, coupling: float = 1.0,
                g: Callable | None = None, label: str = "custom",
                f_sign: int = 1) -> MeromorphicPotential:
    """Custom potential from a pole list and a registered (or supplied) g.

    Poles may repeat to encode multiplicity.  A supplied callable must handle
    scalars and numpy arrays.
    """
    if g is None:
        if g_name not in G_REGISTRY:
            raise InvalidInputError(
                f"unknown g {g_name!r}; registry: {sorted(G_REGISTRY)}")
        g = G_REGISTRY[g_name](coupling)
    pot = MeromorphicPotential(poles=tuple(poles), g=g, label=label,
                               f_sign=f_sign)
    _check_no_spurious_pole(pot)
    return pot


def _check_no_spurious_pole(pot: MeromorphicPotential):
    for pl in pot.poles:
        gv = pot.g(as_mpf(pl))
        if abs(gv) < 1e-12:
            raise InvalidInputError(
                f"g vanishes at declared pole {pl}: the pole is spurious")


# ---------------------------------------------------------------------------
# evaluation and the orbit-product lower bound


def eval_V(pot: MeromorphicPotential, x):
    """V(x) = g(x)/f(x); raises with the distance when within the pole floor."""
    xv = as_mpf(x)
    if pot.m:
        dist = pot.pole_distance(xv)
        if dist == 0:
            raise PoleProximityError("exact pole hit", dist=0.0)
        if dist <= pot.eps_floor:
            raise PoleProximityError(
                f"within {pot.eps_floor:g} of a pole (dist {float(dist):.3g})",
                dist=float(dist))
        return pot.g(xv) / pot.f(xv)
    return pot.g(xv)


def orbit(theta, alpha: float, start: int, stop: int) -> np.ndarray:
    """Float phases (theta + j alpha) mod 1 for j in [start, stop); a 1-D
    array of base points theta gives one column per base point."""
    ks = np.arange(start, stop, dtype=float)
    return np.mod(np.add.outer(ks * alpha, theta), 1.0)


def site_values(pot: MeromorphicPotential, E, theta, alpha, start: int,
                stop: int) -> list:
    """S_j = E - V(theta + j alpha) for j in [start, stop), one orbit pass,
    rounded to the current working precision.

    The phasor z_j = e^{i pi x_j} is advanced by one complex multiply by
    e^{i pi alpha} per site, carried with ceil(log2(n)) + 32 guard bits over
    the n sites so the accumulated rounding stays below the working
    precision.  f and every built-in g are trig polynomials in z_j; only a
    user-supplied g (one without ``g.phasor``) is evaluated directly at x_j.
    A site within ``eps_floor`` of a pole raises OrbitPoleError with its j.
    """
    n = stop - start
    prec = mp.mp.prec
    g_phasor = getattr(pot.g, "phasor", None)
    if pot.m or g_phasor is None:
        th = as_mpf(theta)
        av = as_mpf(alpha)
        xs = [th + j * av for j in range(start, stop)]
        for j, xj in enumerate(xs, start):
            dist = pot.pole_distance(xj)
            if dist <= pot.eps_floor:
                raise OrbitPoleError(f"pole within floor at orbit site {j}",
                                     dist=float(dist), step=j)
    out = []
    with mp.workprec(prec + (n - 1).bit_length() + 32):
        Ev = as_mpf(E)
        av = as_mpf(alpha)
        x0 = as_mpf(theta) + start * av
        c, s = mp.cospi(x0), mp.sinpi(x0)
        cu, su = mp.cospi(av), mp.sinpi(av)
        # 2 sin(pi (x - p)) = 2 (s cos(pi p) - c sin(pi p)) for each pole p
        pole_phasors = [(2 * mp.cospi(as_mpf(pl)), 2 * mp.sinpi(as_mpf(pl)))
                        for pl in pot.poles]
        for i in range(n):
            gv = g_phasor(c, s) if g_phasor is not None else pot.g(xs[i])
            if pot.m:
                fv = mp.mpf(pot.f_sign)
                for cp, sp in pole_phasors:
                    fv *= s * cp - c * sp
                gv = gv / fv
            out.append(Ev - gv)
            c, s = c * cu - s * su, s * cu + c * su
    with mp.workprec(prec):
        return [+v for v in out]


def f_product_check(pot: MeromorphicPotential, theta, cf: ContinuedFraction,
                    n_i: int, epsilon: float,
                    delta_iv: IndexValue | None = None) -> tuple[float, float]:
    """Log of both sides of the orbit-product lower bound

        prod_{j<q_n} |f(theta + j alpha)|  >=  e^{q_n (delta_hat - eps)} / q_{n+1}

    at a qualifying level n_i.  Returns (lhs_log, bound_log); the caller
    asserts lhs_log >= bound_log.  Pole-free potentials return trivially.
    ln|f| is summed over the poles, repeats included, each term the log of
    the orbit sine product of ``arithmetic.sine_product`` at theta - theta_l:
    the orbit runs at cf.precision, its sines and logs at LOG_PREC.
    """
    if delta_iv is None:
        delta_iv = delta_index(cf, theta, pot.poles)
    if n_i not in qualifying_levels(delta_iv, epsilon):
        raise SubsequenceError(
            f"level {n_i} not in the qualifying subsequence for eps={epsilon}")
    qn = cf.q[n_i]
    bound_log = float(qn * (delta_iv.value - epsilon) - math.log(cf.q[n_i + 1]))
    if pot.m == 0:
        return 0.0, bound_log
    with mp.workprec(cf.precision):
        acc = mp.mpf(0)
        for pl in pot.poles:
            rest, least = sine_product(as_mpf(theta) - as_mpf(pl), cf, qn)
            acc += ln_low(rest * least)
        return float(acc), bound_log
