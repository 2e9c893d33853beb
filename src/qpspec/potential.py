"""Meromorphic sampling potentials V = g/f on the torus.

f is normalised as the product over poles of 2 sin(pi (x - theta_l)) times a
fixed sign, so that |f(x)| = prod_l |e^{2 pi i x} - e^{2 pi i theta_l}| and
the mean of ln|f| over the torus vanishes.  Built-in families: the cosine
model (no poles) and the tangent model (single pole at 1/2).

Every walk along an orbit theta + j alpha goes through one of three
functions: ``orbit`` (float64 phases, vectorised over base points),
``arithmetic.orbit_norms`` (exact P-bit fixed-point phases mod 2^P, as
integer torus norms, one at a time) and
``site_values`` (the site values E - V along a window at working precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, mpf_div, mpf_sub, to_fixed

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


def _scaled_trig(trig, k: float, lam: float, x: np.ndarray) -> np.ndarray:
    """lam * trig(k * x) built in one buffer (the same products, in place)."""
    t = np.multiply(x, k)
    trig(t, out=t)
    t *= lam
    return t


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
            if not self.poles:
                return np.full_like(x, float(self.f_sign), dtype=float)
            # the chord product in place; the sign comes last, which is exact
            out = None
            for pl in self.poles:
                t = np.subtract(x, float(pl))
                t *= np.pi
                np.sin(t, out=t)
                t *= 2.0
                if out is None:
                    out = t
                else:
                    out *= t
            if self.f_sign < 0:
                np.negative(out, out=out)
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
        v = self._V_and_f(x)[0]
        if cap is not None:
            v = np.clip(v, -cap, cap)
        return v

    def _V_and_f(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """V on an array together with the f it divides by (None when
        pole-free), so a caller that also needs f evaluates it once."""
        if self.m == 0:
            return np.asarray(self.g(x), dtype=float), None
        fv = self.f(x)
        fc = fv
        if np.any(np.abs(fv) < 1e-300):  # keep V finite on a pole
            fc = np.where(np.abs(fv) < 1e-300, np.copysign(1e-300, fv + 1e-300), fv)
        return np.asarray(self.g(x), dtype=float) / fc, fv

    def log_f_integral(self) -> float:
        """Quadrature of ln|f| over one period, split at the poles.

        Vanishes identically for the normalised f; returned for checking.
        """
        if self.m == 0:
            return 0.0
        with mp.workdps(30):
            pts = sorted({mp.mpf(0), mp.mpf(1), *(as_mpf(pl) for pl in self.poles)})
            val = mp.quad(lambda t: mp.log(abs(self.f(t))), pts)
            return float(val)


# ---------------------------------------------------------------------------
# built-in families and the custom registry


def _with_fixed_phasor(g: Callable, coupling: float, degree: int,
                       poly: Callable) -> Callable:
    """Attach to ``g`` its fixed-point trig-polynomial form
    ``g.fixed_phasor = (coupling, degree, poly)``.  For c = cos(pi x) 2^W and
    s = sin(pi x) 2^W as W-bit fixed-point integers, poly(c, s) is an integer
    polynomial, homogeneous of the given degree, with
    g(x) = coupling * poly(c, s) * 2^(-degree W).  ``site_values`` evaluates
    g along an orbit through it on integers, without trig calls."""
    if not mp.isfinite(coupling):
        raise InvalidInputError(f"coupling must be finite, got {coupling!r}")
    g.fixed_phasor = (coupling, degree, poly)
    return g


def _g_const(val):
    def g(x):
        if _is_array(x):
            return np.full_like(x, float(val), dtype=float)
        return mp.mpf(val)
    return _with_fixed_phasor(g, val, 0, lambda c, s: 1)


def _g_cos2pi(lam):
    def g(x):
        if _is_array(x):
            return _scaled_trig(np.cos, 2 * np.pi, lam, x)
        return lam * mp.cospi(2 * as_mpf(x))
    return _with_fixed_phasor(g, lam, 2, lambda c, s: (c - s) * (c + s))


def _g_sin2pi(lam):
    def g(x):
        if _is_array(x):
            return _scaled_trig(np.sin, 2 * np.pi, lam, x)
        return lam * mp.sinpi(2 * as_mpf(x))
    return _with_fixed_phasor(g, lam, 2, lambda c, s: 2 * c * s)


def _g_sinpi(lam):
    def g(x):
        if _is_array(x):
            return _scaled_trig(np.sin, np.pi, lam, x)
        return lam * mp.sinpi(x)
    return _with_fixed_phasor(g, lam, 1, lambda c, s: s)


# factories coupling -> g; every g they return carries its fixed-point form
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
                g: Callable | None = None) -> MeromorphicPotential:
    """Custom potential from a pole list and a registered (or supplied) g.

    Poles may repeat to encode multiplicity.  A supplied callable must handle
    scalars and numpy arrays.
    """
    if g is None:
        if g_name not in G_REGISTRY:
            raise InvalidInputError(
                f"unknown g {g_name!r}; registry: {sorted(G_REGISTRY)}")
        g = G_REGISTRY[g_name](coupling)
    pot = MeromorphicPotential(poles=tuple(poles), g=g, label="custom")
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


def orbit(theta, alpha: float, start, stop: int | None = None) -> np.ndarray:
    """Float phases (theta + j alpha) mod 1 for j in [start, stop); a 1-D
    array of base points theta gives one column per base point.

    With ``stop`` omitted, ``start`` is an array of steps j of any shape,
    and the base points' axis comes last.  Either way the phase at step j
    is mod(float(j) alpha + theta, 1)."""
    ks = (np.arange(start, stop, dtype=float) if stop is not None
          else np.asarray(start, dtype=float))
    y = np.add.outer(ks * alpha, theta)
    # y - floor(y) is the exact fractional part rounded once, as np.mod(y, 1)
    # gives it, at a fraction of the cost
    y -= np.floor(y)
    return y


def site_values(pot: MeromorphicPotential, E, theta, alpha, start: int,
                stop: int) -> list:
    """S_j = E - V(theta + j alpha) for j in [start, stop), one orbit pass,
    rounded to the current working precision prec.

    The phasor (c, s) = (cos pi x_j, sin pi x_j) is walked as W-bit
    fixed-point integers, W = prec + ceil(log2(n)) + 32 over the n sites:
    each site rotates it by (cos pi alpha, sin pi alpha) with three integer
    multiplies, each coordinate rounded to nearest, so its absolute error
    stays about n 2^-W before the final rounding to prec.  f's pole factors
    and a registry g's trig polynomial (``g.fixed_phasor``) are integer
    polynomials in (c, s).  A user-supplied g is called through its
    ``g.phasor(c, s)`` on mpf values of the integers, or else evaluated
    directly at x_j.  On raw libmp values, a registry g's value
    lam poly(c, s) is exact, g/f is formed at W bits, and S_j = E - g/f is
    rounded once to prec.

    A site within ``eps_floor`` of a pole raises OrbitPoleError with its j
    (the first such site); float distances pick the sites that get the
    exact check.
    """
    n = stop - start
    prec = mp.mp.prec
    th = as_mpf(theta)
    av = as_mpf(alpha)
    if pot.m:
        # float phases are good to about (|theta| + |j|) 2^-52, far inside the
        # 1e-6 margin, so only the sites it flags can lie within eps_floor
        near = pot.pole_distance(orbit(float(th), float(av), start, stop))
        for i in np.flatnonzero(near <= pot.eps_floor + 1e-6).tolist():
            j = start + i
            dist = pot.pole_distance(th + j * av)
            if dist <= pot.eps_floor:
                raise OrbitPoleError(f"pole within floor at orbit site {j}",
                                     dist=float(dist), step=j)
    fixed = getattr(pot.g, "fixed_phasor", None)
    g_phasor = getattr(pot.g, "phasor", None)
    if fixed is None and g_phasor is None:
        xs = [th + j * av for j in range(start, stop)]
    W = prec + (n - 1).bit_length() + 32
    half = 1 << (W - 1)
    make = mp.make_mpf
    with mp.workprec(W):
        def fix(v):
            return to_fixed(v._mpf_, W)

        Ev = as_mpf(E)._mpf_
        av = as_mpf(alpha)
        x0 = as_mpf(theta) + start * av
        c, s = fix(mp.cospi(x0)), fix(mp.sinpi(x0))
        cu, su = fix(mp.cospi(av)), fix(mp.sinpi(av))
        sp_u, sm_u = su + cu, su - cu
        walk = []
        for _ in range(n):
            walk.append((c, s))
            # (c cu - s su, s cu + c su) from three products, exactly
            k = cu * (c + s)
            c, s = (k - s * sp_u + half) >> W, (k + c * sm_u + half) >> W
        if fixed is not None:
            lam, degree, poly = fixed
            # the coupling at W bits, converted once: exact for a float and
            # for an mpf of up to W bits
            sign, man, exp, _ = as_mpf(lam)._mpf_
            lam_man, g_exp = -man if sign else man, exp - degree * W
            if not pot.m:
                # E - g as one integer times 2^e0, rounded once: the bits of
                # the mpf_sub below, with one normalisation per site, not two
                e_sign, e_man, e_exp, _ = Ev
                e0 = min(e_exp, g_exp)
                e_int = (-e_man if e_sign else e_man) << (e_exp - e0)
                return [make(from_man_exp(
                    e_int - (lam_man * poly(c, s) << (g_exp - e0)), e0, prec, "n"))
                    for c, s in walk]
            gs = [from_man_exp(lam_man * poly(c, s), g_exp) for c, s in walk]
        elif g_phasor is not None:
            gs = [mp.mpf(g_phasor(make(from_man_exp(c, -W)),
                                  make(from_man_exp(s, -W))))._mpf_
                  for c, s in walk]
        else:
            gs = [mp.mpf(pot.g(x))._mpf_ for x in xs]
        if pot.m:
            # 2 sin(pi (x - p)) = 2 (s cos(pi p) - c sin(pi p)), rounded to W
            # bits, for each pole p; f is their product in units of 2^(-m W)
            poles = [(fix(2 * mp.cospi(as_mpf(pl))), fix(2 * mp.sinpi(as_mpf(pl))))
                     for pl in pot.poles]
            for i, (c, s) in enumerate(walk):
                fv = pot.f_sign
                for cp, sp in poles:
                    fv *= (s * cp - c * sp + half) >> W
                gs[i] = mpf_div(gs[i], from_man_exp(fv, -W * pot.m), W, "n")
    return [make(mpf_sub(Ev, gv, prec, "n")) for gv in gs]


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
