"""Meromorphic sampling potentials V = g/f on the torus.

f is normalised as the product over poles of 2 sin(pi (x - theta_l)) times a
fixed sign, so that |f(x)| = prod_l |e^{2 pi i x} - e^{2 pi i theta_l}| and
the mean of ln|f| over the torus vanishes.  Built-in families: the cosine
model (no poles) and the tangent model (single pole at 1/2).

Both engines evaluate f and the registry g's as polynomials in the phasor
(cos pi x, sin pi x).  The float engines take it from one tangent per site
(``_phasor``: t = tan(pi x / 2), then c = 2/(1 + t^2) - 1 and
s = 2t/(1 + t^2)), so a site costs one SIMD ``np.tan`` and a few
multiplies, with no sine or cosine: f is f_sign prod_l 2(s cos pi p_l -
c sin pi p_l), with the pole constants rounded once per potential, and a
registry g is coupling * poly(c, s) from its ``g.fixed_phasor``.
The site pass walks the same phasor as fixed-point integers.  Its
energy-free part, ``_site_terms``, forms f and g at every site (a g without
``fixed_phasor`` is evaluated at x) and tests for poles on the integer pole
factors; its energy step, ``_site_pairs``, forms each site as
S = (E f - g) / f from the exact integer E f - g, as an (m, e) integer pair
rounded once.  So several energies can share one walk, and
``site_values`` returns the pairs as mpf values.

Every walk along an orbit theta + j alpha goes through one of three
functions: ``orbit`` (float64 phases, vectorised over base points),
``arithmetic.orbit_norms`` (exact P-bit fixed-point phases mod 2^P, as
integer torus norms, one at a time) and
``_site_terms`` (the W-bit phasor walk behind the site values E - V along a
window at working precision).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, to_fixed

from .arithmetic import (
    ContinuedFraction,
    IndexValue,
    as_mpf,
    delta_index,
    ln_low,
    pair_rounding,
    qualifying_levels,
    sine_product,
    torus_norm,
)
from .errors import (
    DegenerateModelError,
    InvalidInputError,
    NumericError,
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
    "check_energy",
    "f_product_check",
    "G_REGISTRY",
]


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray)


_HALF_PI = np.pi / 2


def _phasor(x: np.ndarray, out=None):
    """(cos pi x, sin pi x) on an array, from one tangent per site:
    t = tan(pi x / 2), then c = 2/(1 + t^2) - 1 and s = 2t/(1 + t^2).

    ``out`` is two float buffers shaped like x that receive c and s; they
    are allocated when omitted.  For x in [0, 1] both values are within
    2e-15 of the exact ones when np.tan is within 4 ulp
    (``MeromorphicPotential._f_near_pole`` has the bound, and
    ``tests/test_potential.py`` checks it against mp)."""
    c, s = out if out is not None else (np.empty(x.shape), np.empty(x.shape))
    np.multiply(x, _HALF_PI, out=s)
    np.tan(s, out=s)
    np.multiply(s, s, out=c)
    c += 1.0
    s += s
    s /= c
    np.divide(2.0, c, out=c)
    c -= 1.0
    return c, s


def _buffers(x: np.ndarray) -> list[np.ndarray]:
    """Five separate float buffers shaped like x, the ``work`` of
    ``MeromorphicPotential._f_and_g`` for a one-off call (a returned array
    then pins no other buffer)."""
    return [np.empty(x.shape) for _ in range(5)]


def _poly_on_phasor(fixed, c: np.ndarray, s: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """A registry g from its ``g.fixed_phasor``: coupling * poly(c, s) in
    float64, into ``out`` (which may be s)."""
    coupling, _, poly = fixed
    return np.multiply(poly(c, s), float(coupling), out=out)


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
            return self._f_and_g(x, _buffers(x), with_g=False)[0]
        acc = mp.mpf(self.f_sign)
        for pl in self.poles:
            acc *= 2 * mp.sinpi(as_mpf(x) - as_mpf(pl))
        return acc

    @functools.cached_property
    def _pole_phasors(self) -> tuple[tuple[float, float], ...]:
        """(2 cos pi p, 2 sin pi p) per pole, each rounded once from mp
        (exact at half-integers), f_sign folded into the first pair: negating
        both constants negates the factor exactly, as the sign did."""
        with mp.workprec(113):
            pairs = [(float(2 * mp.cospi(as_mpf(pl))), float(2 * mp.sinpi(as_mpf(pl))))
                     for pl in self.poles]
        if pairs and self.f_sign < 0:
            pairs[0] = (-pairs[0][0], -pairs[0][1])
        return tuple(pairs)

    def _f_near_pole(self, eps: float) -> float:
        """A bound on the float |f| at every x in [0, 1] with
        pole_distance(x) <= eps, from the rounding of f on arrays.

        f's factor of pole p is 2 (s cos pi p - c sin pi p) on the phasor
        (c, s) of ``_phasor``, with both constants rounded once.  (c, s) is
        (cos, sin) of an angle within 1.3e-15 of pi x: rounding pi x / 2
        costs 1.7e-16 of the half angle and a tangent within 4 ulp at most
        4.5e-16 (atan moves by at most half the relative error of t), both
        doubled; the rational map then adds at most 6.7e-16 to c (2/(1 + t^2)
        is at most 2 and carries the roundings of t^2, of 1 + t^2 and of the
        division, 3 ulp; subtracting 1 is exact where 2/(1 + t^2) >= 1/2 and
        rounds by less than 5.6e-17 elsewhere) and 3.4e-16 to s.
        With the roundings of the constants and of s cp - c sp, the factor is
        within e = 5e-15 of 2 sin(pi (x - p)).  pole_distance
        takes t = fl(x - p) and wraps mod 1 once, so d = pole_distance(x)
        <= eps puts x within eps + (1 + |p|) 3.4e-16 of p, where the factor
        is at most 2 pi eps + (1 + |p|) 2.2e-15 + e.  Every other factor is
        at most 2 + e.  So |f| <= 2^m (4 eps + slack), slack =
        (1 + max |p|) 1e-14 covering the additive terms with room, and 4 - pi
        absorbing the relative roundings of the m-factor product.  A site
        exactly on a pole keeps an |f| of rounding size (4.4e-16 for the
        tangent model at x = 1/2), not 0.
        """
        p_max = max(abs(float(pl)) for pl in self.poles)
        return 2.0 ** self.m * (4.0 * eps + (1.0 + p_max) * 1e-14)

    def _f_and_g(self, x: np.ndarray, work,
                 with_g: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
        """f (None when pole-free) and g (None unless ``with_g``) at an array
        of sites, from one ``_phasor`` pass.  ``work`` is five float buffers
        shaped like x: f lands in work[0], the phasor (c, s) in work[1] and
        work[2], and a registry g over s in work[2]; work[3] and work[4] are
        scratch that only a pole with two nonzero constants touches."""
        fixed = getattr(self.g, "fixed_phasor", None) if with_g else None
        if self.m or fixed is not None:
            c, s = _phasor(x, work[1:3])
        f = None
        if self.m:
            # f_sign prod_l 2 (s cos pi p_l - c sin pi p_l)
            f = work[0]
            for i, (cp, sp) in enumerate(self._pole_phasors):
                fac = work[3] if i else f
                np.multiply(s, cp, out=fac)
                fac -= np.multiply(c, sp, out=work[4])
                if i:
                    f *= fac
        if not with_g:
            return f, None
        if fixed is not None:
            return f, _poly_on_phasor(fixed, c, s, s)
        return f, np.asarray(self.g(x), dtype=float)

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

    def V_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorised V for the float engines."""
        return self._V_and_near(x)[0]

    def _V_and_near(self, x: np.ndarray, work=None):
        """V on an array, and (flat index, pole distance) of the sites whose
        |f| admits ``_f_near_pole(eps_floor)`` (None when pole-free), so the
        A-kind pole mask reads |f| once with V.  With ``work`` (as for
        ``_f_and_g``), f lands in work[0] and, unless a pole-free g without
        ``fixed_phasor`` made its own array, V in work[2].

        At a site exactly on a pole (pole_distance 0), where f keeps an |f|
        of rounding size, and wherever |f| < 1e-300, f is set to 1e-300, so
        such a site reads as a pole whatever the coupling; as eps_floor >= 0,
        the sites under ``_f_near_pole(0)`` that this tests are among those
        returned."""
        if work is None:
            work = _buffers(x)
        fv, gv = self._f_and_g(x, work)
        if fv is None:
            return gv, None
        absf = np.abs(fv, out=work[1])
        idx = np.flatnonzero(absf <= self._f_near_pole(self.eps_floor))
        dist = np.empty(0)
        if idx.size:
            dist = self.pole_distance(x.flat[idx])
            af = absf.flat[idx]
            hit = (af <= self._f_near_pole(0.0)) & ((af < 1e-300) | (dist == 0))
            fv.flat[idx[hit]] = 1e-300
        return np.divide(gv, fv, out=work[2]), (idx, dist)

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
    g along an orbit through it on integers, without trig calls, and the
    float engines evaluate the same poly on the float phasor (W = 0)."""
    if not mp.isfinite(coupling):
        raise InvalidInputError(f"coupling must be finite, got {coupling!r}")
    g.fixed_phasor = (coupling, degree, poly)
    return g


def _registry_g(coupling, degree: int, poly: Callable, mp_form: Callable) -> Callable:
    """A registry g: ``mp_form`` on mp scalars, coupling * poly(c, s) on the
    tangent phasor of an array, and the fixed-point form for ``site_values``."""
    def g(x):
        if _is_array(x):
            c, s = _phasor(x)
            return _poly_on_phasor(g.fixed_phasor, c, s, s)
        return mp_form(as_mpf(x))
    return _with_fixed_phasor(g, coupling, degree, poly)


def _g_const(val):
    return _registry_g(val, 0, lambda c, s: 1, lambda x: mp.mpf(val))


def _g_cos2pi(lam):
    return _registry_g(lam, 2, lambda c, s: (c - s) * (c + s),
                       lambda x: lam * mp.cospi(2 * x))


def _g_sin2pi(lam):
    return _registry_g(lam, 2, lambda c, s: 2 * c * s,
                       lambda x: lam * mp.sinpi(2 * x))


def _g_sinpi(lam):
    return _registry_g(lam, 1, lambda c, s: s, lambda x: lam * mp.sinpi(x))


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


def orbit(theta, alpha: float, start, stop: int | None = None,
          out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """Float phases (theta + j alpha) mod 1 for j in [start, stop); a 1-D
    array of base points theta gives one column per base point.

    With ``stop`` omitted, ``start`` is an array of steps j of any shape,
    and the base points' axis comes last.  Either way the phase at step j
    is mod(float(j) alpha + theta, 1).  ``out`` and ``scratch``, arrays of
    the result's shape, receive the phases and their floor when given, so a
    caller stepping through chunks allocates no site array."""
    ks = (np.arange(start, stop, dtype=float) if stop is not None
          else np.asarray(start, dtype=float))
    y = np.add.outer(ks * alpha, theta, out=out)
    # y - floor(y) is the exact fractional part rounded once, as np.mod(y, 1)
    # gives it, at a fraction of the cost
    y -= np.floor(y, out=scratch)
    return y


def check_energy(E) -> None:
    """Refuse an infinite or NaN energy (InvalidInputError)."""
    if not mp.isfinite(as_mpf(E)):
        raise InvalidInputError(f"energy must be finite, got {E}")


class _SiteTerms(NamedTuple):
    """The energy-free part of the site pass over a window: f_j 2^f_exp and
    g at every site, from the W-bit phasor walk.  ``f`` is None when the
    potential is pole-free (f = 1); ``g`` holds (m, e) pairs."""

    W: int
    f_exp: int
    f: list | None
    g: list


def _site_terms(pot: MeromorphicPotential, theta, alpha, start: int,
                stop: int, prec: int) -> _SiteTerms:
    """Walk the phasor (c, s) = (cos pi x_j, sin pi x_j) for j in
    [start, stop) as W-bit fixed-point integers, W = prec + ceil(log2(n)) +
    32 over the n sites, and return f and g at each site; the pole test
    raises OrbitPoleError at the first site within ``eps_floor`` of a pole.
    Nothing here depends on the energy (``site_values`` has the details)."""
    n = stop - start
    fixed = getattr(pot.g, "fixed_phasor", None)
    if fixed is None:
        # a user g is evaluated at x_j formed at prec bits
        with mp.workprec(prec):
            th, av = as_mpf(theta), as_mpf(alpha)
            xs = [th + j * av for j in range(start, stop)]
    W = prec + (n - 1).bit_length() + 32
    half = 1 << (W - 1)
    with mp.workprec(W):
        def fix(v):
            return to_fixed(v._mpf_, W)

        aw = as_mpf(alpha)
        x0 = as_mpf(theta) + start * aw
        c, s = fix(mp.cospi(x0)), fix(mp.sinpi(x0))
        cu, su = fix(mp.cospi(aw)), fix(mp.sinpi(aw))
        sp_u, sm_u = su + cu, su - cu
        if fixed is not None:
            lam, degree, poly = fixed
            # the coupling at W bits, converted once: exact for a float and
            # for an mpf of up to W bits
            sign, man, exp, _ = as_mpf(lam)._mpf_
            lam_man, g_exp = -man if sign else man, exp - degree * W
        poles = [(fix(2 * mp.cospi(as_mpf(pl))), fix(2 * mp.sinpi(as_mpf(pl))))
                 for pl in pot.poles]
        floor = fix(2 * mp.sinpi(min(pot.eps_floor, 0.5)))
        f_sign = pot.f_sign
        fs, gs = ([] if poles else None), []
        for i in range(n):
            if fixed is not None:
                gs.append((lam_man * poly(c, s), g_exp))
            else:
                gs.append(_man_exp(mp.mpf(pot.g(xs[i])), start + i))
            if poles:
                fv = f_sign
                for cp, sp in poles:
                    fac = (s * cp - c * sp + half) >> W
                    if abs(fac) <= floor:
                        j = start + i
                        with mp.workprec(prec):
                            dist = pot.pole_distance(as_mpf(theta) + j * as_mpf(alpha))
                        raise OrbitPoleError(f"pole within floor at orbit site {j}",
                                             dist=float(dist), step=j)
                    fv *= fac
                fs.append(fv)
            # (c cu - s su, s cu + c su) from three products, exactly
            k = cu * (c + s)
            c, s = (k - s * sp_u + half) >> W, (k + c * sm_u + half) >> W
    return _SiteTerms(W, -W * pot.m, fs, gs)


def _site_pairs(E, terms: _SiteTerms, prec: int) -> list[tuple[int, int]]:
    """S_j = (E f_j - g_j) / f_j for every site of ``terms``, as (m, e) pairs
    rounded once to prec bits, to nearest with ties to even.  E is taken at
    the walk's W bits, and E f - g is formed exactly as an integer times a
    power of 2.  Without poles (f = 1) that integer is rounded; otherwise one
    integer division rounds the quotient (``arithmetic.pair_rounding``)."""
    rnd, div = pair_rounding(prec)
    with mp.workprec(terms.W):
        sign, man, e_exp, _ = as_mpf(E)._mpf_
    e_int = -man if sign else man
    if terms.f is None:
        out = []
        for g, g_exp in terms.g:
            e0 = min(e_exp, g_exp)
            out.append(rnd((e_int << (e_exp - e0)) - (g << (g_exp - e0)), e0))
        return out
    f_exp = terms.f_exp
    ef_exp = e_exp + f_exp
    out = []
    for f, (g, g_exp) in zip(terms.f, terms.g):
        e0 = min(ef_exp, g_exp)
        out.append(div((e_int * f << (ef_exp - e0)) - (g << (g_exp - e0)), f,
                       e0 - f_exp))
    return out


def site_values(pot: MeromorphicPotential, E, theta, alpha, start: int,
                stop: int) -> list:
    """S_j = E - V(theta + j alpha) for j in [start, stop), one orbit pass,
    rounded to the current working precision prec.

    The pass has an energy-free part, ``_site_terms``, and an energy step,
    ``_site_pairs``, so that a caller with several energies (the
    certificates) walks a window once per precision.  The phasor
    (c, s) = (cos pi x_j, sin pi x_j) is walked as W-bit fixed-point
    integers, W = prec + ceil(log2(n)) + 32 over the n sites: each site
    rotates it by (cos pi alpha, sin pi alpha) with three integer
    multiplies, each coordinate rounded to nearest, so its absolute error
    stays about n 2^-W before the final rounding to prec.  On this walk:

      * f is f_sign times the pole factors 2 sin(pi (x_j - p)) =
        2 (s cos pi p - c sin pi p), each an integer rounded to W bits
        (f = 1 without poles, as in ``eval_V``);
      * g is a registry g's lam poly(c, s) (``g.fixed_phasor``), exact, or
        else a user g evaluated at x_j at W bits;
      * S_j = (E f - g) / f as an (m, e) integer pair, with E f - g formed
        exactly as an integer times a power of 2 and the quotient rounded
        once to prec by one integer division.  Without poles E - g is
        rounded once, with no division.

    The pole test reads the same factors: |2 sin(pi (x - p))| rises with the
    torus distance from x to p, so the first site with a factor no larger
    than 2 sin(pi eps_floor) (at W bits) raises OrbitPoleError with its j and
    its mp ``pole_distance``.  Up to the walk's error of about n 2^-W, this
    is the test pole_distance(x_j) <= eps_floor.  A non-finite E raises
    InvalidInputError before the walk.  The pairs are returned as mpf
    values, exactly.
    """
    check_energy(E)
    prec = mp.mp.prec
    pairs = _site_pairs(E, _site_terms(pot, theta, alpha, start, stop, prec), prec)
    make = mp.make_mpf
    return [make(from_man_exp(m, e)) for m, e in pairs]


def _man_exp(v: mp.mpf, j: int) -> tuple[int, int]:
    """A user g's value at orbit site j as a signed mantissa and exponent."""
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        raise NumericError(f"g is not finite at orbit site {j}: {v}")
    return -man if sign else man, exp


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
