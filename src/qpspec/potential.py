"""Meromorphic sampling potentials V = g/f on the torus.

f is the product over poles of 2 sin(pi (x - theta_l)), so that |f(x)| =
prod_l |e^{2 pi i x} - e^{2 pi i theta_l}| and the mean of ln|f| over the
torus vanishes.  g is a coupling times a registry polynomial
(``G_REGISTRY``) in the phasor (cos pi x, sin pi x), so a potential is its
poles, the name of its g and the coupling.  Built-in families: the cosine
model (no poles) and the tangent model (single pole at 1/2).

Every engine evaluates f and g as polynomials in the phasor (cos pi x,
sin pi x): ``f`` and ``g`` on mp scalars, the float engines through
``MeromorphicPotential._f_and_g``, where f is
prod_l 2(s cos pi p_l - c sin pi p_l), with the pole constants rounded
once per potential, and g is coupling * poly(c, s).  ``V_array``
takes the phasor from one tangent per float phase (``_phasor``); the
Lyapunov kernel rotates it from exact turns (``_OrbitPhasors``).
The site pass walks the same phasor as fixed-point integers.  Its
energy-free part, ``_site_terms``, forms f and g at every site and tests
for poles on the integer pole factors; its energy step, ``_site_pairs``,
forms each site as S = (E f - g) / f from the exact integer E f - g, as an
(m, e) integer pair rounded once.  So several energies can share one walk.

Every walk along an orbit theta + j alpha goes through one of four
functions: ``orbit`` (float64 phases, vectorised over base points),
``_OrbitPhasors`` (float64 phasors by exact block rotation),
``arithmetic.orbit_norms`` (exact P-bit fixed-point phases mod 2^P, as
integer torus norms, one at a time) and ``_site_terms`` (the W-bit phasor
walk behind the site values E - V along a window at working precision).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, NamedTuple, Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import to_fixed

from .arithmetic import (
    ContinuedFraction,
    IndexValue,
    as_mpf,
    exact_fraction,
    ln_low,
    pair_rounding,
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
    "check_energy",
    "f_product_check",
    "G_REGISTRY",
]


_HALF_PI = np.pi / 2


def _phasor(x: np.ndarray, out):
    """(cos pi x, sin pi x) on an array, from one tangent per site:
    t = tan(pi x / 2), then c = 2/(1 + t^2) - 1 and s = 2t/(1 + t^2).

    ``out`` is two float buffers shaped like x that receive c and s.  For x
    in [0, 1] both values are within 2e-15 of the exact ones when np.tan is
    within 4 ulp (``MeromorphicPotential._f_near_pole`` has the bound, and
    ``tests/test_potential.py`` checks it against mp)."""
    c, s = out
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


# name -> (degree, poly), g = coupling * poly(c, s) at the phasor
# (c, s) = (cos pi x, sin pi x): poly is an integer polynomial, homogeneous
# of the given degree, so for c and s as W-bit fixed-point integers
# g(x) = coupling * poly(c, s) * 2^(-degree W).  ``_site_terms`` evaluates g
# along an orbit through it on integers, without trig calls, the float
# engines on the float phasor (W = 0) and ``MeromorphicPotential.g`` on mp
# scalars.
G_REGISTRY: dict[str, tuple[int, Callable]] = {
    "cos2pi": (2, lambda c, s: (c - s) * (c + s)),
    "sin2pi": (2, lambda c, s: 2 * c * s),
    "sinpi": (1, lambda c, s: s),
    "const": (0, lambda c, s: 1),
}


@dataclass(frozen=True)
class MeromorphicPotential:
    """V = g/f with poles listed with multiplicity (repeats) and
    g = coupling * poly(cos pi x, sin pi x), poly the registry polynomial
    named ``g_name`` (``G_REGISTRY``).  An unknown name and a non-finite
    coupling are refused.  With poly of degree d, V(x + 1) = (-1)^(m + d)
    V(x); an odd m + d, which gives no potential on the torus, is refused.
    ``eps_floor`` is the pole floor of every engine.
    """

    poles: tuple
    g_name: str
    coupling: object
    label: str
    eps_floor: ClassVar[float] = 1e-12

    def __post_init__(self):
        if self.g_name not in G_REGISTRY:
            raise InvalidInputError(
                f"unknown g {self.g_name!r}; registry: {sorted(G_REGISTRY)}")
        if not mp.isfinite(self.coupling):
            raise InvalidInputError(f"coupling must be finite, got {self.coupling!r}")
        degree = G_REGISTRY[self.g_name][0]
        if (self.m + degree) % 2:
            raise InvalidInputError(
                f"{self.m} pole(s) and g of degree {degree} give V(x + 1) = "
                "-V(x): the pole count plus the degree of g must be even")

    @property
    def m(self) -> int:
        return len(self.poles)

    def f(self, x):
        """Normalised f at an mp scalar; |f| is the product of chord
        lengths."""
        acc = mp.mpf(1)
        for pl in self.poles:
            acc *= 2 * mp.sinpi(as_mpf(x) - as_mpf(pl))
        return acc

    def g(self, x):
        """g at an mp scalar: coupling * poly(cos pi x, sin pi x)."""
        x = as_mpf(x)
        poly = G_REGISTRY[self.g_name][1]
        return self.coupling * mp.mpf(poly(mp.cospi(x), mp.sinpi(x)))

    @functools.cached_property
    def _pole_phasors(self) -> tuple[tuple[float, float], ...]:
        """(2 cos pi p, 2 sin pi p) per pole, each rounded once from mp
        (exact at half-integers)."""
        with mp.workprec(113):
            return tuple((float(2 * mp.cospi(p)), float(2 * mp.sinpi(p)))
                         for p in map(as_mpf, self.poles))

    @functools.cached_property
    def _near_pole_terms(self) -> tuple[float, float]:
        """2^m and the slack (1 + max |p|) 1e-14 of ``_f_near_pole``, which
        do not depend on eps."""
        p_max = max(abs(float(pl)) for pl in self.poles)
        return 2.0 ** self.m, (1.0 + p_max) * 1e-14

    def _f_near_pole(self, eps: float) -> float:
        """A bound on the float |f| at every x in [0, 1] with
        pole_distance(x) <= eps, from the rounding of f on arrays.

        f's factor of pole p is 2 (s cos pi p - c sin pi p) on a float
        phasor (c, s), with both constants rounded once.  A phasor of
        ``_phasor`` is (cos, sin) of an angle within 1.3e-15 of pi x:
        rounding pi x / 2 costs 1.7e-16 of the half angle and a tangent
        within 4 ulp at most 4.5e-16 (atan moves by at most half the
        relative error of t), both doubled; the rational map then adds at
        most 6.7e-16 to c (2/(1 + t^2) is at most 2 and carries the roundings
        of t^2, of 1 + t^2 and of the division, 3 ulp; subtracting 1 is exact
        where 2/(1 + t^2) >= 1/2 and rounds by less than 5.6e-17 elsewhere)
        and 3.4e-16 to s.  With the roundings of the constants and of
        s cp - c sp, the factor is within e = 5e-15 of 2 sin(pi (x - p)).
        A phasor of ``_OrbitPhasors`` is within 1.6e-15 of e^{i pi x}, x the
        exact site; that moves the factor by 3.2e-15 (the constants have
        modulus 2), the rounded constants by 3.1e-16 and the three roundings
        of s cp - c sp by 6.7e-16: 4.2e-15 in all.  pole_distance takes
        t = fl(x - p) and wraps mod 1 once, so d <= eps puts x within
        eps + (1 + |p|) 3.4e-16 of p (and a rotated site, whose distance is
        taken at its exact phase rounded once, 5.6e-17 further); there the
        factor is at most 2 pi eps + (1 + |p|) 2.6e-15 + e.  Every other
        factor is at most 2 + e.  So |f| <= 2^m (4 eps + slack), slack =
        (1 + max |p|) 1e-14 covering the additive terms with room, and
        4 - pi absorbing the relative roundings of the m-factor product.  A
        site exactly on a pole keeps an |f| of 0 or of rounding size (4.4e-16
        for the tangent phasor of the tangent model at x = 1/2).
        """
        scale, slack = self._near_pole_terms
        return scale * (4.0 * eps + slack)

    def _f_and_g(self, work) -> tuple[np.ndarray | None, np.ndarray]:
        """f (None when pole-free) and g at an array of sites: the float
        engines' only f and g.  ``work`` is five float buffers shaped like
        the sites, the phasor (c, s) in work[1] and work[2]; f lands in
        work[0] and g = coupling * poly(c, s) over s, and work[3] and work[4]
        are scratch for the later factors and for a factor with two nonzero
        constants.  A factor with a zero constant (a pole at an integer or
        half-integer) is one multiply, exact but for the sign of a zero."""
        c, s = work[1], work[2]
        f = None
        if self.m:
            # prod_l 2 (s cos pi p_l - c sin pi p_l)
            f = work[0]
            for i, (cp, sp) in enumerate(self._pole_phasors):
                fac = work[3] if i else f
                if cp == 0:
                    np.multiply(c, -sp, out=fac)
                else:
                    np.multiply(s, cp, out=fac)
                    if sp:
                        fac -= np.multiply(c, sp, out=work[4])
                if i:
                    f *= fac
        poly = G_REGISTRY[self.g_name][1]
        return f, np.multiply(poly(c, s), float(self.coupling), out=s)

    def pole_distance(self, x):
        """Torus distance from x, a float array or a scalar (taken as an
        mpf), to the nearest pole; +inf when pole-free."""
        if isinstance(x, np.ndarray):
            d = np.full_like(x, np.inf, dtype=float)
            for pl in self.poles:
                r = np.mod(x - float(pl), 1.0)
                d = np.minimum(d, np.minimum(r, 1.0 - r))
            return d
        return min((torus_norm(as_mpf(x) - as_mpf(pl)) for pl in self.poles),
                   default=math.inf)

    def V_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorised V for the float engines, from the tangent phasor."""
        work = _buffers(x)
        _phasor(x, work[1:3])
        return self._V_and_near(work, lambda idx: x.flat[idx])[0]

    def _V_and_near(self, work, phases: Callable):
        """V at an array of sites (``work`` as for ``_f_and_g``; V lands in
        work[2]), and (flat index, pole distance) of the sites whose |f|
        admits ``_f_near_pole(eps_floor)`` (None when pole-free), so the
        A-kind pole mask reads |f| once with V; ``phases(idx)`` gives the
        float phases of the sites at flat indices idx.

        At a site exactly on a pole (pole_distance 0), where f is 0 or of
        rounding size, and wherever |f| < 1e-300, f is set to +1e-300, so
        such a site reads as a pole whatever the coupling, and V there takes
        the sign of g; as eps_floor >= 0, the sites under ``_f_near_pole(0)``
        that this tests are among those returned."""
        fv, gv = self._f_and_g(work)
        if fv is None:
            return gv, None
        absf = np.abs(fv, out=work[1])
        idx = np.flatnonzero(absf <= self._f_near_pole(self.eps_floor))
        dist = np.empty(0)
        if idx.size:
            dist = self.pole_distance(phases(idx))
            af = absf.flat[idx]
            hit = (af <= self._f_near_pole(0.0)) & ((af < 1e-300) | (dist == 0))
            fv.flat[idx[hit]] = 1e-300
        return np.divide(gv, fv, out=work[2]), (idx, dist)


# ---------------------------------------------------------------------------
# built-in families and custom potentials


def make_amo(lam: float) -> MeromorphicPotential:
    """Cosine model: no poles, V(x) = lam * cos 2 pi x."""
    return MeromorphicPotential((), "cos2pi", float(lam), "amo")


def make_maryland(lam: float) -> MeromorphicPotential:
    """Tangent model: single pole at 1/2, V(x) = lam * tan pi x.

    Factored as g(x) = -2 lam sin pi x over the normalised single-pole
    f(x) = 2 sin(pi (x - 1/2)) = -2 cos pi x.
    """
    lam = float(lam)
    if not abs(lam) < 2.0 ** 1023:  # inf, nan, or -2 lam overflows
        raise InvalidInputError(
            f"coupling must be finite with |coupling| < 2**1023, got {lam!r}")
    if lam == 0:
        raise DegenerateModelError("tangent model needs a nonzero coupling")
    return MeromorphicPotential((Fraction(1, 2),), "sinpi", -2 * lam, "maryland")


def make_custom(poles: Sequence, g_name: str,
                coupling: float = 1.0) -> MeromorphicPotential:
    """Custom potential from a pole list and the registry g named ``g_name``
    at ``coupling``.  Poles may repeat to encode multiplicity."""
    pot = MeromorphicPotential(tuple(poles), g_name, coupling, "custom")
    _check_no_spurious_pole(pot)
    return pot


def _check_no_spurious_pole(pot: MeromorphicPotential):
    """Refuse a pole where g vanishes, relative to the coupling: a zero
    coupling, or |g(p)| < 1e-12 |coupling|."""
    for pl in pot.poles:
        if pot.coupling == 0 or abs(pot.g(pl) / pot.coupling) < 1e-12:
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
    """Float phases (theta + j alpha) mod 1 for j in [start, stop), each
    mod(float(j) alpha + theta, 1); a 1-D array of base points theta gives
    one column per base point."""
    y = np.add.outer(np.arange(start, stop, dtype=float) * alpha, theta)
    # y - floor(y) is the exact fractional part rounded once, as np.mod(y, 1)
    # gives it, at a fraction of the cost
    y -= np.floor(y)
    return y


# rows of the phasor table of ``_OrbitPhasors``: a fixed constant, so that a
# site's phasor depends on its step and base point only, never on how a
# caller cuts the rows into chunks
PHASOR_ROWS = 8


def _half_turn_phasor(num: int, den: int) -> tuple[float, float]:
    """(cos pi y, sin pi y) at y = num / den for integers num and den > 0.
    y is reduced exactly, to the nearest multiple k/2 and a rest r with
    |r| <= 1/4, r is rounded once, and math.cos and math.sin take pi r; the
    k quarter turns are exact."""
    v = (2 * num) % (4 * den)  # 2 y mod 4: quarter turns are multiples of den
    k = (2 * v + den) // (2 * den)
    a = math.pi * ((v - k * den) / (2 * den))
    c, s = math.cos(a), math.sin(a)
    return ((c, s), (-s, c), (-c, -s), (s, -c))[k % 4]


class _OrbitPhasors:
    """Phasors (cos pi x, sin pi x) at x = theta_k + (i + o_g) alpha, laid
    out as (rows i, offsets o_g, base points theta_k), with no float phase
    and no tangent.  A table of PHASOR_ROWS rows, built once, holds
    e^{i pi theta_k} e^{i pi (r + o_g) alpha}; row i = b PHASOR_ROWS + r is
    table row r times e^{i pi b PHASOR_ROWS alpha}, four multiplies by a
    scalar and two adds per site.  Each scalar phasor comes from its exact
    turn (``_half_turn_phasor``; theta and alpha are binary fractions) and
    is within 3.62e-16: 2.05e-16 from the rest angle pi r (the roundings of
    r and of pi r, and the error of the float pi) and 1.57e-16 from
    math.cos and math.sin within 1 ulp.  A complex product adds
    sqrt(5) 2^-53 = 2.48e-16 to the errors of its factors, so a table entry
    is within 9.72e-16 and a site within 1.59e-15 of its phasor, at any
    step (``tests/test_potential.py`` checks it against mp).  A site's
    value depends only on (i, o_g, theta_k)."""

    def __init__(self, theta: np.ndarray, alpha: float, offsets: Sequence[int]):
        self._p, self._q = float(alpha).as_integer_ratio()
        self._theta = [t.as_integer_ratio() for t in map(float, theta)]
        self._offsets = [int(o) for o in offsets]
        tc, ts = np.array([_half_turn_phasor(*t) for t in self._theta]).T
        jc, js = np.moveaxis(np.array([[_half_turn_phasor((r + o) * self._p, self._q)
                                        for o in self._offsets]
                                       for r in range(PHASOR_ROWS)]), -1, 0)[..., None]
        self._table = (jc * tc - js * ts, js * tc + jc * ts)

    def fill(self, start: int, out, scratch: np.ndarray):
        """The phasors of rows [start, start + r) into ``out``, two float
        buffers shaped (r, offsets, base points) that receive c and s;
        ``scratch`` is one more such buffer.  The rows are whole blocks or a
        piece of one (else ValueError), each block rotated by its own scalar
        in one broadcast call per operation.  Returns out."""
        r = out[0].shape[0]
        b, lo = divmod(start, PHASOR_ROWS)
        if lo + r > PHASOR_ROWS and (lo or r % PHASOR_ROWS):
            raise ValueError(f"rows [{start}, {start + r}) straddle a phasor block")
        hi = min(PHASOR_ROWS, lo + r)
        rc, rs = np.array([_half_turn_phasor(i * PHASOR_ROWS * self._p, self._q)
                           for i in range(b, b + max(1, r // PHASOR_ROWS))]
                          ).T.reshape(2, -1, 1, 1, 1)
        tc, ts = (v[lo:hi] for v in self._table)
        c, s, scratch = (v.reshape(-1, hi - lo, *v.shape[1:]) for v in (*out, scratch))
        np.multiply(tc, rc, out=c)
        c -= np.multiply(ts, rs, out=scratch)
        np.multiply(ts, rc, out=s)
        s += np.multiply(tc, rs, out=scratch)
        return out

    def phases(self, start: int, idx: np.ndarray) -> np.ndarray:
        """The phases x mod 1 of the sites at flat indices idx of rows
        [start, ...), each exact before one rounding."""
        K, G = len(self._theta), len(self._offsets)
        alpha = Fraction(self._p, self._q)
        return np.array([
            float((Fraction(*self._theta[f % K])
                   + (start + f // (G * K) + self._offsets[f // K % G]) * alpha) % 1)
            for f in idx.tolist()])


def check_energy(E) -> None:
    """Refuse an infinite or NaN energy (InvalidInputError)."""
    if not mp.isfinite(as_mpf(E)):
        raise InvalidInputError(f"energy must be finite, got {E}")


class _SiteTerms(NamedTuple):
    """The energy-free part of the site pass over a window: f_j 2^f_exp and
    g_j 2^g_exp at every site, from the W-bit phasor walk.  ``f`` is None
    when the potential is pole-free (f = 1)."""

    W: int
    f_exp: int
    g_exp: int
    f: list | None
    g: list


def _site_terms(pot: MeromorphicPotential, theta, alpha, start: int,
                stop: int, prec: int) -> _SiteTerms:
    """Walk the phasor (c, s) = (cos pi x_j, sin pi x_j), x_j = theta +
    j alpha, for j in [start, stop) as W-bit fixed-point integers, W = prec
    + ceil(log2(n)) + 32 over the n sites, and return f and g at each site.
    Each site rotates the phasor by (cos pi alpha, sin pi alpha) with three
    integer multiplies, each coordinate rounded to nearest, so its absolute
    error stays about n 2^-W.  f is the product of the pole factors
    2 sin(pi (x_j - p)) = 2 (s cos pi p - c sin pi p), each an integer
    rounded to W bits (f = 1 without poles, as in ``eval_V``), and g is
    coupling * poly(c, s) from ``G_REGISTRY``, exact.

    The pole test reads the same factors: |2 sin(pi (x - p))| rises with the
    torus distance from x to p, so the first site with a factor no larger
    than 2 sin(pi eps_floor) (at W bits) raises OrbitPoleError with its j and
    its mp ``pole_distance``.  Up to the walk's error of about n 2^-W, this
    is the test pole_distance(x_j) <= eps_floor.  Nothing here depends on
    the energy, so several energies can share one walk."""
    theta = exact_fraction(theta) % 2  # exactly, mod the phasor's period
    n = stop - start
    lam, (degree, poly) = pot.coupling, G_REGISTRY[pot.g_name]
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
        # the coupling at W bits, converted once: exact for a float and for
        # an mpf of up to W bits
        sign, man, exp, _ = as_mpf(lam)._mpf_
        lam_man, g_exp = -man if sign else man, exp - degree * W
        poles = [(fix(2 * mp.cospi(as_mpf(pl))), fix(2 * mp.sinpi(as_mpf(pl))))
                 for pl in pot.poles]
        floor = fix(2 * mp.sinpi(min(pot.eps_floor, 0.5)))
        fs, gs = ([] if poles else None), []
        for i in range(n):
            gs.append(lam_man * poly(c, s))
            if poles:
                fv = 1
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
    return _SiteTerms(W, -W * pot.m, g_exp, fs, gs)


def _site_pairs(E, terms: _SiteTerms, prec: int) -> list[tuple[int, int]]:
    """S_j = (E f_j - g_j) / f_j = E - V(x_j) for every site of ``terms``,
    as (m, e) pairs rounded once to prec bits, to nearest with ties to even.
    E is taken at the walk's W bits, and E f - g is formed exactly as an
    integer times a power of 2.  Without poles (f = 1) that integer is
    rounded; otherwise one integer division rounds the quotient
    (``arithmetic.pair_rounding``).  E must be finite (``check_energy``):
    its mantissa would read inf or nan as 0."""
    rnd, div = pair_rounding(prec)
    with mp.workprec(terms.W):
        sign, man, e_exp, _ = as_mpf(E)._mpf_
    e_int = -man if sign else man
    g_exp = terms.g_exp
    if terms.f is None:
        e0 = min(e_exp, g_exp)
        e_int, g_sh = e_int << (e_exp - e0), g_exp - e0
        return [rnd(e_int - (g << g_sh), e0) for g in terms.g]
    ef_exp = e_exp + terms.f_exp
    e0 = min(ef_exp, g_exp)
    ef_sh, g_sh, q_exp = ef_exp - e0, g_exp - e0, e0 - terms.f_exp
    return [div((e_int * f << ef_sh) - (g << g_sh), f, q_exp)
            for f, g in zip(terms.f, terms.g)]


def f_product_check(pot: MeromorphicPotential, theta, cf: ContinuedFraction,
                    n_i: int, epsilon: float,
                    delta_iv: IndexValue) -> tuple[float, float]:
    """Log of both sides of the orbit-product lower bound

        prod_{j<q_n} |f(theta + j alpha)|  >=  e^{q_n (delta_hat - eps)} / q_{n+1}

    at a qualifying level n_i of ``delta_iv``, the delta index of pot's
    poles at theta.  Returns (lhs_log, bound_log); the caller asserts
    lhs_log >= bound_log.  Pole-free potentials return trivially.
    ln|f| is summed over the poles, repeats included, each term the log of
    the orbit sine product of ``arithmetic.sine_product`` at theta - theta_l:
    the orbit runs at cf.precision, its sines and logs at LOG_PREC.
    """
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
