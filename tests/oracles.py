"""Reference computations that tests compare the package against.

Plain forms of quantities that no command needs: each registry g in
closed form, the site values as mpf numbers, a formal solution by the
three-term recurrence, the mean of ln|f| by quadrature, and a cocycle's
growth at the exact orbit phases.
"""

import mpmath as mp
from mpmath.libmp import from_man_exp

from qpspec.arithmetic import as_mpf
from qpspec.cocycle import spectral_norm_2x2
from qpspec.potential import _site_pairs, _site_terms

# each registry g at coupling 1 in closed form, independent of its
# polynomial in (cos pi x, sin pi x)
_G_CLOSED = {
    "cos2pi": lambda x: mp.cospi(2 * x),
    "sin2pi": lambda x: mp.sinpi(2 * x),
    "sinpi": mp.sinpi,
    "const": lambda x: mp.mpf(1),
}


def g_closed(pot, x):
    """pot's g at an mp scalar x from the closed form of its registry g."""
    return pot.coupling * _G_CLOSED[pot.g_name](as_mpf(x))


def site_values(pot, E, theta, alpha, start, stop):
    """S_j = E - V(theta + j alpha) for j in [start, stop), from the
    certificate's site pass at the current working precision, as mpf
    numbers (exactly its (m, e) pairs)."""
    prec = mp.mp.prec
    pairs = _site_pairs(E, _site_terms(pot, theta, alpha, start, stop, prec), prec)
    return [mp.make_mpf(from_man_exp(m, e)) for m, e in pairs]


def solution(pot, E, theta, alpha, v, k_min, k_max):
    """{k: phi_k} for k_min <= k <= k_max (k_min < 0 <= k_max) of the
    solution of phi_{k+1} + phi_{k-1} = (E - V(theta + k alpha)) phi_k with
    (phi_0, phi_{-1}) = v, stepped both ways from 0 at the current working
    precision; it reads the sites strictly between k_min and k_max only."""
    s = dict(zip(range(k_min + 1, k_max),
                 site_values(pot, E, theta, alpha, k_min + 1, k_max)))
    phi = {0: as_mpf(v[0]), -1: as_mpf(v[1])}
    for k in range(k_max):
        phi[k + 1] = s[k] * phi[k] - phi[k - 1]
    for k in range(-1, k_min, -1):
        phi[k - 1] = s[k] * phi[k] - phi[k + 1]
    return phi


def log_f_integral(pot):
    """Quadrature of ln|f| over one period at 30 digits, split at the poles;
    the normalised f makes it vanish."""
    with mp.workdps(30):
        pts = sorted({mp.mpf(0), mp.mpf(1), *(as_mpf(pl) for pl in pot.poles)})
        return float(mp.quad(lambda t: mp.log(abs(pot.f(t))), pts))


def ln_norm(pot, E, theta, alpha, n, kind):
    """(1/n) ln||M_n(theta)|| of the A cocycle (steps [[E - V, -1], [1, 0]])
    or of its regular part D (steps [[E f - g, -f], [f, 0]]) at the exact
    phases theta + j alpha, j < n, theta and alpha taken as their binary
    values, from the step-by-step product at 40 digits with the reference
    f and the closed-form g."""
    with mp.workdps(40):
        x, a, E = as_mpf(theta), as_mpf(alpha), as_mpf(E)
        p, q, r, s = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for j in range(n):
            xj = x + j * a
            f, g = (pot.f(xj) if pot.m else mp.mpf(1)), g_closed(pot, xj)
            st, ft = (E - g / f, 1) if kind == "A" else (E * f - g, f)
            p, q, r, s = st * p - ft * r, st * q - ft * s, ft * p, ft * q
        return float(mp.log(spectral_norm_2x2(p, q, r, s)) / n)
