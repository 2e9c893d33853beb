"""Bit-identity of the certificate pass against its mpf-object form.

``potential._site_terms`` walks the phasor as fixed-point integers,
``potential._site_pairs`` forms the sites from it (``oracles.site_values``
reads them as mpf values) and ``gordon.gordon_matrices`` steps its
products on (m, e) integer pairs, rounded by ``gordon._pair_ops``.  The
oracles below are the same computations written with mpf objects: the
phasor advanced by one complex multiply per site at the same guard
precision, and the fused product/difference loop as mpf expressions.  Results must agree bit for bit
(``_mpf_`` tuples equal).  ``_pair_ops`` is also checked one operation at a
time against libmp's mpf_mul, mpf_add and mpf_sub, and the site pass's
rounding and division (``arithmetic.pair_rounding``) against from_man_exp
and mpf_div.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_sub

from qpspec import (gordon_matrices, golden_cf, liouville_cf, make_amo,
                    make_custom, make_maryland)
from qpspec.arithmetic import as_mpf, pair_rounding
from qpspec.cocycle import TransferMatrix2
from qpspec.gordon import _pair_ops

from oracles import site_values


def _oracle_sites(pot, E, theta, alpha, start, stop, phasor):
    """S_j with mpf objects: the phasor z_j = e^{i pi x_j} advanced by one
    complex multiply at prec + ceil(log2(n)) + 32 bits, g through the mpf
    ``phasor(c, s)``, rounded to prec."""
    n = stop - start
    prec = mp.mp.prec
    out = []
    with mp.workprec(prec + (n - 1).bit_length() + 32):
        Ev = as_mpf(E)
        av = as_mpf(alpha)
        x0 = as_mpf(theta) + start * av
        c, s = mp.cospi(x0), mp.sinpi(x0)
        cu, su = mp.cospi(av), mp.sinpi(av)
        poles = [(2 * mp.cospi(as_mpf(pl)), 2 * mp.sinpi(as_mpf(pl)))
                 for pl in pot.poles]
        for i in range(n):
            gv = phasor(c, s)
            if pot.m:
                fv = mp.mpf(1)
                for cp, sp in poles:
                    fv *= s * cp - c * sp
                gv = gv / fv
            out.append(Ev - gv)
            c, s = c * cu - s * su, s * cu + c * su
    with mp.workprec(prec):
        return [+v for v in out]


def _oracle_loop(S, q):
    """The fused loop over S = sites [-q, 2q) as mpf expressions: A_q and
    the two differences, stepped by the shifted sites, then the shifted
    products read off them, as 20 entries in GordonMatrices order (A_back,
    A_q, A_2q's left factor A_q(theta + q alpha), D_fwd, D_back)."""
    one, zero = mp.mpf(1), mp.mpf(0)
    a, b, c, d = one, zero, zero, one
    xa = xb = xc = xd = ya = yb = yc = yd = zero
    for s, sm, sp in zip(S[q:2 * q], S[:q], S[2 * q:]):
        t, u = s - sp, s - sm
        xa, xb, xc, xd = sp * xa - xc + t * a, sp * xb - xd + t * b, xa, xb
        ya, yb, yc, yd = sm * ya - yc + u * a, sm * yb - yd + u * b, ya, yb
        a, b, c, d = s * a - c, s * b - d, a, b
    P, D_fwd, D_back = (a, b, c, d), (xa, xb, xc, xd), (ya, yb, yc, yd)
    return (*(p - x for p, x in zip(P, D_back)), *P,
            *(p - x for p, x in zip(P, D_fwd)), *D_fwd, *D_back)


with mp.workprec(200):
    _LAM_200 = mp.mpf("0.1")  # a coupling wider than a float

# potentials with the mpf phasor of their g as the mpf-object pass wrote it
_SITE_CASES = {
    "amo": (make_amo(2.0), lambda c, s: 2.0 * (c * c - s * s)),
    "maryland": (make_maryland(0.7), lambda c, s: -1.4 * s),
    "two-pole-cos2pi": (make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi",
                                    coupling=0.8),
                        lambda c, s: 0.8 * (c * c - s * s)),
    "sin2pi": (make_custom([Fraction(1, 5), Fraction(3, 5)], "sin2pi",
                           coupling=1.3),
               lambda c, s: 1.3 * 2 * c * s),
    "const": (make_custom([Fraction(1, 4), Fraction(2, 7)], "const", coupling=0.9),
              lambda c, s: mp.mpf(0.9)),
    "mpf-coupling": (make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi",
                                 coupling=_LAM_200),
                     lambda c, s: _LAM_200 * (c * c - s * s)),
}


@pytest.mark.parametrize("prec", [120, 650, 2300])
@pytest.mark.parametrize("name", list(_SITE_CASES))
def test_site_values_match_the_mpf_phasor_walk(name, prec):
    pot, phasor = _SITE_CASES[name]
    alpha = golden_cf(40).value
    with mp.workprec(prec):
        got = site_values(pot, 0.4, Fraction(1, 7), alpha, -300, 600)
        expect = _oracle_sites(pot, 0.4, Fraction(1, 7), alpha, -300, 600, phasor)
    mismatched = [j for j, (x, y) in enumerate(zip(got, expect), -300)
                  if x._mpf_ != y._mpf_]
    assert len(got) == 900 and mismatched == []


@pytest.mark.parametrize("pot, phasor, cf, level, E, theta", [
    (make_amo(2.0), _SITE_CASES["amo"][1], golden_cf(20), 6, 0.4, Fraction(1, 7)),
    (make_amo(2.0), _SITE_CASES["amo"][1], liouville_cf(1.12, 4), 3, 0.5,
     Fraction(1, 10)),
    (make_maryland(0.15), lambda c, s: -0.3 * s, liouville_cf(1.0, 4), 3, 0.0,
     Fraction(3, 8)),
    (make_amo(2.0), _SITE_CASES["amo"][1], liouville_cf(math.log(4), 4), 3, 0.5,
     Fraction(1, 10)),
    (*_SITE_CASES["two-pole-cos2pi"], golden_cf(20), 9, 0.4, Fraction(1, 7)),
], ids=["amo-q13", "amo-q276", "maryland-q57", "amo-q1026", "two-pole-q55"])
def test_gordon_matrices_match_the_mpf_loop(pot, phasor, cf, level, E, theta):
    q = cf.q[level]
    mats = gordon_matrices(pot, E, theta, cf.value, q)
    with mp.workprec(mats.precision):
        S = _oracle_sites(pot, E, theta, cf.value, -q, 2 * q, phasor)
        entries = _oracle_loop(S, q)
        A_2q = TransferMatrix2(*entries[8:12]).matmul(TransferMatrix2(*entries[4:8]))
    expect = (*entries[:8], A_2q.a, A_2q.b, A_2q.c, A_2q.d, *entries[12:])
    got = [getattr(m, k) for m in (mats.A_back, mats.A_q, mats.A_2q,
                                   mats.D_fwd, mats.D_back) for k in "abcd"]
    assert [x._mpf_ for x in got] == [y._mpf_ for y in expect]


# the pair arithmetic of the fused loop against libmp, operation by operation

_FAR = 10 ** 5  # exponent gaps up to this many bits reach libmp's sticky path


@st.composite
def _pair_operands(draw):
    """(prec, x, y): a working precision and two (m, e) pairs of at most
    prec significant bits, the fused loop's domain: every drawn pair goes
    through ``rnd``, and may keep trailing zero bits.  The mantissas are
    random, zero, x's own negation, a product that is an exact tie at prec
    bits, a sum or difference that is one, or a tie at prec bits broken by
    a low unit of y.  The exponents lie up to 10^5 bits apart, where
    mpf_add replaces the smaller operand by a sticky bit."""
    prec = draw(st.integers(53, 2400))
    rnd = pair_rounding(prec)[0]
    e1 = draw(st.integers(-_FAR, _FAR))
    e2 = e1 + draw(st.integers(-_FAR, _FAR))
    kind = draw(st.sampled_from(["random", "zero", "cancel", "tie", "tie-sum",
                                 "tie-broken"]))
    sign = st.sampled_from([1, -1])

    def mantissa():
        bits = draw(st.integers(1, 3 * prec))
        return draw(st.integers(-(1 << bits) + 1, (1 << bits) - 1))

    # kept has prec bits, either parity, either sign
    kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    kept = (kept - kept % 2 + draw(st.integers(0, 1))) * draw(sign)
    if kind == "random":
        m1, m2 = mantissa(), mantissa()
    elif kind == "zero":
        m1, m2 = mantissa(), 0
    elif kind == "cancel":
        m1 = mantissa()
        m2, e2 = -m1, e1
    elif kind == "tie":
        # an odd prec-bit kept below 2^(prec+1)/3 times 3 has prec + 1 bits
        # and ends in the half bit: the product rounds to even, however far
        # apart the exponents lie
        kept = draw(st.integers(1 << (prec - 2), ((1 << (prec + 1)) - 4) // 6))
        m1, m2 = (2 * kept + 1) * draw(sign), 3 * draw(sign)
    elif kind == "tie-sum":
        # the sum and the difference are 2 kept +- 1, ties
        m1, m2, e2 = 2 * kept, draw(sign), e1
    else:
        # y is half an ulp of x plus or minus a unit j bits lower, j < prec
        # so that y keeps at most prec bits: the sum and the difference lie
        # one low unit beside a tie, the lowest unit that two prec-bit
        # operands can put beside one
        j = draw(st.integers(1, prec - 1))
        m1, m2, e2 = kept, ((1 << j) + draw(sign)) * draw(sign), e1 - 1 - j
    zeros = draw(st.integers(0, 200))
    x, y = rnd(m1 << zeros, e1 - zeros), rnd(m2, e2)
    return (prec, y, x) if draw(st.booleans()) else (prec, x, y)


@given(_pair_operands())
@settings(max_examples=400, deadline=None)
def test_pair_ops_match_libmp(case):
    prec, x, y = case
    mul, add, sub = _pair_ops(prec)
    fx, fy = from_man_exp(*x), from_man_exp(*y)
    for op, libmp_op in ((mul, mpf_mul), (add, mpf_add), (sub, mpf_sub)):
        assert from_man_exp(*op(x, y)) == libmp_op(fx, fy, prec, "n")


# the site pass's rounding and division against libmp

@st.composite
def _rounding_operands(draw):
    """(prec, m, den, e): a working precision, a signed mantissa m, a nonzero
    signed divisor and an exponent.  m is random up to 3 prec bits, zero,
    an exact multiple of den, (2 kept + 1) den (so that m / den and, for
    den = 1, m itself are exact ties at prec bits, with an odd or an even
    kept part), or one unit beside such a tie; m and den may carry trailing
    zero bits."""
    prec = draw(st.integers(53, 2400))
    sign = st.sampled_from([1, -1])

    def mantissa(lo=1):
        bits = draw(st.integers(lo, 3 * prec))
        return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))

    den = draw(st.just(1) | st.integers(2, 2**64) | st.builds(mantissa))
    kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    kept += kept % 2 != draw(st.integers(0, 1))  # either parity
    kind = draw(st.sampled_from(["random", "zero", "exact", "tie", "near-tie"]))
    if kind == "random":
        m = mantissa()
    elif kind == "zero":
        m = 0
    elif kind == "exact":
        m = mantissa() * den
    elif kind == "tie":
        m = (2 * kept + 1) * den
    else:
        # a remainder of +-1 lies below the half bit: only a sticky bit
        # tells this quotient from the tie
        m = (2 * kept + 1) * den + draw(sign)
    m <<= draw(st.integers(0, 200))
    den <<= draw(st.integers(0, 200))
    return (prec, m * draw(sign), den * draw(sign),
            draw(st.integers(-10 ** 5, 10 ** 5)))


@given(_rounding_operands())
@settings(max_examples=400, deadline=None)
def test_site_rounding_matches_from_man_exp(case):
    prec, m, den, e = case
    rnd, _ = pair_rounding(prec)
    # m itself, and for den = 1 the ties and near-ties at prec bits
    assert from_man_exp(*rnd(m, e)) == from_man_exp(m, e, prec, "n")


@given(_rounding_operands())
@settings(max_examples=400, deadline=None)
def test_site_division_matches_mpf_div(case):
    prec, num, den, e = case
    _, div = pair_rounding(prec)
    expect = mpf_div(from_man_exp(num, e), from_man_exp(den, 0), prec, "n")
    assert from_man_exp(*div(num, den, e)) == expect
