"""Acceptance gate: one test per shipped criterion, each reporting a single
pass/fail line in the terminal summary.  Tolerances are pinned here and
nowhere else."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import qpspec as qp
from qpspec.cli import main as cli_main

from conftest import ACCEPTANCE_LINES


def _report(num: int, ok: bool, detail: str):
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared heavy objects


@pytest.fixture(scope="module")
def md_config():
    """Tangent model at small coupling with growth-index-1 frequency."""
    cf = qp.liouville_cf(1.0, 4)
    pot = qp.make_maryland(0.15)
    theta = Fraction(3, 8)
    d = qp.delta_index(cf, theta, pot.poles)
    L = qp.lyapunov(pot, 0.0, cf.value, 20000).value
    return dict(cf=cf, pot=pot, theta=theta, E=0.0, eps=0.2, delta=d, L=L)


@pytest.fixture(scope="module")
def amo_config():
    """Cosine model at coupling 2 with growth index ~ ln 4."""
    cf = qp.liouville_cf(math.log(4.0), 4)
    pot = qp.make_amo(2.0)
    theta = Fraction(1, 10)
    d = qp.delta_index(cf, theta, pot.poles)
    L = qp.lyapunov(pot, 0.5, cf.value, 20000).value
    return dict(cf=cf, pot=pot, theta=theta, E=0.5, eps=0.15, delta=d, L=L)


@pytest.fixture(scope="module")
def smallness_results(md_config, amo_config):
    """Quantitative smallness checks at every feasible qualifying level of the
    two frozen configurations; shared between criteria 7 and 8."""
    results = []
    for cfg in (md_config, amo_config):
        feasible = [n for n in qp.qualifying_levels(cfg["delta"], cfg["eps"])
                    if cfg["cf"].q[n] <= 2000]
        for n_i in feasible:
            chk = qp.smallness_check(cfg["pot"], cfg["E"], cfg["theta"],
                                     cfg["cf"], n_i, cfg["eps"], cfg["L"],
                                     delta_iv=cfg["delta"])
            results.append((cfg, n_i, chk))
    return results


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_exact_denominator_gap_bounds():
    rng = random.Random(1234)
    cfs = [
        qp.golden_cf(32),
        qp.silver_cf(32),
        qp.liouville_cf(1.0, 32),
        qp.liouville_cf(2.0, 32, first_coeff=2),
    ]
    while len(cfs) < 10:
        cfs.append(qp.cf_from_coeffs([rng.randint(1, 9) for _ in range(32)]))
    ok = all(cf.check_gap_bounds(n) for cf in cfs for n in range(31))
    _report(1, ok, "exact rational gap bounds, 10 frequencies, n <= 30")
    assert ok


def test_criterion_02_matrix_identities(amo2, maryland1):
    cf = qp.golden_cf(20)
    q8 = cf.q[8]  # 34
    third = qp.make_custom([Fraction(1, 3), Fraction(7, 10)], "cos2pi",
                           coupling=0.8)
    models = (amo2, maryland1, third)
    rng = random.Random(99)
    worst = 0.0
    done = 0
    with mp.workprec(200):
        alpha = cf.value
        while done < 1000:
            pot = models[rng.randrange(3)]
            E = mp.mpf(rng.uniform(-3, 3))
            x = mp.mpf(rng.uniform(0.01, 0.99))
            n = rng.choice([k for k in range(-q8, q8 + 1) if k != 0])
            try:
                B = qp.product(pot, E, x, alpha, n)
            except qp.OrbitPoleError:
                continue
            tr = B.trace()
            nrm = B.norm()
            Binv = B.inv()
            B2 = B.matmul(B)
            r_sq = qp.cocycle.TransferMatrix2(
                B2.a - tr * B.a + 1, B2.b - tr * B.b,
                B2.c - tr * B.c, B2.d - tr * B.d + 1).norm() / max(nrm * nrm, 1)
            r_lin = qp.cocycle.TransferMatrix2(
                B.a - tr + Binv.a, B.b + Binv.b,
                B.c + Binv.c, B.d - tr + Binv.d).norm() / max(nrm, 1)
            worst = max(worst, float(r_sq), float(r_lin))
            done += 1
    ok = worst <= 1e-9
    _report(2, ok, f"1000 products, worst relative identity residual {worst:.3g}")
    assert ok


def test_criterion_03_estimator_agreement(maryland1):
    cf = qp.golden_cf(40)
    worst = 0.0
    for E in (-2.0, -1.0, 0.0, 1.0, 2.0):
        a = qp.lyapunov(maryland1, E, cf.value, 100_000, kind="A")
        d = qp.lyapunov(maryland1, E, cf.value, 100_000, kind="D")
        worst = max(worst, abs(a.value - d.value) / abs(d.value))
    ok = worst <= 0.05
    _report(3, ok, f"pole-masked vs regularised estimates, worst rel gap {worst:.3g}")
    assert ok


def test_criterion_04_constant_coefficient_closed_form():
    pot = qp.make_custom([], "const", coupling=0.0)
    cf = qp.golden_cf(30)
    est = qp.lyapunov(pot, 3.0, cf.value, 10_000, kind="A")
    target = math.log((3 + math.sqrt(5)) / 2)
    err = abs(est.value - target)
    ok = err <= 1e-3
    _report(4, ok, f"zero potential at E=3, |L - ln((3+sqrt5)/2)| = {err:.3g}")
    assert ok


def test_criterion_05_centered_sine_sums_bounded():
    cf = qp.golden_cf(40)
    sup = 0.0
    for i in range(8):
        theta = Fraction(2 * i + 1, 16)
        for n in range(5, 19):
            S, lnq = qp.sine_product_check(theta, cf, n)
            sup = max(sup, abs(S) / lnq)
    ok = sup <= 10.0
    _report(5, ok, f"8 phases, levels 5-18, sup |S|/ln q_n = {sup:.4f}")
    assert ok


def test_criterion_06_orbit_product_lower_bound():
    cf = qp.liouville_cf(1.0, 4)
    pot = qp.make_maryland(0.15)
    theta = Fraction(1, 4)
    eps = 0.2
    d = qp.delta_index(cf, theta, pot.poles)
    levels = [n for n in qp.qualifying_levels(d, eps) if cf.q[n] <= 10_000]
    ok = bool(levels)
    margins = []
    for n_i in levels:
        lhs_log, bound_log = qp.f_product_check(pot, theta, cf, n_i, eps,
                                                delta_iv=d)
        margins.append(lhs_log - bound_log)
        ok = ok and lhs_log >= bound_log
    _report(6, ok, f"levels {levels}, log margins "
                   f"{[f'{m:.2f}' for m in margins]}")
    assert ok


def test_criterion_07_smallness_at_qualifying_levels(smallness_results):
    passes = 0
    details = []
    for cfg, n_i, chk in smallness_results:
        # the regime precondition L + 4 eps < delta_hat must hold
        assert cfg["L"] + 4 * cfg["eps"] < cfg["delta"].value
        assert not chk.vacuous
        if chk.passed:
            passes += 1
        details.append(f"{cfg['pot'].label} q={chk.q}:"
                       f"{'ok' if chk.passed else 'no'}")
    ok = passes >= 3
    _report(7, ok, f"{passes} qualifying levels pass both smallness bounds "
                   f"({', '.join(details)})")
    assert ok


def test_criterion_08_solutions_stay_large(smallness_results):
    checked = []
    ok = True
    for cfg, n_i, chk in smallness_results:
        if not (chk.passed and chk.empirical_rate >= 1e-2):
            continue
        certs = qp.exclusion_certificate(
            cfg["pot"], cfg["E"], cfg["theta"], cfg["cf"], [n_i], c=1e-2)
        (cert,) = certs
        good = cert.max_norm >= 0.25 - 1e-6 and cert.verdict == "excluded"
        ok = ok and good
        checked.append(f"q={cert.q}:minmax={cert.max_norm:.3g}")
    ok = ok and bool(checked)
    _report(8, ok, f"all directions, {'; '.join(checked)}")
    assert ok


def test_criterion_09_index_consistency():
    # (a) pole-free index equals the growth index bitwise, level by level
    bitwise = True
    for cf in (qp.golden_cf(40), qp.silver_cf(30), qp.liouville_cf(1.0, 4)):
        b = qp.beta(cf)
        d = qp.delta_index(cf, Fraction(3, 8), [])
        bitwise = bitwise and b.per_level == d.per_level and b.value == d.value

    # (b) single-pole per-level values against an exact-rational oracle
    cf = qp.golden_cf(40)
    theta = Fraction(3, 8)
    d = qp.delta_index(cf, theta, [Fraction(1, 2)])
    worst = 0.0
    oracle_ok = True
    with mp.workprec(300):
        for n in range(1, cf.depth):
            nrm = qp.arithmetic.torus_norm_exact(cf.q[n] * (theta - Fraction(1, 2)))
            if nrm == 0:
                expect = -math.inf
            else:
                expect = float((mp.log(mp.mpf(nrm.numerator))
                                - mp.log(mp.mpf(nrm.denominator))
                                + mp.log(mp.mpf(cf.q[n + 1]))) / cf.q[n])
            got = d.per_level[n - 1]
            if math.isinf(expect) or math.isinf(got):
                oracle_ok = oracle_ok and expect == got
            else:
                worst = max(worst, abs(got - expect))
    ok = bitwise and oracle_ok and worst <= 1e-10
    _report(9, ok, f"bitwise match without poles; single-pole oracle gap {worst:.3g}")
    assert ok


def test_criterion_10_tridiagonal_solver(maryland1):
    free = qp.make_custom([], "const", coupling=0.0)
    cf = qp.golden_cf(20)
    eigs3, _ = qp.truncated_spectrum(free, 0.0, cf.value, 3)
    exact3 = np.max(np.abs(eigs3 - np.array([-math.sqrt(2), 0.0, math.sqrt(2)])))

    interlace = True
    prev = None
    for N in range(2, 65):
        eigs, _ = qp.truncated_spectrum(maryland1, 0.1, cf.value, N)
        if prev is not None:
            for k in range(N - 1):
                interlace = interlace and eigs[k] <= prev[k] + 1e-9
                interlace = interlace and prev[k] <= eigs[k + 1] + 1e-9
        prev = eigs

    N = 512
    ks = np.arange(N, dtype=float)
    X = np.mod(0.1 + ks * float(cf.value), 1.0)
    diag = np.clip(maryland1.V_array(X), -1e12, 1e12)
    dense = np.diag(diag) + np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
    ref = np.linalg.eigvalsh(dense)
    probes = np.linspace(float(diag.min()) - 1, float(diag.max()) + 1, 20)
    counts_ok = bool(np.array_equal(
        qp.sturm_count(diag, probes),
        np.array([int(np.sum(ref < x)) for x in probes])))

    ok = exact3 <= 1e-10 and interlace and counts_ok
    _report(10, ok, f"3-site error {exact3:.3g}, interlacing N<=64: {interlace}, "
                    f"512-site count oracle: {counts_ok}")
    assert ok


CLI_INI = """\
[model]
name = maryland
coupling = 0.15

[alpha]
kind = named
name = liouville
beta_target = 1.0
terms = 4

[phase]
theta = 3/8

[energies]
kind = list
values = 0.0

[depths]
gamma_nmax = 500
gordon_levels = 3
lyapunov_n = 5000

[run]
epsilon = 0.2
c_rate = 0.01
directions = 24
seed = 7
"""


def test_criterion_11_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CLI_INI)
    trees = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / name
        for sub in ("indices", "gordon", "cf"):
            assert cli_main([sub, "--config", str(cfg), "--out", str(out),
                             "--threads", threads]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = trees[0] == trees[1] == trees[2]
    _report(11, ok, "indices/gordon/cf outputs identical across reruns and "
                    "thread counts 1 and 8")
    assert ok
