import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qpspec import (
    InvalidInputError,
    NumericError,
    delta_index,
    classify_regime,
    golden_cf,
    lyapunov_scan,
    make_amo,
    make_custom,
    make_maryland,
    sturm_count,
    truncated_spectrum,
)
from qpspec import spectral
from qpspec.cli import main
from qpspec.spectral import classify_label


def _dense(diag):
    n = len(diag)
    m = np.diag(diag) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return m


def test_free_chain_three_sites():
    pot = make_custom([], "const", coupling=0.0)
    eigs, flagged = truncated_spectrum(pot, 0.0, golden_cf(20).value, 3)
    assert flagged == []
    np.testing.assert_allclose(eigs, [-math.sqrt(2), 0.0, math.sqrt(2)],
                               atol=1e-10)


def test_free_chain_closed_form_n16():
    pot = make_custom([], "const", coupling=0.0)
    N = 16
    eigs, _ = truncated_spectrum(pot, 0.0, golden_cf(20).value, N)
    expect = np.sort(2 * np.cos(np.pi * np.arange(1, N + 1) / (N + 1)))
    np.testing.assert_allclose(eigs, expect, atol=1e-10)


def test_eigenvalues_match_dense_solver(maryland1):
    cf = golden_cf(20)
    N = 48
    eigs, _ = truncated_spectrum(maryland1, 0.1, cf.value, N)
    ks = np.arange(N, dtype=float)
    X = np.mod(0.1 + ks * float(cf.value), 1.0)
    diag = np.clip(maryland1.V_array(X), -1e12, 1e12)
    expect = np.linalg.eigvalsh(_dense(diag))
    np.testing.assert_allclose(eigs, expect, atol=1e-8)


def test_cauchy_interlacing(maryland1):
    cf = golden_cf(20)
    prev = None
    for N in range(2, 65):
        eigs, _ = truncated_spectrum(maryland1, 0.1, cf.value, N)
        if prev is not None:
            # eigenvalues of the order-(N-1) principal section interlace
            for k in range(N - 1):
                assert eigs[k] <= prev[k] + 1e-9
                assert prev[k] <= eigs[k + 1] + 1e-9
        prev = eigs


def test_sturm_count_against_dense_eigenvalues(amo2):
    cf = golden_cf(20)
    N = 128
    ks = np.arange(N, dtype=float)
    X = np.mod(0.3 + ks * float(cf.value), 1.0)
    diag = amo2.V_array(X)
    eigs = np.linalg.eigvalsh(_dense(diag))
    probes = np.linspace(-4, 4, 20)
    got = sturm_count(diag, probes)
    expect = np.array([int(np.sum(eigs < x)) for x in probes])
    np.testing.assert_array_equal(got, expect)


def test_pole_policy_cap_flags_sites(maryland1):
    cf = golden_cf(20)
    eigs, flagged = truncated_spectrum(maryland1, Fraction(1, 2), cf.value, 8)
    assert flagged == [0]
    assert np.all(np.isfinite(eigs))


def test_a_site_on_the_pole_is_flagged_at_small_coupling():
    # on the pole the float f is exactly 0, and the on-pole rule sets it to
    # 1e-300, so the site reads as a pole at coupling 1e-6 too
    pot = make_maryland(1e-6)
    eigs, flagged = truncated_spectrum(pot, Fraction(1, 2), golden_cf(20).value, 8)
    assert flagged == [0]
    assert np.all(np.isfinite(eigs))


@pytest.mark.parametrize("N", [8, 256])
@pytest.mark.parametrize("pot, theta, capped", [
    (make_amo(2.0), 0.1, []), (make_maryland(1.0), Fraction(1, 2), [0])],
    ids=["amo", "maryland"])
def test_lapack_path_matches_dense_fallback(monkeypatch, pot, theta, capped, N):
    # on numpy's ILP64 OpenBLAS wheels the fast path must be the one taken,
    # not a silent O(N^3) fallback
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if (lapack["name"] == "scipy-openblas"
            and "USE64BITINT" in lapack.get("openblas configuration", "")):
        assert spectral._dsterf() is not None
    alpha = golden_cf(20).value
    eigs, flagged = truncated_spectrum(pot, theta, alpha, N)
    monkeypatch.setattr(spectral, "_dsterf", lambda: None)
    dense, dense_flagged = truncated_spectrum(pot, theta, alpha, N)
    assert flagged == dense_flagged == capped
    np.testing.assert_allclose(eigs, dense, rtol=1e-12, atol=1e-10)


def test_lapack_failure_raises(monkeypatch, amo2):
    monkeypatch.setattr(spectral, "_dsterf", lambda: lambda n, d, e: 1)
    with pytest.raises(NumericError):
        truncated_spectrum(amo2, 0.1, golden_cf(20).value, 8)


def test_truncation_argument_validation(amo2):
    cf = golden_cf(20)
    with pytest.raises(InvalidInputError):
        truncated_spectrum(amo2, 0.1, cf.value, 1)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_truncation_refuses_a_non_finite_alpha(amo2, alpha):
    # refused as the Lyapunov engine refuses it, before the orbit's phases
    # (nan all along) reach the phasor's exact turns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="^alpha must be finite, got "):
            truncated_spectrum(amo2, 0.1, alpha, 8)


# ---------------------------------------------------------------------------
# scans and classification


def test_lyapunov_scan_records_failures(maryland1):
    cf = golden_cf(20)
    out = lyapunov_scan(maryland1, cf.value, [0.0, 1.0], 2000)
    assert len(out) == 2
    assert all(not isinstance(o, Exception) for o in out)


def test_lyapunov_scan_propagates_input_errors(maryland1):
    cf = golden_cf(20)
    with pytest.raises(InvalidInputError):
        lyapunov_scan(maryland1, cf.value, [0.0, 1.0], 2000, kind="X")


def test_classify_label_cases():
    assert classify_label(0.1, 0.01, 0.5, 0.6) == "sc-candidate"
    assert classify_label(0.7, 0.01, 0.5, 0.6) == "above-delta"
    assert classify_label(0.55, 0.01, 0.5, 0.6) == "uncertain"


def test_classify_supercritical_cosine_is_above_delta():
    pot = make_amo(3.0)
    cf = golden_cf(30)
    d = delta_index(cf, Fraction(1, 7), pot.poles)
    res = classify_regime(pot, Fraction(1, 7), cf.value, [-1.0, 0.0, 1.0],
                          20000, d)
    assert res.labels == ("above-delta",) * 3
    assert res.uncertain_fraction == 0.0


def test_classify_guards():
    pot = make_amo(3.0)
    cf = golden_cf(30)
    d = delta_index(cf, Fraction(1, 7), pot.poles)
    with pytest.raises(InvalidInputError):
        classify_regime(pot, Fraction(1, 7), cf.value, [0.0], 100, d)
    shallow = delta_index(golden_cf(5), Fraction(1, 7), pot.poles)
    with pytest.raises(InvalidInputError):
        classify_regime(pot, Fraction(1, 7), golden_cf(5).value, [0.0],
                        20000, shallow)


def test_classification_serialisation_roundtrip(tmp_path):
    # classify.json as `qpspec classify` writes it reads back as the
    # classification it was written from
    cfg = tmp_path / "cls.ini"
    cfg.write_text("[model]\nname = amo\ncoupling = 3.0\n"
                   "[alpha]\nkind = named\nname = golden\nterms = 30\n"
                   "[phase]\ntheta = 1/7\n[energies]\nvalues = 0.0\n"
                   "[depths]\nlyapunov_n = 10000\n")
    assert main(["classify", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 0
    js = json.loads((tmp_path / "o" / "classify.json").read_text())
    pot = make_amo(3.0)
    cf = golden_cf(30)
    d = delta_index(cf, Fraction(1, 7), pot.poles)
    res = classify_regime(pot, Fraction(1, 7), cf.value, [0.0], 10000, d)
    assert js["rows"] == [{"E": 0.0, "L": res.L_values[0],
                           "margin": res.uncertainty[0], "label": res.labels[0]}]
    assert js["uncertain_fraction"] == res.uncertain_fraction
    assert 0.0 <= js["uncertain_fraction"] <= 1.0
    assert (js["delta_lower"], js["delta_upper"]) == d.band()
    assert js["delta_hat"]["per_level"] == list(d.per_level)


def test_classify_records_a_failing_energy_and_continues():
    # E = 1e300 overflows the kernel; like lyapunov_scan, classify records
    # the failure in its row and labels the other energies
    pot = make_maryland(0.15)
    cf = golden_cf(30)
    d = delta_index(cf, Fraction(3, 8), pot.poles)
    res = classify_regime(pot, Fraction(3, 8), cf.value, [-0.5, 1e300, 0.5],
                          10000, d)
    assert res.labels[1] == "NumericError"
    assert all(lab in spectral.LABELS for lab in res.labels[::2])
    assert math.isnan(res.L_values[1]) and math.isnan(res.uncertainty[1])
    alone = classify_regime(pot, Fraction(3, 8), cf.value, [-0.5, 0.5], 10000, d)
    assert res.L_values[::2] == alone.L_values
    assert res.uncertainty[::2] == alone.uncertainty
    assert res.labels[::2] == alone.labels
    # the failed row counts in neither part of the uncertain fraction
    assert res.uncertain_fraction == alone.uncertain_fraction
    mixed = dataclasses.replace(res, labels=("uncertain", "NumericError", "above-delta"))
    assert mixed.uncertain_fraction == 0.5
