import math
from fractions import Fraction

import numpy as np
import pytest

from qpspec import (
    InvalidInputError,
    RangeError,
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
    eigs, flagged = truncated_spectrum(maryland1, Fraction(1, 2), cf.value, 8,
                                       pole_policy="cap")
    assert flagged == [0]
    assert np.all(np.isfinite(eigs))


def test_pole_policy_strict_raises(maryland1):
    cf = golden_cf(20)
    with pytest.raises(RangeError):
        truncated_spectrum(maryland1, Fraction(1, 2), cf.value, 8,
                           pole_policy="strict")


def test_truncation_argument_validation(amo2):
    cf = golden_cf(20)
    with pytest.raises(InvalidInputError):
        truncated_spectrum(amo2, 0.1, cf.value, 1)
    with pytest.raises(InvalidInputError):
        truncated_spectrum(amo2, 0.1, cf.value, 8, pole_policy="bogus")


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


def test_classification_serialisation_roundtrip():
    pot = make_amo(3.0)
    cf = golden_cf(30)
    d = delta_index(cf, Fraction(1, 7), pot.poles)
    res = classify_regime(pot, Fraction(1, 7), cf.value, [0.0], 10000, d)
    js = res.to_json_dict()
    assert js["rows"][0]["label"] == res.labels[0]
    assert 0.0 <= js["uncertain_fraction"] <= 1.0
