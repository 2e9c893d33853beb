"""Reference outputs and the rules for comparing against them.

Verdicts, labels and counts must match exactly.  Numbers carry tolerances
chosen so that the planned algorithm changes still pass while a wrong answer
does not:

* certificate ``lhs_*_log``: the exact supremum over directions may exceed
  the maximum over the workload's grid of n directions by up to
  -ln cos(pi/2n) in the log (2.4e-4 for certify-amo's 72, 9.5e-6 for
  certify-maryland's 360), so the tolerance is twice that plus rtol 1e-6;
  a wrong 6th significant digit (1e-3 at certify-amo's logs near -150)
  fails; ``empirical_rate`` is -max(lhs logs)/q and gets the same
  tolerance divided by q;
* certificate ``max_norm``: an exact minimum over directions may lie far
  below the grid minimum, so it may only go down (or stay), and must stay on
  the same side of 1/4 as the verdict;
* certificate ``directions_tested`` is not compared, because the direction
  grid is expected to be replaced by an exact optimisation;
* Lyapunov values ``L``/``value``: relative 1e-8, so reordered float sums
  pass and a wrong 6th digit fails;
* eigenvalues: absolute 1e-8, since a LAPACK tridiagonal solver agrees with
  the bisection to ~3e-11 here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import workloads

REF_DIR = Path(__file__).resolve().parent / "reference"
_QUARTER = 0.25 - 1e-6  # the certificate's max-norm threshold, tolerance included

# direction-grid size of each certificate workload
DIRECTIONS = {"certify-amo": workloads.AMO_DIRECTIONS,
              "certify-maryland": workloads.MARYLAND_DIRECTIONS}


def grid_gap_log(directions: int) -> float:
    """How far log ||M v||, maximised over all unit v, can exceed its maximum
    over ``directions`` equally spaced lines in [0, pi).  The worst case is a
    rank-1 M, where the nearest grid line is pi/2n off the optimum."""
    return -math.log(math.cos(math.pi / (2 * directions)))


def _cert(directions: int, q: int) -> dict:
    atol = 2 * grid_gap_log(directions)
    return {"E": "exact", "q": "exact", "level": "exact", "verdict": "exact",
            "lhs_square_log": ("close", 1e-6, atol),
            "lhs_inverse_log": ("close", 1e-6, atol),
            "empirical_rate": ("close", 1e-6, atol / q),
            "trace": ("close", 1e-9, 1e-12),
            "max_norm": "not_above"}


# field -> rule; a rule is "exact", ("close", rtol, atol) or "not_above"
_CLASSIFY = {"L": ("close", 1e-8, 1e-12), "margin": ("close", 1e-6, 1e-10),
             "label": "exact"}
_DELTA = {"value": ("close", 1e-12, 0.0), "terms_used": "exact",
          "lower": ("close", 1e-12, 0.0), "upper": ("close", 1e-12, 0.0)}
_SPECTRUM = {"n": "exact", "flagged": "exact", "min": ("close", 0.0, 1e-8),
             "max": ("close", 0.0, 1e-8), "sum": ("close", 0.0, 1e-6),
             "sample": ("close", 0.0, 1e-8)}
_LYAPUNOV = {"value": ("close", 1e-8, 1e-12), "discrepancy": ("close", 1e-6, 1e-10),
             "n": "exact", "phases_used": "exact", "method": "exact", "kind": "exact"}
_INDEX = {"value": ("close", 1e-12, 0.0), "terms_used": "exact",
          "tail_start": "exact", "witness": "exact", "resolution_limited": "exact",
          "sum": ("close", 1e-12, 0.0), "sample": ("close", 1e-12, 0.0)}


def _rules(workload: str, key: str, want: dict):
    if "verdict" in want:
        return _cert(DIRECTIONS[workload], want["q"])
    if key == "delta":
        return _DELTA
    if key.startswith("E="):
        return _CLASSIFY
    if key.startswith("spectrum:"):
        return _SPECTRUM
    if key.startswith("lyapunov:"):
        return _LYAPUNOV
    if key.startswith("indices:"):
        return {"beta": _INDEX, "gamma": _INDEX, "delta": _INDEX}
    raise KeyError(key)


def load(workload: str) -> dict:
    return json.loads((REF_DIR / f"{workload}.json").read_text())


def _close(a, b, rtol, atol) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= atol + rtol * abs(b)


def _check(path, got, want, rule, out):
    if isinstance(rule, dict):
        for field, sub in rule.items():
            if field not in got or field not in want:
                out.append(f"{path}.{field}: missing")
            else:
                _check(f"{path}.{field}", got[field], want[field], sub, out)
    elif rule == "exact":
        if got != want:
            out.append(f"{path}: {got!r} != reference {want!r}")
    elif rule == "not_above":
        if got > want * (1 + 1e-9) or (got >= _QUARTER) != (want >= _QUARTER):
            out.append(f"{path}: {got!r} not <= reference {want!r} on its side of 1/4")
    elif isinstance(got, list) or isinstance(want, list):
        if not (isinstance(got, list) and isinstance(want, list)) or len(got) != len(want):
            out.append(f"{path}: length/type differs from reference")
        else:
            bad = [i for i, (a, b) in enumerate(zip(got, want))
                   if not _close(a, b, rule[1], rule[2])]
            if bad:
                out.append(f"{path}[{bad[0]}]: {got[bad[0]]!r} != reference "
                           f"{want[bad[0]]!r} ({len(bad)} entries off)")
    elif not _close(got, want, rule[1], rule[2]):
        out.append(f"{path}: {got!r} != reference {want!r}")


def compare(workload: str, outputs: dict, ref: dict) -> list[str]:
    """Mismatches between one op's outputs and the workload's reference
    records."""
    problems: list[str] = []
    for key, got in outputs.items():
        if key not in ref:
            problems.append(f"{key}: no reference record")
            continue
        _check(key, got, ref[key], _rules(workload, key, ref[key]), problems)
    return problems
