"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

1. The reference check rejects a flipped verdict, a flipped label, a
   certificate log and Lyapunov values wrong in their 6th digit, and accepts
   the differences the planned algorithm changes may introduce, at their
   worst case.
2. For one op of every workload, traced and untraced outputs are identical,
   the tracer restores every patched name, the per-layer self times add up to
   the traced run time within 3%, and the layers the workload is about
   account for most of its run time.

Exits 0 when every check passes; prints one line per check.
"""

from __future__ import annotations

import copy
import shutil
import sys

import reference
import run
import workloads

SELF_SUM_TOL = 0.03
_LAYER_SELF = tuple(f"{layer}.self_s" for layer in
                    ("cli", "arithmetic", "potential", "cocycle", "gordon", "spectral"))


def _report(ok: bool, what: str, failures: list):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def reference_checks(failures: list):
    amo = reference.load("certify-amo")
    _report(amo["theta=1/10"]["verdict"] == "excluded",
            "certify-amo reference at theta=1/10 is 'excluded'", failures)
    for workload, key, field, change in (
            ("certify-amo", "theta=1/10", "verdict", lambda v: "inconclusive"),
            ("certify-amo", "theta=1/10", "lhs_square_log", lambda v: v + 1e-3),
            ("certify-maryland", "E=0.0", "verdict", lambda v: "inconclusive"),
            ("library", "E=0.0", "label", lambda v: "sc-candidate"),
            ("library", "E=0.0", "L", lambda v: v * (1 + 2e-6)),
            ("library", "lyapunov:E=0.0", "value", lambda v: v + 1e-6)):
        ref = reference.load(workload)
        outputs = {key: copy.deepcopy(ref[key])}
        flipped = copy.deepcopy(ref)
        flipped[key][field] = change(flipped[key][field])
        _report(bool(reference.compare(workload, outputs, flipped)),
                f"{workload}: changed {key} {field} is caught", failures)
    # changes the planned algorithms may make must still pass: the exact
    # supremum over directions, at the grid's worst case, and an exact minimum
    for workload, ref in (("certify-amo", amo),
                          ("certify-maryland", reference.load("certify-maryland"))):
        gap = reference.grid_gap_log(reference.DIRECTIONS[workload])
        out = copy.deepcopy(ref)
        for cert in out.values():
            cert["lhs_square_log"] += gap
            cert["lhs_inverse_log"] += gap
            cert["empirical_rate"] = -max(cert["lhs_square_log"],
                                          cert["lhs_inverse_log"]) / cert["q"]
            cert["max_norm"] /= 2
        _report(not reference.compare(workload, out, ref),
                f"{workload}: exact sup (log +{gap:.2e}) and min over directions "
                "pass", failures)
    lib = reference.load("library")
    key = next(k for k in lib if k.startswith("spectrum:"))
    lib_out = {key: copy.deepcopy(lib[key])}
    lib_out[key]["sample"] = [x + 3e-11 for x in lib_out[key]["sample"]]
    _report(not reference.compare("library", lib_out, lib),
            "library: LAPACK-sized eigenvalue differences (3e-11) pass", failures)


def trace_checks(failures: list):
    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for workload in workloads.WORKLOADS:
        spec = next(workloads.op_stream(workload, 0))
        ref = reference.load(workload)
        plain, traced = (run.run_worker(run.make_job(spec, work, tag, on), work, tag, 600)
                         for tag, on in (("plain", False), ("traced", True)))
        errors = plain.get("errors", []) + traced.get("errors", [])
        errors += reference.compare(workload, plain.get("outputs", {}), ref)
        _report(not errors and plain["outputs"] == traced["outputs"],
                f"{workload}: traced outputs equal untraced outputs {errors[:1]}",
                failures)
        if "layers" not in traced:
            continue
        layers, run_s = traced["layers"], traced["run_s"]
        gap = abs(sum(layers[k] for k in _LAYER_SELF) - run_s) / run_s
        _report(gap <= SELF_SUM_TOL,
                f"{workload}: layer self times sum to traced run_s within "
                f"{SELF_SUM_TOL:.0%} (gap {gap:.2%})", failures)
        if workload == "certify-amo":
            share = (layers["gordon.matrices_s"] + layers["potential.mp_eval_s"]
                     + layers["cocycle.mp_step_s"]) / run_s
            _report(share > 0.5, f"{workload}: gordon matrices + mp potential + mp "
                    f"cocycle time is most of run_s ({share:.0%})", failures)
        if workload == "library":
            share = layers["cocycle.lyapunov_s"] / run_s
            _report(share > 0.5, f"{workload}: cocycle.lyapunov_s (A-kind estimate "
                    f"and classify scan) is most of run_s ({share:.0%})", failures)
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    failures: list = []
    reference_checks(failures)
    trace_checks(failures)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
