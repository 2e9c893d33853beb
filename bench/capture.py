"""Capture the reference outputs of every workload's input pool.

    python3 bench/capture.py [WORKLOAD ...]

Runs ops that cover each pool member once, untraced, and writes
``bench/reference/<workload>.json``.  References are captured once, at the
commit that defines the benchmark; later commits are checked against them.
"""

from __future__ import annotations

import json
import shutil
import sys

import reference
import run
import workloads


def capture(workload: str) -> dict:
    work = run.ROOT / ".bench_work" / f"capture-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = {}
    for i, spec in enumerate(workloads.capture_ops(workload)):
        res = run.run_worker(run.make_job(spec, work, f"cap{i}", False), work,
                             f"cap{i}", 600)
        if res.get("errors") or "outputs" not in res:
            raise SystemExit(f"{workload}: capture failed: {res.get('errors')}")
        records.update(res["outputs"])
    shutil.rmtree(work, ignore_errors=True)
    return dict(sorted(records.items()))


def main(names) -> None:
    reference.REF_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        records = capture(workload)
        (reference.REF_DIR / f"{workload}.json").write_text(
            json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(records)} reference records")


if __name__ == "__main__":
    main(sys.argv[1:])
