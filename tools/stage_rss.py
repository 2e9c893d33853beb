"""Peak resident memory after each part of a library benchmark op.

    python3 tools/stage_rss.py [--seed S] [--ops N]

Run from the repository root.  Each of the first N ops of the library
workload's stream for seed S (``bench/workloads.py``) runs in a fresh
interpreter, as ``bench/worker.py`` runs it but without the calibration
kernel and the tracer.  The op records ru_maxrss after set-up and after each
of its parts: the truncated spectrum, the A-kind Lyapunov estimate,
``qpspec indices`` and ``qpspec classify``.  The script prints, per part, the
median over the ops of the rise of the peak over the part before it, and
the median final peak, in MB.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("set-up", "spectrum", "lyapunov A", "indices", "classify")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _one_op(seed: int, index: int, work: Path) -> list[float]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    spec = next(itertools.islice(workloads.op_stream("library", seed), index, None))
    config = work / "op.ini"
    config.write_text(spec["config"])
    workloads.classify_config_path(config).write_text(spec["classify_config"])
    state = workloads.setup(spec, config)
    marks = [_rss_mb()]
    raw = workloads.execute(spec, state, config, work / "out",
                            lambda: marks.append(_rss_mb()))
    marks.append(_rss_mb())
    if raw["exit"] or raw["classify_exit"]:
        raise SystemExit(f"op {index} exited {raw['exit']}/{raw['classify_exit']}")
    return marks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=8)
    ap.add_argument("--one-op", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one_op is not None:
        print(json.dumps(_one_op(args.seed, args.one_op, args.work)))
        return
    runs = []
    for i in range(args.ops):
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run(
                [sys.executable, __file__, "--seed", str(args.seed),
                 "--one-op", str(i), "--work", work],
                capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    print(f"{'part':<12} median rise of ru_maxrss (MB), {args.ops} ops, seed {args.seed}")
    for k, part in enumerate(PARTS):
        rises = [r[k] - (r[k - 1] if k else 0.0) for r in runs]
        print(f"{part:<12} {statistics.median(rises):8.3f}")
    print(f"{'peak':<12} {statistics.median(r[-1] for r in runs):8.3f}")


if __name__ == "__main__":
    main()
