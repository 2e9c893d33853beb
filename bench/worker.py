"""One benchmark operation in a fresh interpreter.

    python3 bench/worker.py JOB.json

The job names the op spec, the config file and the output directory.  The
worker imports qpspec from the checkout's ``src``, builds the config, the
continued fraction and the potential (set-up), then runs the op (timed), with
the tracer installed when the job asks for it.  The calibration kernel of
``calibrate.py`` runs before the op, between its parts and after it; its
time is not counted in the op's.  The worker prints one JSON line: the
monotonic clock reading at the end of set-up, wall and CPU seconds of the
op, the kernel's (wall, CPU) samples, peak resident memory, the outputs
keyed by pool member, failure reasons and, for traced ops, the per-layer
metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _machine() -> dict:
    import os
    import platform
    from importlib import metadata

    import mpmath

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
            "mpmath_backend": mpmath.libmp.BACKEND}


def main(job_path: str) -> dict:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import qpspec

    if not Path(qpspec.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"qpspec imported from {qpspec.__file__}, not the checkout")
    import calibrate
    import workloads

    spec, config, out = job["spec"], Path(job["config"]), Path(job["out"])
    state = workloads.setup(spec, config)
    result = {"ready": time.perf_counter()}
    speed = [calibrate.sample()]

    def between():
        speed.append(calibrate.sample())

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(potentials=workloads.potentials(state))
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        raw = workloads.execute(spec, state, config, out, between)
    finally:
        run_s = time.perf_counter() - t0 - sum(w for w, _ in speed[1:])
        cpu_s = _cpu() - cpu0 - sum(c for _, c in speed[1:])
        if tracer is not None:
            tracer.uninstall()
    speed.append(calibrate.sample())
    result.update(run_s=run_s, cpu_s=cpu_s, speed=speed,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    outputs, errors = workloads.extract(spec, raw, out)
    result.update(outputs=outputs, errors=errors,
                  bytes_out=sum(p.stat().st_size for p in out.iterdir()),
                  machine=_machine())
    if tracer is not None:
        if not tracer.restored():
            errors.append("tracer left a patched function in place")
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    try:
        res = main(sys.argv[1])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    print(json.dumps(res))
