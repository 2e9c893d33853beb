"""qpspec benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/qpspec``
of that checkout, imported from source.  Each operation runs in a fresh
interpreter (``bench/worker.py``), the way a CLI user's call does, so
mpmath's per-precision caches are filled inside every operation.  Ops are
drawn from the workload's pool by the seed and repeated while another op of
the same length still fits in ``--seconds`` (at least one op); every op's
outputs are checked against the stored reference (``bench/reference.py``).

With ``--trace 0`` the end-to-end metrics are reported (medians over the
run's ops, times rescaled to a reference host speed by the calibration
kernel of ``bench/calibrate.py``, which each worker times next to its op);
with ``--trace 1`` each op is run untraced and then traced on the
same inputs, traced outputs must equal untraced ones exactly, and the
per-layer metrics of ``bench/tracer.py`` are reported (medians over the
traced ops) together with the tracing overhead.  The last line of standard
output is the JSON result; the lines before it list every metric with its
unit and the machine facts.  Details of every op go to
``.bench_work/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT = 165.0    # seconds; every worker is stopped by then, so a run ends within 180 s


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # single-threaded, like a default CLI call on a shared box
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job: dict, work: Path, tag: str, timeout: float) -> dict:
    """Start one worker, wait for it, and return its result, with ``setup_s``
    measured from the spawn.  Failures come back as ``{"errors": [...]}``."""
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                              capture_output=True, text=True, env=_env(),
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"errors": [f"{tag}: worker timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"errors": [f"{tag}: worker exited {proc.returncode}: {tail[0]}"]}
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res.pop("ready") - t_spawn
    return res


def make_job(spec, work: Path, tag: str, trace: bool) -> dict:
    config = work / f"{tag}.ini"
    config.write_text(spec["config"])
    if "classify_config" in spec:
        workloads.classify_config_path(config).write_text(spec["classify_config"])
    out = work / f"{tag}.out"
    shutil.rmtree(out, ignore_errors=True)
    return {"spec": spec, "config": str(config), "out": str(out), "trace": trace}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    """Run ops for ``seconds`` and return the samples and the failures."""
    ref = reference.load(workload)
    stream = workloads.op_stream(workload, seed)
    start = time.perf_counter()
    ops, spec = [], next(stream)
    while True:
        t_op = time.perf_counter()
        pair = []
        for traced in ((False, True) if trace else (False,)):
            tag = f"op{len(ops)}"
            left = TIME_LIMIT - (time.perf_counter() - start)
            res = run_worker(make_job(spec, work, tag, traced), work, tag, left)
            res.setdefault("errors", [])
            if "outputs" in res:
                res["errors"] += reference.compare(workload, res["outputs"], ref)
            res["traced"] = traced
            res["keys"] = spec["keys"]
            shutil.rmtree(work / f"{tag}.out", ignore_errors=True)
            pair.append(res)
            ops.append(res)
        if trace and "outputs" in pair[0] and "outputs" in pair[1] \
                and pair[0]["outputs"] != pair[1]["outputs"]:
            pair[1]["errors"].append("traced outputs differ from untraced outputs")
        # start another op only if one as long as the last still fits
        now = time.perf_counter()
        if now + (now - t_op) - start > seconds or now - start > TIME_LIMIT / 2:
            break
        spec = next(stream)
    return {"ops": ops}


def _median(values):
    return statistics.median(values) if values else float("nan")


def rescaled(r: dict) -> dict:
    """An op's set-up, wall and CPU times at the reference host speed:
    each times ``calibrate.REFERENCE_S`` over the mean kernel wall (CPU)
    time of the samples taken around and within the op."""
    walls, cpus = zip(*r["speed"])
    wall = calibrate.REFERENCE_S / statistics.fmean(walls)
    cpu = calibrate.REFERENCE_S / statistics.fmean(cpus)
    return {"setup_s": r["setup_s"] * wall, "run_s": r["run_s"] * wall,
            "cpu_s": r["cpu_s"] * cpu}


def summarise(samples: dict, trace: bool) -> tuple[dict, int, int]:
    """Metric values (medians over ops), ops attempted, ops failed."""
    ops = samples["ops"]
    failed = sum(1 for r in ops if r["errors"])
    timed = [r for r in ops if "run_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not trace:
        scaled = [rescaled(r) for r in plain]
        metrics = {
            "run_s": _median([s["run_s"] for s in scaled]),
            "setup_s": _median([s["setup_s"] for s in scaled]),
            "cpu_s": _median([s["cpu_s"] for s in scaled]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "ok_frac": (len(ops) - failed) / len(ops),
        }
        return metrics, len(ops), failed
    traced = [r for r in timed if r["traced"]]
    names = list(traced[0]["layers"]) if traced else []
    metrics = {n: _median([r["layers"][n] for r in traced]) for n in names}
    metrics["cli.bytes_out"] = _median([r["bytes_out"] for r in traced])
    metrics["trace.overhead_frac"] = (_median([rescaled(r)["run_s"] for r in traced])
                                      / _median([rescaled(r)["run_s"] for r in plain])
                                      - 1)
    return metrics, len(ops), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qpspec" / "__init__.py").is_file():
        print(f"bench: no qpspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    timed = [r for r in samples["ops"] if "run_s" in r]
    if not timed or (args.trace and not any(r["traced"] for r in timed)):
        for r in samples["ops"]:
            print("\n".join(r["errors"]), file=sys.stderr)
        print("bench: no operation completed", file=sys.stderr)
        return 1
    values, attempted, failed = summarise(samples, bool(args.trace))
    units = declared_metrics(bool(args.trace))
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    if not all(math.isfinite(v) for v in values.values()):
        print("bench: too few completed operations to compute every metric",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    machine = timed[0]["machine"]
    for r in samples["ops"]:
        for err in r["errors"]:
            print(f"FAILED {','.join(r['keys'])}: {err}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    plain = [r for r in timed if not r["traced"]]
    print("raw medians (not rescaled): " + "  ".join(
        f"{k} {_median([r[k] for r in plain]):.4f} s" for k in ("run_s", "setup_s", "cpu_s"))
        + f"  kernel {_median([w for r in plain for w, _ in r['speed']]):.4f} s")
    print("machine " + json.dumps(machine, sort_keys=True))
    (work.parent / f"{work.name}.json").write_text(json.dumps(
        {"machine": machine, "metrics": metrics, "samples": samples}, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
