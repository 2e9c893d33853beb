"""The three workloads: frozen input pools, the seeded operation stream, and
the worker-side set-up, execution and output extraction.

An operation ("op") is one fresh-interpreter run of qpspec on inputs drawn
from a workload's pool.  The seed fixes the sequence of draws, so the same
seed gives the same inputs.  Draws walk through seeded shuffles of the whole
pool, so the few ops of one run cover the pool evenly and the run's median
depends little on the seed.  Every pool member has a stored reference output
(``bench/reference/<workload>.json``) captured by ``bench/capture.py``, and
each op's outputs are keyed by pool member so they can be checked against it.

The parent side (``WORKLOADS``, ``op_stream``, ``capture_ops``) is plain
Python; the worker side (``setup``, ``execute``, ``extract``) imports qpspec.
Configs are written without inline comments or ``%``, which the qpspec INI
reader does not accept.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

# certify-amo: cosine model lambda=2, E=0.5, Liouville frequency with
# beta=1.12 and 4 terms, whose level 3 has q=276; 72 directions keep the
# direction loop near its share at q=1026 with 360; one phase per op
AMO_THETAS = ("1/10", "1/5", "3/10", "2/5", "3/5", "7/10", "4/5", "9/10")
AMO_DIRECTIONS = 72
# certify-maryland: tangent model, q=57; 3 energies per op from a 33-point grid
MARYLAND_DIRECTIONS = 360
MARYLAND_ENERGIES = tuple(float(Fraction(k - 16, 16)) for k in range(33))
MARYLAND_PER_OP = 3
# library: one truncated spectrum, one A-kind Lyapunov estimate, one
# `qpspec indices` run and one `qpspec classify` run of one energy (tangent
# model, golden frequency, from the 21-point grid on [-3, 3]) per op
SPECTRUM_THETAS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
SPECTRUM_N = 1024
LYAPUNOV_ENERGIES = (-2.0, -1.0, 0.0, 1.0, 2.0)
LYAPUNOV_N = 100_000
INDEX_THETAS = ("3/8", "1/8", "5/8", "7/8")
CLASSIFY_ENERGIES = tuple(float(Fraction(3 * k - 30, 10)) for k in range(21))

WORKLOADS = ("certify-amo", "certify-maryland", "library")


def _ini(sections: dict) -> str:
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for name, body in sections.items())


def _gordon_config(model, coupling, beta, theta, energies, directions) -> str:
    return _ini({
        "model": {"name": model, "coupling": coupling},
        "alpha": {"kind": "named", "name": "liouville", "beta_target": beta,
                  "terms": 4},
        "phase": {"theta": theta},
        "energies": {"kind": "list", "values": " ".join(map(repr, energies))},
        "depths": {"gordon_levels": 3},
        "run": {"directions": directions, "c_rate": 0.01},
    })


def _classify_config(energies) -> str:
    return _ini({
        "model": {"name": "maryland", "coupling": 0.15},
        "alpha": {"kind": "named", "name": "golden", "terms": 40},
        "phase": {"theta": "3/8"},
        "energies": {"kind": "list", "values": " ".join(map(repr, energies))},
        "depths": {"lyapunov_n": 100000},
        "run": {"lyapunov_grid": 64},
    })


def _indices_config(theta) -> str:
    return _ini({
        "model": {"name": "maryland", "coupling": 0.15},
        "alpha": {"kind": "named", "name": "liouville", "beta_target": 1.0,
                  "terms": 4},
        "phase": {"theta": theta},
        "depths": {"gamma_nmax": 10000},
    })


def _op(workload, **inputs) -> dict:
    if workload == "certify-amo":
        return {"workload": workload, "command": "gordon",
                "config": _gordon_config("amo", 2.0, 1.12, inputs["theta"], [0.5],
                                         AMO_DIRECTIONS),
                "keys": [f"theta={inputs['theta']}"]}
    if workload == "certify-maryland":
        es = sorted(inputs["energies"])
        return {"workload": workload, "command": "gordon",
                "config": _gordon_config("maryland", 0.15, 1.0, "3/8", es,
                                         MARYLAND_DIRECTIONS),
                "keys": [f"E={e!r}" for e in es]}
    th, E, ith = inputs["spectrum_theta"], inputs["E"], inputs["indices_theta"]
    es = sorted(inputs["classify_energies"])
    return {"workload": workload, "command": "indices",
            "config": _indices_config(ith), "classify_config": _classify_config(es),
            "spectrum_theta": th, "E": E,
            "keys": [f"spectrum:theta={th!r}", f"lyapunov:E={E!r}",
                     f"indices:theta={ith}", "delta"] + [f"E={e!r}" for e in es]}


def _groups(rng: random.Random, pool, k: int):
    """Endless groups of k distinct pool members, taken in order from seeded
    shuffles of the whole pool."""
    queue = []
    while True:
        if len(queue) < len(pool):
            fresh = list(pool)
            rng.shuffle(fresh)
            queue += fresh
        group = []
        for x in list(queue):
            if x not in group:
                group.append(x)
                queue.remove(x)
                if len(group) == k:
                    break
        yield group


def op_stream(workload: str, seed: int):
    """Endless, seed-determined sequence of op specs for a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "certify-amo":
        for (theta,) in _groups(rng, AMO_THETAS, 1):
            yield _op(workload, theta=theta)
    elif workload == "certify-maryland":
        for es in _groups(rng, MARYLAND_ENERGIES, MARYLAND_PER_OP):
            yield _op(workload, energies=es)
    else:
        for (th,), (E,), (ith,), ces in zip(_groups(rng, SPECTRUM_THETAS, 1),
                                            _groups(rng, LYAPUNOV_ENERGIES, 1),
                                            _groups(rng, INDEX_THETAS, 1),
                                            _groups(rng, CLASSIFY_ENERGIES, 1)):
            yield _op(workload, spectrum_theta=th, E=E, indices_theta=ith,
                      classify_energies=ces)


def capture_ops(workload: str) -> list[dict]:
    """Ops that together cover every pool member of a workload."""
    if workload == "certify-amo":
        return [_op(workload, theta=t) for t in AMO_THETAS]
    if workload == "certify-maryland":
        return [_op(workload, energies=MARYLAND_ENERGIES)]
    n = max(len(SPECTRUM_THETAS), len(LYAPUNOV_ENERGIES), len(INDEX_THETAS))
    return [_op(workload, spectrum_theta=SPECTRUM_THETAS[i % len(SPECTRUM_THETAS)],
                E=LYAPUNOV_ENERGIES[i % len(LYAPUNOV_ENERGIES)],
                indices_theta=INDEX_THETAS[i % len(INDEX_THETAS)],
                classify_energies=CLASSIFY_ENERGIES[i::n])
            for i in range(n)]


# ---------------------------------------------------------------------------
# worker side (imports qpspec)


def setup(spec: dict, config_path: Path) -> dict:
    """Import qpspec and build what a CLI call builds before it computes:
    the parsed config, the continued fraction and the potential."""
    import qpspec
    from qpspec.cli import RunConfig

    cfg = RunConfig(config_path)
    state = {"potential": cfg.potential(), "cf": cfg.alpha_cf(),
             "theta": cfg.theta()}
    if spec["workload"] == "library":
        state["lib_potential"] = qpspec.make_maryland(1.0)
        state["lib_cf"] = qpspec.golden_cf(40)
    return state


def potentials(state: dict) -> list:
    return [v for k, v in state.items() if k.endswith("potential")]


def execute(spec: dict, state: dict, config_path: Path, out: Path,
            between=lambda: None) -> dict:
    """Run the op, calling ``between()`` between its parts; returns
    in-memory results for ``extract``."""
    import qpspec
    import qpspec.cli

    raw = {}
    if spec["workload"] == "library":
        pot, cf = state["lib_potential"], state["lib_cf"]
        raw["spectrum"] = qpspec.truncated_spectrum(pot, spec["spectrum_theta"],
                                                    cf.value, SPECTRUM_N)
        between()
        raw["lyapunov"] = qpspec.lyapunov(pot, spec["E"], cf.value, LYAPUNOV_N,
                                          kind="A")
        between()
    raw["exit"] = qpspec.cli.main([spec["command"], "--config", str(config_path),
                                   "--out", str(out)])
    if "classify_config" in spec:
        between()
        raw["classify_exit"] = qpspec.cli.main(
            ["classify", "--config", str(classify_config_path(config_path)),
             "--out", str(out)])
    return raw


def classify_config_path(config_path: Path) -> Path:
    """Where the parent writes an op's ``classify_config``."""
    return config_path.with_name(f"{config_path.stem}-classify.ini")


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [ln.split(",") for ln in lines[1:]]


def _num(x):
    return float(x) if isinstance(x, str) else x


def extract(spec: dict, raw: dict, out: Path) -> tuple[dict, list[str]]:
    """Outputs keyed by pool member, plus failure reasons found in them
    (nonzero exit, an ``error`` cell in a CSV, a missing key)."""
    errors = []
    if raw["exit"] != 0:
        return {}, [f"qpspec {spec['command']} exited {raw['exit']}"]
    if raw.get("classify_exit", 0) != 0:
        return {}, [f"qpspec classify exited {raw['classify_exit']}"]
    for csv in sorted(out.glob("*.csv")):
        for row in _csv_rows(csv):
            if "error" in row:
                errors.append(f"error row in {csv.name}: {','.join(row)}")
    outputs = {}
    w = spec["workload"]
    if w.startswith("certify-"):
        certs = json.loads((out / "certificates.json").read_text())
        if len(_csv_rows(out / "certificates.csv")) != len(certs):
            errors.append("certificates.csv and certificates.json disagree")
        for c in certs:
            key = spec["keys"][0] if w == "certify-amo" else f"E={c['E']!r}"
            outputs[key] = {k: c[k] for k in ("E", "q", "level", "lhs_square_log",
                                              "lhs_inverse_log", "trace", "max_norm",
                                              "empirical_rate", "verdict")}
    else:
        ev, flagged = raw["spectrum"]
        outputs[spec["keys"][0]] = {
            "n": len(ev), "flagged": list(flagged), "min": float(ev[0]),
            "max": float(ev[-1]), "sum": math.fsum(map(float, ev)),
            "sample": [float(x) for x in ev[::16]]}
        est = raw["lyapunov"]
        outputs[spec["keys"][1]] = {"value": est.value, "discrepancy": est.discrepancy,
                                    "n": est.n, "phases_used": est.phases_used,
                                    "method": est.method, "kind": est.kind}
        ind = json.loads((out / "indices.json").read_text())
        digest = {}
        for name in ("beta", "gamma", "delta"):
            iv = ind[name]
            per = [_num(v) for v in iv["per_level"]]
            if len(_csv_rows(out / f"{name}.csv")) != len(per):
                errors.append(f"{name}.csv and indices.json disagree")
            step = max(1, len(per) // 64)
            digest[name] = {"value": _num(iv["value"]), "terms_used": iv["terms_used"],
                            "tail_start": iv["tail_start"], "witness": iv["witness"],
                            "resolution_limited": iv["resolution_limited"],
                            "sum": math.fsum(per), "sample": per[::step]}
        outputs[spec["keys"][2]] = digest
        res = json.loads((out / "classify.json").read_text())
        d = res["delta_hat"]
        outputs["delta"] = {"value": _num(d["value"]), "terms_used": d["terms_used"],
                            "lower": res["delta_lower"], "upper": res["delta_upper"]}
        for row in res["rows"]:
            outputs[f"E={row['E']!r}"] = {"L": row["L"], "margin": row["margin"],
                                          "label": row["label"]}
    missing = [k for k in spec["keys"] if k not in outputs]
    if missing:
        errors.append(f"outputs missing for {missing}")
    return outputs, errors
