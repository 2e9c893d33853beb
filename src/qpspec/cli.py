"""Command-line front end.

Subcommands: indices | lyapunov | gordon | classify | cf.  Configuration is a
flat INI file (key = value under sections); unknown sections or keys are
rejected.  All numeric output is serialised with 17 significant digits and a
deterministic ordering, so identical config + seed reproduces byte-identical
files.

Exit codes: 0 ok, 2 config, 3 io, 4 range, 5 numeric.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from . import __version__
from .arithmetic import (
    beta,
    cf_from_coeffs,
    cf_from_real,
    cf_to_text,
    delta_index,
    gamma,
    golden_cf,
    liouville_cf,
    silver_cf,
)
from .errors import ConfigError, OutputError, QPSpecError, RangeError
from .gordon import exclusion_certificate
from .potential import make_amo, make_custom, make_maryland
from .spectral import classify_regime, lyapunov_scan

_SCHEMA = {
    "model": {"name", "coupling", "poles", "g"},
    "alpha": {"kind", "coefficients", "file", "value", "precision", "name",
              "beta_target", "terms", "first_coeff"},
    "phase": {"theta"},
    "energies": {"kind", "min", "max", "count", "values"},
    "depths": {"lyapunov_n", "gordon_levels", "gamma_nmax"},
    "run": {"epsilon", "c_rate", "seed", "lyapunov_grid", "directions",
            "lyapunov_kind"},
}


_LYAPUNOV_KINDS = ("A", "D")


def _fmt(x) -> str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


class RunConfig:
    """Validated view over the INI file; every accessor raises ConfigError
    with the offending key on bad input."""

    def __init__(self, path: Path):
        cp = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not readable: {path}")
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in cp[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        self.cp = cp
        self.base = path.parent

    def _get(self, section, key, default=None, required=False):
        try:
            return self.cp[section][key]
        except KeyError:
            if required:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default

    def _num(self, section, key, conv, default=None, required=False,
             positive=False):
        raw = self._get(section, key, required=required)
        if raw is None:
            return default
        try:
            val = conv(raw)
        except ValueError:
            raise ConfigError(f"bad numeric value for [{section}] {key}: {raw!r}")
        if positive and val <= 0:
            raise ConfigError(f"[{section}] {key} must be positive, got {raw}")
        return val

    # -- pieces -------------------------------------------------------------

    def potential(self):
        name = self._get("model", "name", required=True)
        coupling = self._num("model", "coupling", float, default=1.0)
        if name == "amo":
            return make_amo(coupling)
        if name == "maryland":
            return make_maryland(coupling)
        if name == "custom":
            raw = self._get("model", "poles", default="")
            poles = []
            for tok in raw.replace(",", " ").split():
                if ":" in tok:
                    loc, mult = tok.split(":", 1)
                    mult = int(mult)
                else:
                    loc, mult = tok, 1
                poles.extend([_parse_number(loc)] * mult)
            g_name = self._get("model", "g", required=True)
            return make_custom(poles, g_name, coupling=coupling)
        raise ConfigError(f"unknown model name {name!r}")

    def alpha_cf(self):
        kind = self._get("alpha", "kind", required=True)
        terms = self._num("alpha", "terms", int, default=40, positive=True)
        if kind == "coefficients":
            raw = self._get("alpha", "coefficients")
            if raw is None:
                fn = self._get("alpha", "file", required=True)
                raw = (self.base / fn).read_text()
            try:
                coeffs = [int(t) for t in raw.split()]
            except ValueError:
                raise ConfigError("bad coefficient list in [alpha]")
            return cf_from_coeffs(coeffs)
        if kind == "decimal":
            raw = self._get("alpha", "value", required=True)
            prec = self._num("alpha", "precision", int, required=True,
                             positive=True)
            with mp.workprec(prec):
                val = mp.mpf(raw)
            return cf_from_real(val, terms, precision=prec)
        if kind == "named":
            name = self._get("alpha", "name", required=True)
            if name == "golden":
                return golden_cf(terms)
            if name == "silver":
                return silver_cf(terms)
            if name == "liouville":
                bt = self._num("alpha", "beta_target", float, required=True,
                               positive=True)
                fc = self._num("alpha", "first_coeff", int, default=1,
                               positive=True)
                return liouville_cf(bt, terms, first_coeff=fc)
            raise ConfigError(f"unknown named alpha {name!r}")
        raise ConfigError(f"unknown alpha kind {kind!r}")

    def theta(self):
        raw = self._get("phase", "theta", default="0")
        return _parse_number(raw)

    def energy_grid(self):
        kind = self._get("energies", "kind", default="list")
        if kind == "grid":
            lo = self._num("energies", "min", float, required=True)
            hi = self._num("energies", "max", float, required=True)
            count = self._num("energies", "count", int, required=True,
                              positive=True)
            if hi < lo:
                raise ConfigError("[energies] max must be >= min")
            if count == 1:
                return [lo]
            step = (hi - lo) / (count - 1)
            return [lo + i * step for i in range(count)]
        if kind == "list":
            raw = self._get("energies", "values", default="")
            try:
                return [float(t) for t in raw.replace(",", " ").split()]
            except ValueError:
                raise ConfigError("bad energy list in [energies] values")
        raise ConfigError(f"unknown energies kind {kind!r}")

    def depth(self, key, default, positive=True):
        return self._num("depths", key, int, default=default, positive=positive)

    def run_num(self, key, conv, default, positive=False):
        return self._num("run", key, conv, default=default, positive=positive)

    def gordon_levels(self):
        raw = self._get("depths", "gordon_levels", default="")
        try:
            return [int(t) for t in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError("bad level list in [depths] gordon_levels")


def _parse_number(raw: str):
    raw = raw.strip()
    try:
        return Fraction(raw)  # fractions and decimal strings parse exactly
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad number: {raw!r}")


# ---------------------------------------------------------------------------
# output writers


def _prepare_out(out: str) -> Path:
    path = Path(out)
    if path.exists() and not path.is_dir():
        raise OutputError(f"output path exists and is not a directory: {path}")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {path}: {exc}")
    return path


def _write(path: Path, text: str, verbose: bool):
    try:
        path.write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}")
    if verbose:
        print(f"wrote {path}", file=sys.stderr)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _index_csv(iv) -> str:
    return _csv(((n, v) for n, v in enumerate(iv.per_level, start=1)),
                ("level", "value"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(cfg: RunConfig, out: Path, args) -> int:
    cf = cfg.alpha_cf()
    _write(out / "alpha.cf", cf_to_text(cf), args.verbose)
    meta = {
        "depth": cf.depth,
        "valid_prefix": cf.valid_prefix,
        "precision_bits": cf.precision,
        "q": [str(qn) for qn in cf.q],
        "p": [str(pn) for pn in cf.p],
    }
    _write(out / "alpha.json", json.dumps(meta, sort_keys=True, indent=1) + "\n",
           args.verbose)
    return 0


def cmd_indices(cfg: RunConfig, out: Path, args) -> int:
    pot = cfg.potential()
    cf = cfg.alpha_cf()
    theta = cfg.theta()
    n_max = cfg.depth("gamma_nmax", 10000)
    b = beta(cf)
    g = gamma(cf, theta, n_max=n_max)
    d = delta_index(cf, theta, pot.poles)
    _write(out / "beta.csv", _index_csv(b), args.verbose)
    _write(out / "gamma.csv", _index_csv(g), args.verbose)
    _write(out / "delta.csv", _index_csv(d), args.verbose)
    summary = {"beta": b.to_json_dict(), "gamma": g.to_json_dict(),
               "delta": d.to_json_dict(), "model": pot.label}
    _write(out / "indices.json",
           json.dumps(summary, sort_keys=True, indent=1, default=_fmt)
           + "\n", args.verbose)
    return 0


def cmd_lyapunov(cfg: RunConfig, out: Path, args) -> int:
    pot = cfg.potential()
    cf = cfg.alpha_cf()
    grid = cfg.run_num("lyapunov_grid", int, 64, positive=True)
    kind = cfg._get("run", "lyapunov_kind", default="D")
    if kind not in _LYAPUNOV_KINDS:
        raise ConfigError(f"[run] lyapunov_kind must be one of "
                          f"{', '.join(_LYAPUNOV_KINDS)}, got {kind!r}")
    n = cfg.depth("lyapunov_n", 10000)
    energies = cfg.energy_grid()
    ests = lyapunov_scan(pot, cf.value, energies, n, grid=grid, kind=kind)
    rows = []
    for E, est in zip(energies, ests):
        if isinstance(est, Exception):
            rows.append((E, "error", n, "phase-average", "nan"))
        else:
            rows.append((E, est.value, est.n, est.method, est.discrepancy))
    _write(out / "lyapunov.csv",
           _csv(rows, ("E", "L", "n", "method", "discrepancy")), args.verbose)
    return 0


def cmd_gordon(cfg: RunConfig, out: Path, args) -> int:
    pot = cfg.potential()
    cf = cfg.alpha_cf()
    theta = cfg.theta()
    levels = cfg.gordon_levels()
    if not levels:
        raise ConfigError("[depths] gordon_levels is required for gordon")
    for n_i in levels:
        if n_i > cf.depth:
            raise RangeError(
                f"gordon level {n_i} exceeds computed depth {cf.depth}")
    c = cfg.run_num("c_rate", float, 1e-2, positive=True)
    energies = cfg.energy_grid()
    all_certs = []
    for E in energies:
        certs = exclusion_certificate(pot, E, theta, cf.value, cf, levels, c)
        all_certs.extend(c_.to_json_dict() for c_ in certs)
    _write(out / "certificates.json",
           json.dumps(all_certs, sort_keys=True, indent=1,
                      default=_fmt) + "\n", args.verbose)
    rows = [(c_["E"], c_["q"], c_["lhs_square_log"], c_["lhs_inverse_log"],
             c_["trace"], c_["max_norm"], c_["empirical_rate"], c_["verdict"])
            for c_ in all_certs]
    _write(out / "certificates.csv",
           _csv(rows, ("E", "q", "lhs_square_log", "lhs_inverse_log", "trace",
                       "max_norm", "empirical_rate", "verdict")), args.verbose)
    return 0


def cmd_classify(cfg: RunConfig, out: Path, args) -> int:
    pot = cfg.potential()
    cf = cfg.alpha_cf()
    theta = cfg.theta()
    n = cfg.depth("lyapunov_n", 100000)
    grid = cfg.run_num("lyapunov_grid", int, 64, positive=True)
    energies = cfg.energy_grid()
    d = delta_index(cf, theta, pot.poles)
    res = classify_regime(pot, theta, cf.value, energies, n, d, grid=grid)
    _write(out / "classify.csv",
           _csv(res.rows(), ("E", "L", "margin", "label")), args.verbose)
    _write(out / "classify.json",
           json.dumps(res.to_json_dict(), sort_keys=True, indent=1,
                      default=_fmt) + "\n", args.verbose)
    return 0


_COMMANDS = {
    "cf": cmd_cf,
    "indices": cmd_indices,
    "lyapunov": cmd_lyapunov,
    "gordon": cmd_gordon,
    "classify": cmd_classify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpspec",
        description="arithmetic indices, Lyapunov exponents and exclusion "
                    "certificates for quasiperiodic operators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker hint; results are thread-count independent")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(Path(args.config))
        out = _prepare_out(args.out)
        return _COMMANDS[args.command](cfg, out, args)
    except QPSpecError as exc:
        print(f"qpspec: error[{exc.exit_code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"qpspec: error[3]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
