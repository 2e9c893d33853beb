"""Command-line front end.

Subcommands: indices | lyapunov | gordon | classify | cf.  Configuration is a
flat INI file (key = value under sections); unknown sections or keys are
rejected.  Every output file is spelled here, and identical configs give
byte-identical files, each streamed to a temporary file in the output
directory and moved into place.  CSV numbers have 17 significant digits.
JSON files are strict JSON (RFC 8259) written by ``_write_json``: floats
are the shortest round-trip ``repr``, +-inf is written "inf" / "-inf" and
nan null.

Exit codes: 0 ok, 2 config, 3 io, 4 range, 5 numeric.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import math
import os
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
from .errors import ConfigError, InvalidInputError, OutputError, QPSpecError
from .gordon import exclusion_certificates
from .potential import G_REGISTRY, make_amo, make_custom, make_maryland
from .spectral import LABELS, classify_regime, lyapunov_scan

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

# the GordonCertificate fields in certificates.csv, in column order;
# certificates.json also has the level
_CERT_COLUMNS = ("E", "q", "lhs_square_log", "lhs_inverse_log", "trace",
                 "max_norm", "empirical_rate", "verdict")
_CLASSIFY_COLUMNS = ("E", "L", "margin", "label")


def _fmt(x) -> str:
    return format(float(x), ".17g")  # inf, -inf and nan spelled as such


class RunConfig:
    """Validated view over the INI file; every accessor raises ConfigError
    with the offending key on bad input."""

    def __init__(self, path: Path):
        cp = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
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
        # read by no subcommand, but a bad value is still a config error
        self._num("run", "epsilon", float)
        self._num("run", "seed", int)
        self._num("run", "directions", int, positive=True)

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
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"[{section}] {key} must be finite, got {raw}")
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
            return _keyed("model", "coupling", make_maryland, coupling)
        if name == "custom":
            raw = self._get("model", "poles", default="")
            poles = []
            for tok in raw.replace(",", " ").split():
                loc, sep, mult = tok.partition(":")
                try:
                    mult = int(mult) if sep else 1
                except ValueError:
                    mult = 0
                if mult < 1:
                    raise ConfigError(
                        f"bad pole multiplicity in [model] poles: {tok!r}")
                poles.extend([_parse_number(loc, "model", "poles")] * mult)
            g_name = self._get("model", "g", required=True)
            return _keyed("model", "poles" if g_name in G_REGISTRY else "g",
                          make_custom, poles, g_name, coupling=coupling)
        raise ConfigError(f"unknown model name {name!r}")

    def alpha_cf(self):
        kind = self._get("alpha", "kind", required=True)
        terms = self._num("alpha", "terms", int, default=40, positive=True)
        if kind == "coefficients":
            key, raw = "coefficients", self._get("alpha", "coefficients")
            if raw is None:
                key, fn = "file", self._get("alpha", "file", required=True)
                try:
                    raw = (self.base / fn).read_text()
                except (OSError, UnicodeDecodeError) as exc:
                    raise ConfigError(f"[alpha] file not readable: {fn!r} ({exc})")
            try:
                coeffs = [int(t) for t in raw.split()]
            except ValueError:
                raise ConfigError(f"bad coefficient list in [alpha] {key}")
            return _keyed("alpha", key, cf_from_coeffs, coeffs)
        if kind == "decimal":
            raw = self._get("alpha", "value", required=True)
            prec = self._num("alpha", "precision", int, required=True,
                             positive=True)
            try:
                with mp.workprec(prec):
                    val = mp.mpf(raw)
            except ValueError:
                raise ConfigError(f"bad numeric value for [alpha] value: {raw!r}")
            if not 0 < val < 1:  # false for nan as well
                raise ConfigError(f"[alpha] value must lie in (0, 1), got {raw}")
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
        return _parse_number(raw, "phase", "theta")

    def energy_grid(self):
        kind = self._get("energies", "kind", default="list")
        if kind == "grid":
            lo = self._num("energies", "min", float, required=True)
            hi = self._num("energies", "max", float, required=True)
            count = self._num("energies", "count", int, required=True,
                              positive=True)
            if hi < lo:
                raise ConfigError("[energies] max must be >= min")
            if not math.isfinite(hi - lo):
                raise ConfigError(f"[energies] max - min overflows ({lo}, {hi})")
            if count == 1:
                return [lo]
            step = (hi - lo) / (count - 1)
            return [lo + i * step for i in range(count)]
        if kind == "list":
            raw = self._get("energies", "values", default="")
            try:
                values = [float(t) for t in raw.replace(",", " ").split()]
            except ValueError:
                raise ConfigError("bad energy list in [energies] values")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"[energies] values must be finite, got {raw}")
            return values
        raise ConfigError(f"unknown energies kind {kind!r}")

    def depth(self, key, default):
        return self._num("depths", key, int, default=default, positive=True)

    def run_num(self, key, conv, default):
        return self._num("run", key, conv, default=default, positive=True)

    def gordon_levels(self):
        raw = self._get("depths", "gordon_levels", default="")
        try:
            levels = [int(t) for t in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError("bad level list in [depths] gordon_levels")
        if any(n < 1 for n in levels):
            raise ConfigError(f"[depths] gordon_levels must be >= 1, got {raw}")
        return levels


def _keyed(section: str, key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a factory's refusal re-raised as a
    ConfigError naming ``[section] key``."""
    try:
        return make(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _parse_number(raw: str, section: str, key: str):
    raw = raw.strip()
    try:
        return Fraction(raw)  # fractions and decimal strings parse exactly
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad number in [{section}] {key}: {raw!r}")


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


def _write(path: Path, chunks, verbose: bool):
    """Stream ``chunks`` to ``path``; a failed write leaves no partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # keep the write's own error
            tmp.unlink()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc}")
        raise
    if verbose:
        print(f"wrote {path}", file=sys.stderr)


def _json_value(x):
    """``x`` with the one non-finite rule of the JSON files applied: +-inf
    becomes "inf" / "-inf" and nan None, so that no float left is out of
    strict JSON's range.  A list or tuple is copied only when one of its
    items changes, so a long list of finite floats is not copied."""
    if isinstance(x, float):
        if math.isfinite(x):
            return x
        return None if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        if any(_json_value(v) is not v for v in x):
            return [_json_value(v) for v in x]
        return x
    return x


# json.dumps(indent=1) runs this encoder, so its chunks join to those bytes
_JSON = json.JSONEncoder(sort_keys=True, indent=1, allow_nan=False)


def _write_json(path: Path, obj, verbose: bool):
    _write(path, itertools.chain(_JSON.iterencode(_json_value(obj)), ("\n",)),
           verbose)


def _csv(rows, header):
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(c if isinstance(c, str) else _fmt(c) for c in row) + "\n"


def _index_csv(iv):
    """``_csv`` of the (level, value) rows, formatted directly: "%.17g"
    spells inf, -inf and nan as ``_fmt`` does."""
    yield "level,value\n"
    yield from map("%d,%.17g\n".__mod__, enumerate(iv.per_level, start=1))


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(cfg: RunConfig, out: Path, args) -> int:
    cf = cfg.alpha_cf()
    _write(out / "alpha.cf", [cf_to_text(cf)], args.verbose)
    meta = {
        "depth": cf.depth,
        "valid_prefix": cf.depth,  # every emitted coefficient is certified
        "precision_bits": cf.precision,
        "q": [str(qn) for qn in cf.q],
        "p": [str(pn) for pn in cf.p],
    }
    _write_json(out / "alpha.json", meta, args.verbose)
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
    # an IndexValue is written as its fields
    _write_json(out / "indices.json", {"beta": vars(b), "gamma": vars(g),
                                       "delta": vars(d), "model": pot.label},
                args.verbose)
    return 0


def cmd_lyapunov(cfg: RunConfig, out: Path, args) -> int:
    pot = cfg.potential()
    cf = cfg.alpha_cf()
    grid = cfg.run_num("lyapunov_grid", int, 64)
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
            rows.append((E, "error", n, type(est).__name__, "nan"))
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
    c = cfg.run_num("c_rate", float, 1e-2)
    energies = cfg.energy_grid()
    all_certs = []
    # the levels are checked before any work, with no energy as well
    batch = exclusion_certificates(pot, energies, theta, cf, levels, c)
    for E, certs in zip(energies, batch):
        if args.verbose:
            print(f"gordon E={_fmt(E)}: " + "; ".join(
                f"level {c_.level} q={c_.q} {c_.precision} bits "
                f"matrices {c_.matrices_s:.3f} s" for c_ in certs),
                file=sys.stderr)
        all_certs.extend(certs)
    _write_json(out / "certificates.json",
                [{k: getattr(c_, k) for k in _CERT_COLUMNS + ("level",)}
                 for c_ in all_certs], args.verbose)
    rows = [[getattr(c_, k) for k in _CERT_COLUMNS] for c_ in all_certs]
    _write(out / "certificates.csv", _csv(rows, _CERT_COLUMNS), args.verbose)
    return 0


def cmd_classify(cfg: RunConfig, out: Path, args) -> int:
    pot = cfg.potential()
    cf = cfg.alpha_cf()
    # classify_regime's own checks, made here to name the keys
    if cf.depth < 9:
        raise ConfigError(f"[alpha] gives {cf.depth} continued-fraction "
                          "coefficients; classify needs >= 9 for an index "
                          "surrogate of >= 8 levels")
    theta = cfg.theta()
    n = cfg.depth("lyapunov_n", 100000)
    if n < 10_000:
        raise ConfigError(f"[depths] lyapunov_n must be >= 10^4 for classify, got {n}")
    grid = cfg.run_num("lyapunov_grid", int, 64)
    energies = cfg.energy_grid()
    d = delta_index(cf, theta, pot.poles)
    res = classify_regime(pot, theta, cf.value, energies, n, d, grid=grid)
    # a failed energy's L is written "error" and its nan margin "nan" in
    # CSV and null in JSON
    rows = [(e, L if lab in LABELS else "error", u, lab)
            for e, L, u, lab in zip(res.energies, res.L_values,
                                    res.uncertainty, res.labels)]
    _write(out / "classify.csv", _csv(rows, _CLASSIFY_COLUMNS), args.verbose)
    _write_json(out / "classify.json", {
        "delta_hat": vars(res.delta_hat), "delta_lower": res.delta_lower,
        "delta_upper": res.delta_upper,
        "uncertain_fraction": res.uncertain_fraction,
        "rows": [dict(zip(_CLASSIFY_COLUMNS, row)) for row in rows],
    }, args.verbose)
    return 0


_COMMANDS = {
    "cf": cmd_cf,
    "indices": cmd_indices,
    "lyapunov": cmd_lyapunov,
    "gordon": cmd_gordon,
    "classify": cmd_classify,
}


def build_parser() -> argparse.ArgumentParser:
    # one parser with the command as a positional: every command takes the
    # same options, and a parser per command costs start-up time for nothing
    parser = argparse.ArgumentParser(
        prog="qpspec",
        description="arithmetic indices, Lyapunov exponents and exclusion "
                    "certificates for quasiperiodic operators")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted but unused; results do not depend on it")
    parser.add_argument("--verbose", action="store_true")
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
