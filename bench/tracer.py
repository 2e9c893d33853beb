"""Span tracer for the qpspec layers, installed from outside the package.

``Tracer.install`` wraps every public function and public method of the six
layer modules (cli, arithmetic, potential, cocycle, gordon, spectral) and
rebinds each name where a caller resolves it at call time: the module
globals of every qpspec module (``cli`` and ``gordon`` hold their own
bindings of imported names), dicts of functions held in module globals
(``cli._COMMANDS``, ``cocycle._STEPS``), the class dicts of the layer
classes, and the ``g`` closure of each potential instance.
``Tracer.uninstall`` puts every original back and ``restored`` checks that
it did.

Spans are aggregated as they close rather than stored: a span's self time is
its duration minus the durations of the spans it directly encloses, so the
self times of all spans add up to the time spent inside top-level spans.
Spans fall into groups (``potential.mp``, ``gordon.lhs`` ...); a span whose
parent is in another group is an *entry* into its group, and inclusive time
is summed over entries only, so nesting inside a group never counts twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "arithmetic", "potential", "cocycle", "gordon", "spectral")

# potential evaluations are grouped by argument type (mp scalar or array)
_EVALS = ("eval_V", "f", "g", "V_array", "pole_distance")

# name (or class name) -> group within a layer; names not listed fall into
# "<layer>.other", except in cocycle where everything outside the float
# Lyapunov engine is high-precision step and matrix work ("cocycle.mp")
_GROUPS = {
    "cli": {"RunConfig": "cli.config"},
    "cocycle": dict.fromkeys(("lyapunov", "uniform_bound_check", "phase_grid"),
                             "cocycle.lyapunov"),
    "gordon": {
        "gordon_matrices": "gordon.matrices",
        "gordon_lhs": "gordon.lhs",
        "bounded_candidate": "gordon.candidates",
        "contracted_direction": "gordon.candidates",
        "exclusion_certificate": "gordon.certificate",
    },
    "spectral": {
        "truncated_spectrum": "spectral.spectrum",
        "sturm_count": "spectral.spectrum",
        "lyapunov_scan": "spectral.scan",
        "classify_regime": "spectral.scan",
    },
    "arithmetic": {
        **dict.fromkeys(("cf_from_coeffs", "cf_from_real", "cf_from_text",
                         "golden_cf", "silver_cf", "liouville_cf"),
                        "arithmetic.cf"),
        **dict.fromkeys(("beta", "gamma", "delta_index", "min_sine_index",
                         "sine_product_check", "qualifying_levels"),
                        "arithmetic.index"),
    },
}


class _Group:
    __slots__ = ("self_s", "entries", "entry_s", "attrs")

    def __init__(self):
        self.self_s = 0.0
        self.entries = 0
        self.entry_s = 0.0
        self.attrs: dict[str, float] = {}

    def add(self, key, value):
        if key.endswith("_max"):
            self.attrs[key] = max(self.attrs.get(key, value), value)
        else:
            self.attrs[key] = self.attrs.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.groups: dict[str, _Group] = {}
        self.calls: dict[str, list[int]] = {}  # "layer.name" -> [count]
        # frames are [_Group, time spent in directly enclosed spans]
        self.stack: list[list] = [[None, 0.0]]
        self._patches: list[tuple] = []
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def _group(self, key):
        g = self.groups.get(key)
        if g is None:
            g = self.groups[key] = _Group()
        return g

    def _wrap(self, layer: str, name: str, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        short = name.rsplit(".", 1)[-1]
        groups = _GROUPS.get(layer, {})
        static = self._group(groups.get(short) or groups.get(name.split(".", 1)[0])
                             or ("cocycle.mp" if layer == "cocycle" else f"{layer}.other"))
        if layer == "potential" and short in _EVALS:
            g_mp, g_array = self._group("potential.mp"), self._group("potential.array")
        else:
            g_mp = g_array = static
        makes_potential = layer == "potential" and short.startswith("make_")
        hook = _HOOKS.get((layer, short))
        counter = self.calls.setdefault(f"{layer}.{name}", [0])
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group = g_mp
            if g_array is not g_mp:
                for a in args:
                    if isinstance(a, np.ndarray):
                        group = g_array
                        break
            parent = stack[-1]
            frame = [group, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                if makes_potential:
                    tracer.wrap_instance(result)
                return result
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[1] += dur
                group.self_s += dur - frame[1]
                entry = parent[0] is not group
                if entry:
                    group.entries += 1
                    group.entry_s += dur
                counter[0] += 1
                if hook is not None:
                    for k, v in hook(fn, args, kwargs, result, entry):
                        group.add(k, v)

        self._wrappers[id(fn)] = wrapper
        self._originals[id(wrapper)] = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, potentials=()):
        import qpspec

        modules = {layer: sys.modules[f"qpspec.{layer}"] for layer in LAYERS}
        targets = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    targets[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        namespaces = [qpspec, *(m for n, m in sys.modules.items()
                                if n.startswith("qpspec.") and m is not None)]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in targets and inspect.isfunction(obj):
                    self._patch(ns, name, targets[id(obj)])
                elif type(obj) is dict:
                    for key, val in list(obj.items()):
                        if id(val) in targets and inspect.isfunction(val):
                            self._patch_item(obj, key, targets[id(val)])
        for pot in potentials:
            self.wrap_instance(pot)

    def _install_class(self, layer, cls):
        dataclass_init = hasattr(cls, "__dataclass_fields__")
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and not (name == "__init__" and not dataclass_init):
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            wrapped = self._wrap(layer, f"{cls.__name__}.{name}", fn)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._patch(cls, name, wrapped)

    def wrap_instance(self, pot):
        """Wrap the per-instance ``g`` closure of a potential."""
        if id(pot.g) in self._originals:
            return
        wrapped = self._wrap("potential", "g", pot.g)
        self._patches.append(("inst", pot, "g", pot.g))
        object.__setattr__(pot, "g", wrapped)

    def _patch(self, owner, name, new):
        self._patches.append(("attr", owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_item(self, d, key, new):
        self._patches.append(("item", d, key, d[key]))
        d[key] = new

    def uninstall(self):
        for kind, owner, name, orig in reversed(self._patches):
            if kind == "item":
                owner[name] = orig
            elif kind == "inst":
                object.__setattr__(owner, name, orig)
            else:
                setattr(owner, name, orig)

    def restored(self) -> bool:
        for kind, owner, name, orig in self._patches:
            now = owner[name] if kind == "item" else (
                getattr(owner, name) if kind == "inst" else vars(owner)[name])
            if now is not orig:
                return False
        return True

    # -- results -------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, g in self.groups.items():
            out[key.split(".", 1)[0]] += g.self_s
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named in bench/README.md, as plain floats."""
        G = self.groups.get
        empty = _Group()

        def g(key):
            return G(key) or empty

        def calls(*names):
            return sum(self.calls.get(n, [0])[0] for n in names)

        layer_self = self.layer_self()
        pmp, parr = g("potential.mp"), g("potential.array")
        cmp_, clyap = g("cocycle.mp"), g("cocycle.lyapunov")
        glhs, gmat, gcert = g("gordon.lhs"), g("gordon.matrices"), g("gordon.certificate")
        sspec, sscan = g("spectral.spectrum"), g("spectral.scan")
        acf, aidx = g("arithmetic.cf"), g("arithmetic.index")
        steps = calls("cocycle.step_A", "cocycle.step_D", "cocycle.step_F")
        directions = calls("gordon.gordon_lhs")
        step_phases = clyap.attrs.get("step_phases", 0)
        levels = gcert.attrs.get("levels", 0)
        return {
            "potential.mp_evals": pmp.entries,
            "potential.mp_eval_s": pmp.entry_s,
            "potential.mp_eval_bits": _ratio(pmp.attrs.get("bits", 0), pmp.entries),
            "potential.array_points": parr.attrs.get("points", 0),
            "potential.array_s": parr.entry_s,
            "potential.self_s": layer_self["potential"],
            "cocycle.mp_steps": steps,
            "cocycle.mp_step_s": cmp_.self_s,
            "cocycle.bit_steps": cmp_.attrs.get("bit_steps", 0),
            "cocycle.lyapunov_calls": calls("cocycle.lyapunov"),
            "cocycle.lyapunov_s": clyap.entry_s,
            "cocycle.step_phases": step_phases,
            "cocycle.ns_per_step_phase": _ratio(clyap.entry_s * 1e9, step_phases),
            "cocycle.self_s": layer_self["cocycle"],
            "gordon.matrices_s": gmat.self_s,
            "gordon.precision_bits": gmat.attrs.get("precision_max", 0),
            "gordon.directions": directions,
            "gordon.lhs_s": glhs.entry_s,
            "gordon.us_per_direction": _ratio(glhs.entry_s * 1e6, directions),
            "gordon.candidates_s": g("gordon.candidates").entry_s,
            "gordon.certificate_self_s": gcert.self_s,
            "gordon.levels": levels,
            "gordon.excluded_frac": _ratio(gcert.attrs.get("excluded", 0), levels),
            "gordon.self_s": layer_self["gordon"],
            "spectral.spectrum_s": sspec.entry_s,
            "spectral.eigenvalues": sspec.attrs.get("eigenvalues", 0),
            "spectral.sturm_sweeps": calls("spectral.sturm_count"),
            "spectral.scan_energies": sscan.attrs.get("energies", 0),
            "spectral.self_s": layer_self["spectral"],
            "arithmetic.cf_s": acf.entry_s,
            "arithmetic.index_s": aidx.entry_s,
            "arithmetic.gamma_terms": aidx.attrs.get("gamma_terms", 0),
            "arithmetic.self_s": layer_self["arithmetic"],
            "cli.config_s": g("cli.config").self_s,
            "cli.self_s": layer_self["cli"],
        }


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# attribute hooks: (fn, args, kwargs, result, entry) -> iterable of (key, value)


def _prec():
    import mpmath

    return mpmath.mp.prec


def _hook_potential(fn, args, kwargs, result, entry):
    if not entry:
        return ()
    for a in args:
        if isinstance(a, np.ndarray):
            return (("points", a.size),)
    return (("bits", _prec()),)


def _hook_step(fn, args, kwargs, result, entry):
    return (("bit_steps", _prec()),)


def _hook_lyapunov(fn, args, kwargs, result, entry):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return (("step_phases", bound.arguments["n"] * (bound.arguments["grid"] + 1)),)


def _hook_matrices(fn, args, kwargs, result, entry):
    return () if result is None else (("precision_max", result.precision),)


def _hook_certificate(fn, args, kwargs, result, entry):
    if result is None:
        return ()
    return (("levels", len(result)),
            ("excluded", sum(c.verdict == "excluded" for c in result)))


def _hook_spectrum(fn, args, kwargs, result, entry):
    return () if result is None else (("eigenvalues", len(result[0])),)


def _hook_energies(fn, args, kwargs, result, entry):
    if not entry:
        return ()
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return (("energies", len(bound.arguments["E_grid"])),)


def _hook_gamma(fn, args, kwargs, result, entry):
    return () if result is None else (("gamma_terms", result.terms_used),)


_HOOKS = {
    **{("potential", n): _hook_potential
       for n in _EVALS},
    **{("cocycle", n): _hook_step for n in ("step_A", "step_D", "step_F")},
    ("cocycle", "lyapunov"): _hook_lyapunov,
    ("gordon", "gordon_matrices"): _hook_matrices,
    ("gordon", "exclusion_certificate"): _hook_certificate,
    ("spectral", "truncated_spectrum"): _hook_spectrum,
    ("spectral", "lyapunov_scan"): _hook_energies,
    ("spectral", "classify_regime"): _hook_energies,
    ("arithmetic", "gamma"): _hook_gamma,
}

