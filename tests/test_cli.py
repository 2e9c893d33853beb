import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpspec import __version__
from qpspec.arithmetic import IndexValue
from qpspec.cli import _csv, _index_csv, _json_value, _write, _write_json, main
from qpspec.errors import OutputError

GORDON_INI = """\
[model]
name = maryland
coupling = 0.15

[alpha]
kind = named
name = liouville
beta_target = 1.0
terms = 4

[phase]
theta = 3/8

[energies]
kind = list
values = 0.0

[depths]
gamma_nmax = 500
gordon_levels = 3
lyapunov_n = 5000

[run]
epsilon = 0.2
c_rate = 0.01
directions = 24
"""

CLASSIFY_INI = """\
[model]
name = amo
coupling = 3.0

[alpha]
kind = named
name = golden
terms = 25

[phase]
theta = 1/7

[energies]
kind = grid
min = -1.0
max = 1.0
count = 3

[depths]
lyapunov_n = 12000
"""


@pytest.fixture(autouse=True)
def _no_temporary_output_left(tmp_path):
    # the tests write their outputs below tmp_path: after a run, completed
    # or failed, no temporary file of _write (".<name>.<pid>.tmp") is left
    yield
    left = [p.name for p in tmp_path.rglob(".*.tmp")]
    assert not left, f"temporary files left: {sorted(left)}"


@pytest.fixture
def gordon_cfg(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(GORDON_INI)
    return p


@pytest.fixture
def classify_cfg(tmp_path):
    p = tmp_path / "cls.ini"
    p.write_text(CLASSIFY_INI)
    return p


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_indices_outputs(gordon_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["indices", "--config", str(gordon_cfg), "--out", str(out)]) == 0
    for name in ("beta.csv", "gamma.csv", "delta.csv", "indices.json"):
        assert (out / name).exists()
    js = json.loads((out / "indices.json").read_text())
    assert js["model"] == "maryland"
    assert abs(js["delta"]["value"] - 0.9635185694442134) < 1e-12


def test_numbers_have_17_significant_digits(gordon_cfg, tmp_path):
    out = tmp_path / "out"
    main(["indices", "--config", str(gordon_cfg), "--out", str(out)])
    body = (out / "delta.csv").read_text().splitlines()[1:]
    for line in body:
        val = line.split(",")[1]
        if val in ("inf", "-inf", "nan"):
            continue
        mantissa = re.sub(r"[-+.eE]", "", val.split("e")[0]).lstrip("0")
        assert len(mantissa) <= 17
        assert float(val)  # parses


def test_index_csv_equals_the_generic_csv_writer():
    # the direct writer against _csv/_fmt, on the values _fmt special-cases
    # and on the extremes of the float range
    per_level = (0.1, 1 / 3, -2.5, 0.0, -0.0, math.inf, -math.inf, math.nan,
                 -math.nan, 5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, 123456789.0, 1e22, 0.0019099538582601702)
    iv = IndexValue(value=math.inf, per_level=per_level, tail_start=1,
                    terms_used=len(per_level))
    expect = "".join(_csv(((n, v) for n, v in enumerate(per_level, start=1)),
                          ("level", "value")))
    assert "".join(_index_csv(iv)) == expect
    assert "\n5,-0\n" in expect and "\n8,nan\n" in expect
    empty = IndexValue(value=0.0, per_level=(), tail_start=1, terms_used=0)
    assert ("".join(_index_csv(empty)) == "".join(_csv((), ("level", "value")))
            == "level,value\n")


_KEYS = st.text(alphabet=st.one_of(st.characters(),
                                   st.sampled_from('"\\\x00\x1f\x7f\u2028\u00e9')))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-2**100, max_value=2**100), st.floats(),
              st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                               1.7976931348623157e308]), _KEYS),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_streamed_json_is_the_json_dumps_bytes(tmp_path, obj):
    path = tmp_path / "x.json"
    _write_json(path, obj, False)
    assert path.read_bytes() == (json.dumps(
        _json_value(obj), sort_keys=True, indent=1, allow_nan=False) + "\n").encode()


def test_writers_stream_a_large_index(tmp_path):
    # a 200,000-level index: neither writer holds its file (about 4 MB of
    # CSV and 5 MB of JSON) in memory, and _json_value does not copy the
    # list of finite floats (1.6 MB of pointers)
    per_level = tuple(i / 7 for i in range(200_000))
    iv = IndexValue(value=1.0, per_level=per_level, tail_start=1,
                    terms_used=len(per_level))
    writes = {"gamma.csv": (lambda p: _write(p, _index_csv(iv), False), 2.0),
              "indices.json": (lambda p: _write_json(p, {"gamma": vars(iv)}, False),
                               0.25)}
    for name, (write, bound_mb) in writes.items():
        tracemalloc.start()
        try:
            write(tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, f"{name}: traced peak {peak} bytes"
    assert (tmp_path / "gamma.csv").read_text().count("\n") == 200_001


@pytest.mark.parametrize("exc,raised", [(RuntimeError, RuntimeError),
                                        (OSError, OutputError)])
def test_a_failed_write_keeps_the_old_file(tmp_path, exc, raised):
    out = tmp_path / "o"
    out.mkdir()
    (out / "gamma.csv").write_text("old\n")

    def chunks():
        yield "level,value\n"
        raise exc("the source failed")

    with pytest.raises(raised):
        _write(out / "gamma.csv", chunks(), False)
    assert [p.name for p in out.iterdir()] == ["gamma.csv"]
    assert (out / "gamma.csv").read_text() == "old\n"


def test_an_unreplaceable_output_exits_3_and_leaves_no_temporary(gordon_cfg,
                                                                 tmp_path):
    out = tmp_path / "o"
    (out / "gamma.csv").mkdir(parents=True)
    assert main(["indices", "--config", str(gordon_cfg), "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["beta.csv", "gamma.csv"]
    assert (out / "gamma.csv").is_dir()


def test_cf_roundtrip(gordon_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["cf", "--config", str(gordon_cfg), "--out", str(out)]) == 0
    coeffs = [int(t) for t in (out / "alpha.cf").read_text().split()]
    assert coeffs[:3] == [1, 3, 14]
    meta = json.loads((out / "alpha.json").read_text())
    assert meta["q"][3] == "57"


def test_cf_file_roundtrip(gordon_cfg, tmp_path):
    # the alpha.cf that `qpspec cf` writes, read back through [alpha] file,
    # gives the same alpha.cf and alpha.json
    first = tmp_path / "first"
    assert main(["cf", "--config", str(gordon_cfg), "--out", str(first)]) == 0
    cfg = tmp_path / "fromfile.ini"
    cfg.write_text(gordon_cfg.read_text().replace(
        "kind = named\nname = liouville\nbeta_target = 1.0",
        f"kind = coefficients\nfile = {first / 'alpha.cf'}"))
    second = tmp_path / "second"
    assert main(["cf", "--config", str(cfg), "--out", str(second)]) == 0
    assert _tree_bytes(second) == _tree_bytes(first)


def test_gordon_certificates(gordon_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["gordon", "--config", str(gordon_cfg), "--out", str(out)]) == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert certs[0]["q"] == 57
    assert certs[0]["verdict"] == "excluded"


def test_classify_run(classify_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["classify", "--config", str(classify_cfg), "--out", str(out)]) == 0
    rows = (out / "classify.csv").read_text().splitlines()
    assert rows[0] == "E,L,margin,label"
    assert len(rows) == 4


def test_lyapunov_run(classify_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", str(classify_cfg), "--out", str(out)]) == 0
    rows = (out / "lyapunov.csv").read_text().splitlines()
    assert rows[0] == "E,L,n,method,discrepancy"
    assert len(rows) == 4


def test_byte_identical_reruns_and_thread_counts(gordon_cfg, tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        assert main(["indices", "--config", str(gordon_cfg), "--out", str(out),
                     "--threads", threads]) == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1] == outs[2]


def test_exit_code_2_on_config_errors(tmp_path):
    missing = tmp_path / "nope.ini"
    assert main(["indices", "--config", str(missing), "--out",
                 str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nname = maryland\nbogus_key = 1\n")
    assert main(["indices", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    badsec = tmp_path / "badsec.ini"
    badsec.write_text("[mystery]\nx = 1\n")
    assert main(["indices", "--config", str(badsec), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", [
    "[model]\nname = maryland\n[model]\ncoupling = 0.15\n",
    "name = maryland\n[model]\ncoupling = 0.15\n",
    "[model]\nname maryland\n",
], ids=["duplicate-section", "no-section-header", "line-without-equals"])
def test_malformed_ini_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "malformed.ini"
    cfg.write_text(text)
    assert main(["indices", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "malformed config file" in capsys.readouterr().err


def test_percent_in_config_value_exits_2_naming_key(gordon_cfg, tmp_path, capsys):
    text = gordon_cfg.read_text().replace("coupling = 0.15", "coupling = 0.15%")
    cfg = tmp_path / "percent.ini"
    cfg.write_text(text)
    assert main(["indices", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "[model] coupling" in capsys.readouterr().err


def test_bad_lyapunov_kind_exits_2_naming_key(classify_cfg, tmp_path, capsys):
    cfg = tmp_path / "kind.ini"
    cfg.write_text(classify_cfg.read_text() + "\n[run]\nlyapunov_kind = X\n")
    out = tmp_path / "o"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 2
    assert "lyapunov_kind" in capsys.readouterr().err
    assert not (out / "lyapunov.csv").exists()


@pytest.mark.parametrize("old,new,key", [
    ("epsilon = 0.2", "epsilon = abc", "[run] epsilon"),
    ("epsilon = 0.2", "epsilon = 0.2\nseed = xyz", "[run] seed"),
    ("epsilon = 0.2", "epsilon = 0.2\nseed = 1.5", "[run] seed"),
    ("directions = 24", "directions = banana", "[run] directions"),
    ("directions = 24", "directions = 0", "[run] directions"),
], ids=["epsilon-abc", "seed-xyz", "seed-1.5", "directions-banana",
        "directions-0"])
def test_unread_run_numbers_exit_2_naming_key(gordon_cfg, tmp_path, capsys,
                                              old, new, key):
    # no subcommand reads [run] epsilon, seed or directions, but each must be
    # a number, and directions a positive one
    cfg = tmp_path / "run.ini"
    cfg.write_text(gordon_cfg.read_text().replace(old, new))
    out = tmp_path / "o"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_short_classify_depth_exits_2_naming_key(classify_cfg, tmp_path, capsys):
    cfg = tmp_path / "short.ini"
    cfg.write_text(classify_cfg.read_text().replace("lyapunov_n = 12000",
                                                    "lyapunov_n = 5000"))
    assert main(["classify", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "[depths] lyapunov_n" in capsys.readouterr().err


def test_overflowing_energy_writes_an_error_row_without_warnings(classify_cfg,
                                                                 tmp_path):
    # the suite turns warnings into errors, so a numpy RuntimeWarning from
    # the kernel would fail this run; the energy's row reads "error"
    cfg = tmp_path / "huge.ini"
    text = classify_cfg.read_text().replace(
        "kind = grid\nmin = -1.0\nmax = 1.0\ncount = 3",
        "kind = list\nvalues = 0.5 1e300")
    cfg.write_text(text.replace("lyapunov_n = 12000", "lyapunov_n = 2000"))
    out = tmp_path / "o"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "lyapunov.csv").read_text().splitlines()
    assert rows[1].split(",")[1] != "error"
    # the method cell names the failure's class
    assert rows[2].split(",") == ["1.0000000000000001e+300", "error", "2000",
                                  "NumericError", "nan"]


def test_classify_writes_an_error_row_and_continues(classify_cfg, tmp_path):
    # one failure policy: an overflowing energy inside the grid gets its
    # own row (error under L, nan under margin, the class as the label), and
    # the energies around it are classified
    cfg = tmp_path / "huge.ini"
    cfg.write_text(classify_cfg.read_text().replace(
        "kind = grid\nmin = -1.0\nmax = 1.0\ncount = 3",
        "kind = list\nvalues = -0.5 1e300 0.5"))
    out = tmp_path / "o"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "classify.csv").read_text().splitlines()]
    assert rows[2] == ["1.0000000000000001e+300", "error", "nan", "NumericError"]
    for row in (rows[1], rows[3]):
        assert row[3] in ("sc-candidate", "above-delta", "uncertain")
        assert math.isfinite(float(row[1])) and math.isfinite(float(row[2]))
    # strict JSON: the failed row's margin is null, not NaN
    js = json.loads((out / "classify.json").read_text(),
                    parse_constant=lambda c: pytest.fail(f"{c} in classify.json"))
    assert js["rows"][1] == {"E": 1e300, "L": "error", "margin": None,
                             "label": "NumericError"}


def test_exit_code_3_on_unwritable_output(gordon_cfg, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["indices", "--config", str(gordon_cfg), "--out",
                 str(blocker)]) == 3


def test_exit_code_4_on_out_of_range_level(gordon_cfg, tmp_path, capsys):
    text = gordon_cfg.read_text().replace("gordon_levels = 3",
                                          "gordon_levels = 9")
    # an empty energy list never reaches exclusion_certificate, and still
    # gets its message
    for name, energies in (("deep", "values = 0.0"), ("empty", "values =")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text.replace("values = 0.0", energies))
        assert main(["gordon", "--config", str(cfg), "--out",
                     str(tmp_path / name)]) == 4
        assert "level 9 outside 1..4" in capsys.readouterr().err


def test_level_over_the_site_budget_exits_4_without_traceback(gordon_cfg,
                                                             tmp_path):
    # q_4 is about 5.7e24: its 3q orbit sites are refused before any array
    # or mp work, with exit 4 and a message naming the level
    cfg = tmp_path / "huge.ini"
    cfg.write_text(gordon_cfg.read_text().replace("gordon_levels = 3",
                                                  "gordon_levels = 1 2 3 4"))
    src = Path(__file__).resolve().parent.parent / "src"
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "qpspec", "gordon", "--config", str(cfg),
         "--out", str(out)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "level 4 needs 3q" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(out.iterdir())


def test_gamma_nmax_over_the_site_budget_exits_4_without_traceback(gordon_cfg,
                                                                   tmp_path):
    # gamma refuses the scan before it walks, and no index file is written
    cfg = tmp_path / "deep.ini"
    cfg.write_text(gordon_cfg.read_text().replace("gamma_nmax = 500",
                                                  "gamma_nmax = 10000000000000"))
    src = Path(__file__).resolve().parent.parent / "src"
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "qpspec", "indices", "--config", str(cfg),
         "--out", str(out)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "n_max = 10000000000000 exceeds step budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(out.iterdir())


def test_gordon_verbose_prints_a_stage_line_per_energy(gordon_cfg, tmp_path,
                                                       capsys):
    text = gordon_cfg.read_text().replace("values = 0.0", "values = 0.0 0.5")
    cfg = tmp_path / "two.ini"
    cfg.write_text(text)
    assert main(["gordon", "--config", str(cfg), "--out",
                 str(tmp_path / "quiet")]) == 0
    capsys.readouterr()
    assert main(["gordon", "--config", str(cfg), "--out",
                 str(tmp_path / "loud"), "--verbose"]) == 0
    stages = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("gordon E=")]
    assert len(stages) == 2
    for E, line in zip(("0", "0.5"), stages):
        assert re.fullmatch(rf"gordon E={E}: level 3 q=57 276 bits "
                            r"matrices \d+\.\d{3} s", line), line
    # the stage log goes to stderr only
    for name in ("certificates.json", "certificates.csv"):
        assert ((tmp_path / "quiet" / name).read_bytes()
                == (tmp_path / "loud" / name).read_bytes())


@pytest.mark.parametrize("level", ["0", "-1"])
def test_level_below_1_exits_2_naming_key(gordon_cfg, tmp_path, capsys, level):
    text = gordon_cfg.read_text().replace("gordon_levels = 3",
                                          f"gordon_levels = 3 {level}")
    cfg = tmp_path / "low.ini"
    cfg.write_text(text)
    assert main(["gordon", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "[depths] gordon_levels" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["maryland", "amo"])
@pytest.mark.parametrize("huge,same", [("1" + "0" * 400 + ".1", "1/10"),
                                       ("1e400", "0")],
                         ids=["1e400+1/10", "1e400"])
def test_gordon_reduces_a_huge_phase_exactly(gordon_cfg, tmp_path, model,
                                             huge, same):
    # a phase past the float range keeps its fraction, so 10^400 + 1/10
    # certifies as 1/10 does and 10^400 as 0 does
    trees = []
    for i, theta in enumerate((huge, same)):
        cfg = tmp_path / f"run{i}.ini"
        cfg.write_text(gordon_cfg.read_text().replace("maryland", model)
                       .replace("theta = 3/8", f"theta = {theta}"))
        out = tmp_path / f"o{i}"
        assert main(["gordon", "--config", str(cfg), "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def test_exit_code_5_on_excluded_phase(gordon_cfg, tmp_path):
    text = gordon_cfg.read_text().replace("theta = 3/8", "theta = 1/2")
    cfg = tmp_path / "resonant.ini"
    cfg.write_text(text)
    assert main(["indices", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 5


def _readme_ini():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    return block


def test_readme_example_config_runs(tmp_path):
    cfg = tmp_path / "readme.ini"
    cfg.write_text(_readme_ini())
    # the subcommands the README says this config serves
    for sub in ("cf", "indices", "lyapunov", "gordon"):
        assert main([sub, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
    js = json.loads((tmp_path / "o" / "indices.json").read_text())
    assert js["model"] == "maryland"


def test_gordon_on_rotations_exits_5(tmp_path, capsys):
    # at coupling 0 and E = 0 every step is the same rotation, so both
    # certificate differences vanish exactly: a numeric refusal, not a crash
    cfg = tmp_path / "free.ini"
    cfg.write_text(re.sub(r"name = maryland.*\ncoupling = 0.15",
                          "name = amo\ncoupling = 0", _readme_ini()))
    assert main(["gordon", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 5
    assert "certificate difference is exactly zero" in capsys.readouterr().err


OVERFLOW_INI = """\
[model]
name = amo
coupling = 20

[alpha]
kind = named
name = golden
terms = 30

[phase]
theta = 1/10

[energies]
kind = list
values = 0.5

[depths]
gordon_levels = 5 13
lyapunov_n = 20000
"""


@pytest.mark.parametrize("config", ["readme", "overflow"])
def test_every_json_file_is_strict_json(tmp_path, config):
    # RFC 8259 has no Infinity or NaN: a non-finite float is written "inf",
    # "-inf" or null.  At q = 377 the overflow config's trace and max_norm
    # overflow a double.
    if config == "readme":
        text = _readme_ini()
        # the README's 4-term frequency is too shallow for classify
        subs = ("cf", "indices", "gordon")
    else:
        text = OVERFLOW_INI
        subs = ("cf", "indices", "gordon", "classify")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    for sub in subs:
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
    written = sorted(tmp_path.glob("*/*.json"))
    assert len(written) == len(subs)
    for path in written:
        json.loads(path.read_text(),
                   parse_constant=lambda c: pytest.fail(f"{c} in {path.name}"))
    if config == "overflow":
        certs = json.loads((tmp_path / "gordon" / "certificates.json").read_text())
        assert certs[1]["q"] == 377
        assert certs[1]["trace"] == certs[1]["max_norm"] == "inf"
        assert ",inf,inf," in (tmp_path / "gordon" / "certificates.csv").read_text()


@pytest.mark.parametrize("section,key", [
    ("model", "g_lipschitz"), ("depths", "cf_levels"), ("output", "formats"),
])
def test_unread_keys_exit_2_naming_key(gordon_cfg, tmp_path, capsys,
                                       section, key):
    cfg = tmp_path / "unread.ini"
    text = gordon_cfg.read_text()
    if f"[{section}]" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    else:
        text += f"\n[{section}]\n{key} = 1\n"
    cfg.write_text(text)
    assert main(["indices", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    # an unknown section is rejected before its keys are read
    assert (key if section != "output" else "[output]") in err


@pytest.mark.parametrize("sub,old,new,key", [
    ("gordon", "values = 0.0", "values = nan", "[energies] values"),
    ("gordon", "values = 0.0", "values = 0.0 inf", "[energies] values"),
    ("lyapunov", "values = 0.0", "values = inf", "[energies] values"),
    ("gordon", "coupling = 0.15", "coupling = nan", "[model] coupling"),
    ("gordon", "name = maryland", "name = custom\npoles = 1/2:x\ng = sinpi",
     "[model] poles"),
    ("gordon", "name = maryland", "name = custom\npoles = 1/2:0\ng = sinpi",
     "[model] poles"),
    ("gordon", "name = maryland", "name = custom\npoles = 1/2:-2\ng = sinpi",
     "[model] poles"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = decimal\nvalue = abc\nprecision = 64", "[alpha] value"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = decimal\nvalue = 1.5\nprecision = 64", "[alpha] value"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = decimal\nvalue = nan\nprecision = 64", "[alpha] value"),
    ("indices", "theta = 3/8", "theta = abc", "[phase] theta"),
    ("gordon", "name = maryland", "name = custom\npoles = x:2\ng = sinpi",
     "[model] poles"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = coefficients\nfile = nope.txt", "[alpha] file"),
    ("classify", "name = liouville\nbeta_target = 1.0\nterms = 4",
     "name = golden\nterms = 6", "[alpha]"),
    # a model factory's refusal names the key it comes from
    ("gordon", "name = maryland", "name = custom\npoles = 1/3\ng = nosuch",
     "[model] g: unknown g 'nosuch'"),
    ("gordon", "name = maryland", "name = custom\npoles = 1/4 3/4\ng = cos2pi",
     "[model] poles: g vanishes at declared pole 1/4"),
    ("gordon", "coupling = 0.15", "coupling = 0",
     "[model] coupling: tangent model needs a nonzero coupling"),
    # -2 * 1e308 overflows: the refusal names the coupling given
    ("gordon", "coupling = 0.15", "coupling = 1e308",
     "[model] coupling: coupling must be finite with |coupling| < 2**1023, "
     "got 1e+308"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = coefficients\ncoefficients = 1 -3",
     "[alpha] coefficients: coefficient a_2 = -3 must be >= 1"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = coefficients\ncoefficients =",
     "[alpha] coefficients: empty coefficient list"),
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = coefficients\ncoefficients = 1 x",
     "bad coefficient list in [alpha] coefficients"),
    # the config file itself, read as a coefficient list
    ("cf", "kind = named\nname = liouville\nbeta_target = 1.0",
     "kind = coefficients\nfile = bad.ini",
     "bad coefficient list in [alpha] file"),
    # one pole and cos 2 pi x give V(x + 1) = -V(x), no potential on the torus
    ("gordon", "name = maryland", "name = custom\npoles = 1/3\ng = cos2pi",
     "[model] poles: 1 pole(s) and g of degree 2 give V(x + 1) = -V(x)"),
    # the grid's step (max - min) / (count - 1) would be inf
    ("lyapunov", "kind = list\nvalues = 0.0",
     "kind = grid\nmin = -1e308\nmax = 1e308\ncount = 3",
     "[energies] max - min overflows"),
], ids=["nan-energy", "inf-energy", "inf-energy-lyapunov", "nan-coupling",
        "pole-mult-x", "pole-mult-0", "pole-mult-negative", "decimal-alpha-abc",
        "decimal-alpha-1.5", "decimal-alpha-nan", "theta-abc", "pole-location-x",
        "alpha-file-missing", "classify-shallow-alpha", "unknown-g",
        "spurious-pole", "maryland-zero-coupling", "maryland-huge-coupling",
        "coefficient-negative", "coefficients-empty", "coefficients-x",
        "coefficient-file-x", "anti-periodic", "energy-grid-overflow"])
def test_bad_numbers_exit_2_naming_key(gordon_cfg, tmp_path, capsys,
                                       sub, old, new, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(gordon_cfg.read_text().replace(old, new, 1))
    out = tmp_path / "o"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the key's section is named once: a refusal is not prefixed twice
    assert key in err and err.count(key.split()[0]) == 1
    assert not any(out.iterdir())


def test_module_entry_point_runs_from_the_source_tree(gordon_cfg, tmp_path):
    # python -m qpspec works with the source tree on PYTHONPATH, uninstalled
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "qpspec", "indices", "--config", str(gordon_cfg),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "indices.json").exists()


@pytest.mark.parametrize("argv,code,stream,text", [
    (["--version"], 0, "stdout", __version__),
    ([], 2, "stderr", "the following arguments are required: command"),
    (["spectrum", "--config", "run.ini"], 2, "stderr", "invalid choice: 'spectrum'"),
    (["gordon"], 2, "stderr", "the following arguments are required: --config"),
], ids=["version", "no-command", "unknown-command", "no-config"])
def test_command_line_parsing_exits(tmp_path, argv, code, stream, text):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qpspec", *argv], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert text in getattr(proc, stream)
    assert not any(tmp_path.iterdir())  # nothing is written
