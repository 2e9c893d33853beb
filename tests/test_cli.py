import json
import re
from pathlib import Path

import pytest

from qpspec.cli import main

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


def test_cf_roundtrip(gordon_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["cf", "--config", str(gordon_cfg), "--out", str(out)]) == 0
    coeffs = [int(t) for t in (out / "alpha.cf").read_text().split()]
    assert coeffs[:3] == [1, 3, 14]
    meta = json.loads((out / "alpha.json").read_text())
    assert meta["q"][3] == "57"


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


def test_exit_code_3_on_unwritable_output(gordon_cfg, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["indices", "--config", str(gordon_cfg), "--out",
                 str(blocker)]) == 3


def test_exit_code_4_on_out_of_range_level(gordon_cfg, tmp_path):
    text = gordon_cfg.read_text().replace("gordon_levels = 3",
                                          "gordon_levels = 9")
    cfg = tmp_path / "deep.ini"
    cfg.write_text(text)
    assert main(["gordon", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 4


def test_exit_code_5_on_excluded_phase(gordon_cfg, tmp_path):
    text = gordon_cfg.read_text().replace("theta = 3/8", "theta = 1/2")
    cfg = tmp_path / "resonant.ini"
    cfg.write_text(text)
    assert main(["indices", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 5


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block)
    for sub in ("indices", "gordon"):
        assert main([sub, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
    js = json.loads((tmp_path / "o" / "indices.json").read_text())
    assert js["model"] == "maryland"


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
