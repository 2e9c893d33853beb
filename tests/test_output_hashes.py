"""Byte-identity guard: the sha256 of every file that `qpspec gordon`,
`qpspec indices`, `qpspec lyapunov` and `qpspec classify` write on fixed
configs.

The `gordon` and `indices` runs take only exact and mp paths (the
certificate's site pass and integer products, the orbit index scans), whose
bytes do not depend on the platform.  The `lyapunov` (A and D kinds) and
`classify` runs take the float Lyapunov kernel: 21 energies, so a full
batch of 16 and a short one of 5, at n = 10001, so the last stretch is
padded and the last chunk is short.  Their bytes rest on numpy's correctly
rounded elementwise arithmetic and on this platform's libm (math.cos,
math.sin, np.log), so a refactor that means to keep the outputs must keep
every hash here.  A change that moves a hash must explain each changed
digit and capture the hash again.
"""

import hashlib

import pytest

from qpspec.cli import main

_GORDON = """\
[model]
name = {model}
coupling = {coupling}

[alpha]
kind = named
name = liouville
beta_target = {beta}
terms = 4

[phase]
theta = {theta}

[energies]
kind = list
values = {energies}

[depths]
gordon_levels = {level}

[run]
directions = {directions}
c_rate = 0.01
"""

_INDICES = """\
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

[depths]
gamma_nmax = 10000
"""

_KERNEL = """\
[model]
name = maryland
coupling = 0.15

[alpha]
kind = named
name = golden
terms = 40

[phase]
theta = 3/8

[energies]
kind = grid
min = -3.0
max = 3.0
count = 21

[depths]
lyapunov_n = 10001

[run]
lyapunov_grid = 64
lyapunov_kind = {kind}
"""

# (subcommand, config, {file name: sha256})
_CASES = {
    # tangent model at q = 57, three energies, 360 directions
    "gordon-maryland": ("gordon", _GORDON.format(
        model="maryland", coupling=0.15, beta=1.0, theta="3/8",
        energies="-1.0 0.0 0.5", level=3, directions=360), {
        "certificates.csv":
            "48c17dd4a205a7502c77d0ef01b51bdc62eea29e07b9b4e78441179e79560bf5",
        "certificates.json":
            "d8cda61d1a274b3741712d86bdce8028d1d78a094e3179fea5fa6e5689dc7397",
    }),
    # cosine model at level 2, 72 directions
    "gordon-amo": ("gordon", _GORDON.format(
        model="amo", coupling=2.0, beta=1.12, theta="1/10", energies="0.5",
        level=2, directions=72), {
        "certificates.csv":
            "3f10b2e511936920f03013b390c9687c827542cde068725c6dd6f9381d0e2534",
        "certificates.json":
            "771adcce1100bfcf92b5e1261ebaf461a7122174d0b6cc2edc1f9b55d93f8774",
    }),
    "indices": ("indices", _INDICES, {
        "beta.csv":
            "aef12b5609648fefef2ae7c9d91c3bdec68e328dcde5d222f43253796efb463b",
        "delta.csv":
            "32098525cd0a15f3b55abf2c9aec0e14d56be93ecc94377a3c36deca239fcdb0",
        "gamma.csv":
            "d93717da2606f7a0305d2da3ed0104cae4dbc5a9917cc119d81cff9fd0e84da8",
        "indices.json":
            "553a061851b048f9b5904fae3aef869863e761b8b4495400d8150c544bf80357",
    }),
    # tangent model at golden 40, 21 energies on [-3, 3], n = 10001, 64 phases
    "lyapunov-A": ("lyapunov", _KERNEL.format(kind="A"), {
        "lyapunov.csv":
            "042598ebe81fd0bd06557f231ded28924310d2747c8721f198108fe7331131aa",
    }),
    "lyapunov-D": ("lyapunov", _KERNEL.format(kind="D"), {
        "lyapunov.csv":
            "4aaf8ee1834f1833e80bc208432674123c4982b564f27abd51a9dd85416e1455",
    }),
    "classify": ("classify", _KERNEL.format(kind="D"), {
        "classify.csv":
            "961451084fb9a6af36da2a0531e896f1307da358e26b6c366d530f8d678dc709",
        "classify.json":
            "c60c65bc45e2f31cad29f04d7a93c9444fd4bd4858fe7ed7dba28b3f16096aff",
    }),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_cli_outputs_keep_their_bytes(name, tmp_path):
    sub, text, expect = _CASES[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == expect
