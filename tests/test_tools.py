import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_rss_runs_one_library_op():
    # the stage probe replays bench/workloads.py's library op: one op keeps
    # it runnable against that module
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_rss.py"), "--ops", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    parts = [line.split()[0] for line in lines[1:]]
    assert parts == ["set-up", "spectrum", "lyapunov", "indices", "classify",
                     "peak"]
    assert float(lines[-1].split()[-1]) > 0
