import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_two_solutions_smoke():
    """The experiment script runs end to end on a small grid."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_two_solutions.py"), "--m", "6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    chain = [line for line in proc.stdout.splitlines() if line.startswith("chain: ")]
    assert len(chain) == 1
    assert " < 0 < " in chain[0] and " <= " in chain[0]
