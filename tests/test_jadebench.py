import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # the benchmark imports the library and replays jade() stage by stage;
    # its self-test fails when either drifts from the library
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jadebench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
