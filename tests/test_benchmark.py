"""The benchmark's verdict self-check, run against this checkout's library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_quick_self_check_passes():
    # `perfbench/run.py --quick` runs two ops of every workload slice and
    # exits 1 when a verdict differs from the one theory expects.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
