"""scripts/parity.py, run on this checkout: it dumps, and its dump compares equal to itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_dump_and_compare_run_on_this_checkout(tmp_path):
    # This catches the tool breaking on its own checkout. The inputs and
    # cases come from this checkout's test modules, built in a child process
    # with this checkout's library, so a dump of another checkout does not
    # import them.
    dump = tmp_path / "dump.json"
    with open(dump, "w") as fh:
        proc = subprocess.run(
            [sys.executable, "scripts/parity.py", "dump", "src", "--seeds", "7"],
            cwd=ROOT,
            stdout=fh,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "scripts/parity.py", "compare", str(dump), str(dump)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "; 0 differ" in proc.stdout
