"""The benchmark's verdict self-check and its tracer, run against this checkout's library."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_tracer_wraps_and_restores_every_function_it_names(monkeypatch):
    # The traced run (`--trace 1`) wraps library functions by name, so a
    # function it names must stay a module attribute.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"tlhad.{name}") for name in tracer.WRAPPED}
    )
    originals = {
        (module, name): getattr(getattr(lib, module), name)
        for module, names in tracer.WRAPPED.items()
        for name in names
    }
    t = tracer.Tracer(lib)
    t.install()
    try:
        for (module, name), original in originals.items():
            assert getattr(getattr(lib, module), name) is not original, (module, name)
    finally:
        t.uninstall()
    for (module, name), original in originals.items():
        assert getattr(getattr(lib, module), name) is original, (module, name)
