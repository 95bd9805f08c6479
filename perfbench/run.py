"""Benchmark of tlhad: time to a correct verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tl_chain --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --quick            # a few ops of every slice, verdicts only

Model of use: a closed loop with one client in one process; each op (one
input carried through its whole pipeline to a verdict) starts when the
previous one has ended. The library is imported from `src/` of the
checkout and called through its submodules. BLAS runs one thread: with as
many BLAS threads as CPUs, any other process on the machine stalls their
hand-offs and an op takes up to four times as long, so the run would
measure the scheduler rather than the library.

Set-up is the import, the generation of the inputs from the seed, and a
warm-up on the first op of every slice. A run sets up once, then runs whole
passes over the op list until `--seconds` have gone by, and sets up again
between passes; setup_s is the median of all set-ups, so that it samples
the same stretch of time as the ops. Every op carries its expected verdict;
an op whose verdict is neither the expected one nor its documented known
defect makes the run incorrect.

With `--trace 0` the last line of stdout holds the end-to-end metrics. With
`--trace 1` half of the time runs untraced and half traced, and the last
line holds the per-layer metrics of the traced half (per pass), plus the
tracing overhead: traced minus untraced median op time. The line before it
records the environment and the run.
"""
from __future__ import annotations

import os

# BLAS reads these when numpy is first imported, so they precede every import of numpy.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import COMPUTED, Tracer  # noqa: E402
from workloads import WORKLOADS, Judged, Op  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("linalg", "hadamard", "master", "tlrep", "baxter", "cli")
#: Tail percentile per workload: the highest of 90/95/99 that keeps at least
#: ten samples beyond it in a 50 s run of the library as first measured. It is
#: fixed, so that a faster library, which completes more ops, is compared at
#: the same percentile.
TAIL_PERCENTILE = {"tl_chain": 95, "cli_roundtrip": 95}

END_TO_END = {
    "setup_s": "s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "checks_per_s": "1/s",
    "verdict_ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "residual_margin_digits": "digits",
}

PER_LAYER = {
    "tlrep.verify_tl_local.self_s": "s/pass",
    "tlrep.embed.calls": "count/pass",
    "tlrep.embed.bytes_out": "B/pass",
    "tlrep.verify_tl_local.flops_computed": "flop/pass",
    "tlrep.verify_tl_local.redundant_flops_frac": "fraction",
    "tlrep.build_local_generator.self_s": "s/pass",
    "tlrep.reconstruct_m.self_s": "s/pass",
    "tlrep.check_master4.self_s": "s/pass",
    "linalg.inverse.calls": "count/pass",
    "linalg.inverse.self_s": "s/pass",
    "linalg.inverse.dim_max": "count",
    "linalg.kron.calls": "count/pass",
    "linalg.kron.bytes_out": "B/pass",
    "linalg.matrix_from_dict.calls": "count/pass",
    "linalg.matrix_from_dict.self_s": "s/pass",
    "linalg.matrix_from_dict.entries": "count/pass",
    "linalg.matrix_to_dict.calls": "count/pass",
    "linalg.matrix_to_dict.self_s": "s/pass",
    "linalg.matrix_to_dict.entries": "count/pass",
    "linalg.errors": "count/pass",
    "baxter.baxterize.calls": "count/pass",
    "baxter.baxterize.self_s": "s/pass",
    "baxter.inverse_per_braid": "ratio",
    "baxter.check_spectral_ybe.self_s": "s/pass",
    "baxter.check_braid.self_s": "s/pass",
    "baxter.hecke_residual.self_s": "s/pass",
    "baxter.braid_from_tl.self_s": "s/pass",
    "master.search_master_representation.calls": "count/pass",
    "master.search_master_representation.self_s": "s/pass",
    "master.search_master_representation.found": "count/pass",
    "master.search.feasible_tuples": "count/pass",
    "master.check_master_condition.self_s": "s/pass",
    "master.errors": "count/pass",
    "hadamard.is_ghm.calls": "count/pass",
    "hadamard.is_ghm.self_s": "s/pass",
    "hadamard.ghm_residual.self_s": "s/pass",
    "hadamard.chm_residual.self_s": "s/pass",
    "hadamard.butson_residual.calls": "count/pass",
    "hadamard.dita.self_s": "s/pass",
    "cli.main.calls": "count/pass",
    "cli.main.self_s": "s/pass",
    "cli.exit0": "count/pass",
    "cli.exit1": "count/pass",
    "cli.exit2": "count/pass",
    "cli.uncaught": "count/pass",
    "cli.json_bytes_in": "B/pass",
    "cli.json_bytes_out": "B/pass",
    "trace.overhead_p50_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here: the library source is missing."""


def load_library() -> SimpleNamespace:
    """Import tlhad afresh from src/ of this checkout, one attribute per submodule."""
    if not (SRC / "tlhad" / "__init__.py").is_file():
        raise BenchError(f"no tlhad package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tlhad" or m.startswith("tlhad.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{name: importlib.import_module(f"tlhad.{name}") for name in MODULES})
    if Path(lib.linalg.__file__).resolve().parent != SRC / "tlhad":
        raise BenchError(f"tlhad was imported from {lib.linalg.__file__}, not from {SRC}")
    return lib


def execute(op: Op) -> tuple[float, Judged]:
    """Run one op; the seconds cover the library pipeline, not the judging."""
    start = perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # the exception is the op's outcome
        return perf_counter() - start, Judged(f"raise:{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    try:
        return elapsed, op.judge(raw)
    except Exception as exc:  # a malformed output is a wrong outcome, never a crash
        return elapsed, Judged(f"unjudgeable:{type(exc).__name__}: {exc}")


def classify(op: Op, judged: Judged) -> str:
    if judged.verdict == op.expect:
        return "ok"
    if op.known_defect is not None and judged.verdict == op.known_defect:
        return "known_defect"
    return "failed"


def first_of_each_slice(ops: list[Op], per_slice: int = 1) -> list[Op]:
    taken: Counter = Counter()
    chosen = []
    for op in ops:
        if taken[op.slice] < per_slice:
            taken[op.slice] += 1
            chosen.append(op)
    return chosen


@dataclass
class Measurement:
    seconds: list[float] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    margins: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    passes: int = 0

    def record(self, op: Op, elapsed: float, judged: Judged) -> None:
        outcome = classify(op, judged)
        self.seconds.append(elapsed)
        self.outcomes[outcome] += 1
        if outcome == "ok":
            self.margins += [math.log10(bound / max(res, sys.float_info.min)) for res, bound in judged.residuals]
        elif outcome == "failed":
            self.failures.append(f"{op.slice}/{op.label}: expected {op.expect!r}, got {judged.verdict!r}")

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def measure(ops: list[Op], seconds: float, between_passes=None) -> Measurement:
    """Whole passes over `ops` until `seconds` have gone by (at least one pass)."""
    result = Measurement()
    deadline = perf_counter() + seconds
    while result.passes == 0 or perf_counter() < deadline:
        if result.passes and between_passes is not None:
            between_passes()
        for op in ops:
            result.record(op, *execute(op))
        result.passes += 1
    return result


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def set_up(workload: str, seed: int, work_root: Path):
    """Import, generate the inputs and warm up; returns (seconds, library, ops)."""
    start = perf_counter()
    lib = load_library()
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=work_root)
    ops = WORKLOADS[workload](lib, np.random.default_rng(seed), workdir)
    for op in first_of_each_slice(ops):
        execute(op)
    return perf_counter() - start, lib, ops


def environment(args, ops: list[Op]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "slices": dict(Counter(op.slice for op in ops)),
    }


def end_to_end(run: Measurement, setups: list[float], workload: str) -> tuple[dict, dict]:
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(run.seconds, pct)
    values = {
        "setup_s": statistics.median(setups),
        "check_p50_ms": statistics.median(run.seconds) * 1e3,
        "check_tail_ms": tail * 1e3,
        "checks_per_s": run.attempted / sum(run.seconds),
        "verdict_ok_frac": run.outcomes["ok"] / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "residual_margin_digits": min(run.margins) if run.margins else float("nan"),
    }
    notes = {
        "tail_percentile": pct,
        "samples": run.attempted,
        "samples_beyond_tail": beyond,
        "fail_frac": 1 - values["verdict_ok_frac"],
        "known_defects": run.outcomes["known_defect"],
        "unexpected": run.outcomes["failed"],
    }
    return values, notes


@contextmanager
def scratch_dir():
    """A private directory under .perfbench_work/ of the checkout, removed on exit."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=work_root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def bench(args, scratch: Path) -> int:
    setups = []

    def set_up_again():
        seconds, lib, ops = set_up(args.workload, args.seed, scratch)
        setups.append(seconds)
        gc.collect()  # the replaced library and inputs, outside any timing
        return lib, ops

    lib, ops = set_up_again()
    record = {"env": environment(args, ops), "setup_runs_s": setups}
    if args.trace:
        untraced = measure(ops, args.seconds / 2)
        tracer = Tracer(lib)
        tracer.install()
        try:
            traced = measure(ops, args.seconds / 2)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
        metrics = {name: tracer.value(name, traced.passes) for name in PER_LAYER if not name.startswith("trace.")}
        overhead = statistics.median(traced.seconds) - statistics.median(untraced.seconds)
        metrics["trace.overhead_p50_ms"] = overhead * 1e3
        units = PER_LAYER
        record["traced_passes"] = traced.passes
        record["computed"] = list(COMPUTED)
    else:
        runs = [measure(ops, args.seconds, between_passes=set_up_again)]
        metrics, notes = end_to_end(runs[0], setups, args.workload)
        units = END_TO_END
        record.update(notes, passes=runs[0].passes)
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    for line in failures[:20]:
        print(f"unexpected verdict: {line}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def quick(args, scratch: Path) -> int:
    """Run a few ops of every slice of every workload; exit 1 on an unexpected verdict."""
    lib = load_library()
    unexpected = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        ops = WORKLOADS[name](lib, np.random.default_rng(args.seed), tempfile.mkdtemp(dir=scratch))
        for op in first_of_each_slice(ops, per_slice=2):
            elapsed, judged = execute(op)
            outcome = classify(op, judged)
            unexpected += outcome == "failed"
            print(f"{name:14} {op.slice:10} {op.label:14} {elapsed * 1e3:9.2f} ms  {outcome:12} {judged.verdict}")
    print(f"quick self-check: {unexpected} unexpected verdicts")
    return 1 if unexpected else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="verdict self-check on a few ops per slice")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with scratch_dir() as scratch:
            return quick(args, scratch) if args.quick else bench(args, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
