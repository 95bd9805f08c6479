"""Per-layer tracing from outside the library.

`Tracer.install` replaces the listed public functions of each module with
wrappers, as module attributes. Calls between modules and calls inside one
module both look these names up as module globals, so both go through the
wrappers. `uninstall` puts the originals back. Only the traced run installs
a tracer; the end-to-end numbers come from untraced runs.

Each wrapper opens a span on a stack. A span's self time is its duration
minus the durations of the spans it directly caused. Spans are aggregated
per function as they close (calls, total and self seconds), and counts are
taken at the same boundaries. Hot trivial helpers such as `linalg.max_abs`
are not wrapped.

Counts marked COMPUTED are derived from argument sizes, not measured:
dense-chain flops of `verify_tl_local` (8 real flops per complex
multiply-add, n^(3*sites) multiply-adds per product) and the bytes of the
embedded generators (16 * n^(2*sites) each).
"""
from __future__ import annotations

import functools
import inspect
import io
import os
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

WRAPPED = {
    "linalg": ("inverse", "kron", "matrix_from_dict", "matrix_to_dict"),
    "hadamard": ("is_ghm", "ghm_residual", "chm_residual", "butson_residual", "dita"),
    "master": ("master_matrix", "search_master_representation", "check_master_condition"),
    "tlrep": ("build_local_generator", "embed", "verify_tl_local", "reconstruct_m", "check_master4"),
    "baxter": ("braid_from_tl", "hecke_residual", "check_braid", "baxterize", "check_spectral_ybe"),
    "cli": ("main",),
}

#: Per-layer metrics derived from argument sizes rather than measured.
COMPUTED = (
    "tlrep.verify_tl_local.flops_computed",
    "tlrep.verify_tl_local.redundant_flops_frac",
    "tlrep.embed.bytes_out",
    "linalg.kron.bytes_out",
    "baxter.inverse_per_braid",
)

def chain_products(sites: int) -> int:
    """Dense products verify_tl_local forms on `sites` sites.

    One per generator for the loop relation, four per neighbouring pair for
    the braid relation, two per distant pair for commutation.
    """
    gens = sites - 1
    return gens + 4 * (gens - 1) + (gens - 1) * (gens - 2)


def chain_flops(n: int, sites: int) -> int:
    """Real flops of verify_tl_local's dense products (COMPUTED)."""
    return 8 * chain_products(sites) * n ** (3 * sites)


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: Counter = Counter()
        self.dim_max = 0
        self._stack: list[list] = []  # [name, seconds spent in child spans]
        self._saved: list[tuple] = []
        self._braids = weakref.WeakSet()
        self._hooks = {
            "linalg.inverse": self._on_inverse,
            "linalg.kron": self._on_kron,
            "linalg.matrix_from_dict": self._on_from_dict,
            "linalg.matrix_to_dict": self._on_to_dict,
            "tlrep.embed": self._on_embed,
            "tlrep.verify_tl_local": self._on_verify_local,
            "baxter.baxterize": self._on_baxterize,
            "master.master_matrix": self._on_master_matrix,
            "master.search_master_representation": self._on_search,
            "cli.main": self._on_cli_main,
        }

    # ---------------------------------------------------------- wrapping --

    def install(self) -> None:
        for module_name, names in WRAPPED.items():
            module = getattr(self.lib, module_name)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{module_name}.{name}", original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        error_counter = "cli.uncaught" if layer == "cli" else f"{layer}.errors"
        stat = self.stats[name]
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[error_counter] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # ------------------------------------------------------------- hooks --

    def _on_inverse(self, args, result) -> None:
        self.dim_max = max(self.dim_max, result.shape[0])
        if self._in_span("baxter.baxterize"):
            self.counts["baxter.inverse_in_baxterize"] += 1

    def _on_kron(self, args, result) -> None:
        self.counts["linalg.kron.bytes_out"] += result.nbytes

    def _on_from_dict(self, args, result) -> None:
        self.counts["linalg.matrix_from_dict.entries"] += result.size

    def _on_to_dict(self, args, result) -> None:
        self.counts["linalg.matrix_to_dict.entries"] += len(result["entries"])

    def _on_embed(self, args, result) -> None:
        self.counts["tlrep.embed.bytes_out"] += 16 * args["n"] ** (2 * args["sites"])

    def _on_verify_local(self, args, result) -> None:
        n = int(round(args["t_local"].shape[0] ** 0.5))
        self.counts["tlrep.verify_tl_local.flops_computed"] += chain_flops(n, args["sites"])
        self.counts["tlrep.verify_tl_local.flops_3site"] += chain_flops(n, 3)

    def _on_baxterize(self, args, result) -> None:
        braid = args["b"]
        if braid not in self._braids:
            self._braids.add(braid)
            self.counts["baxter.distinct_braids"] += 1

    def _on_master_matrix(self, args, result) -> None:
        if self._in_span("master.search_master_representation"):
            self.counts["master.search.feasible_tuples"] += 1

    def _on_cli_main(self, args, code) -> None:
        # The harness gives every call a fresh StringIO as stdout, so its
        # position after the call is the number of characters printed.
        argv = list(args.get("argv") or ())
        outputs = {argv[i + 1] for i, token in enumerate(argv[:-1]) if token == "--out"}
        written = [p for p in outputs if os.path.isfile(p)]
        read = [t for t in argv if t not in outputs and os.path.isfile(t)]
        self.counts["cli.json_bytes_in"] += sum(os.path.getsize(p) for p in read)
        self.counts["cli.json_bytes_out"] += sum(os.path.getsize(p) for p in written)
        if isinstance(sys.stdout, io.StringIO):
            self.counts["cli.json_bytes_out"] += sys.stdout.tell()
        self.counts[f"cli.exit{code}"] += 1

    def _on_search(self, args, result) -> None:
        self.counts["master.search_master_representation.found"] += result is not None

    # ----------------------------------------------------------- metrics --

    def value(self, name: str, passes: int) -> float:
        """The per-layer metric `name`, per pass where it is a count or a time."""
        c = self.counts
        if name == "linalg.inverse.dim_max":
            return float(self.dim_max)
        if name == "tlrep.verify_tl_local.redundant_flops_frac":
            done = c["tlrep.verify_tl_local.flops_computed"]
            return 1.0 - c["tlrep.verify_tl_local.flops_3site"] / done if done else 0.0
        if name == "baxter.inverse_per_braid":
            braids = c["baxter.distinct_braids"]
            return c["baxter.inverse_in_baxterize"] / braids if braids else 0.0
        function, _, field = name.rpartition(".")
        if field == "calls":
            return self.stats[function].calls / passes
        if field == "self_s":
            return self.stats[function].self_s / passes
        return c[name] / passes
