"""Per-layer spans recorded from outside the package.

Every public function of the traced ``berglab`` modules is replaced by a
wrapper that records one span per call: layer, function, start, end, the
span that caused it, whether it raised, and a few counts read off its
arguments and result.  The wrapper is bound under every ``berglab.*``
name that refers to the original function object, because the modules
import each other's functions by name (``suites`` calls ``toeplitz_matrix``
through its own globals, ``as_point_function`` reaches ``eval_on_points``
through ``quadrature``'s globals).

Spans are kept per thread.  A span opened on a thread with no open span
of its own (a ``ThreadPoolExecutor`` worker) is counted as a child of the
innermost span open on the main thread, which is the suite call waiting
on the pool.  Self time is a span's duration minus the union of the
intervals its children cover, so two children running in parallel are
not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "suites", "levels", "berezin", "toeplitz", "quadrature", "symbols", "core")

# rule builds of the dense assembly path; a toeplitz call without one of
# these below it took a fast (diagonal) path
RULE_BUILDS = ("quadrature.ball_rule", "quadrature.monte_carlo_points")
ASSEMBLERS = ("toeplitz.toeplitz_matrix", "toeplitz.toeplitz_matrix_with_stderr")
SUITES = (
    "run_norm_identity",
    "run_factorization_suite",
    "run_quantization_suite",
    "run_spectrum_suite",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "error", "counts", "children")

    def __init__(self, name: str, layer: str, parent: Optional["Span"]):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.error = False
        self.counts: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(c.start, self.start), min(c.end, self.end)) for c in self.children
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return max(0.0, self.duration - covered)

    def has_descendant(self, names) -> bool:
        return any(c.name in names or c.has_descendant(names) for c in self.children)


# ---------------------------------------------------------------------------
# Counts read at the layer boundary; each gets (args, kwargs, result).


def _arr_mb(*arrays) -> float:
    return sum(getattr(a, "nbytes", 0) for a in arrays) / 1e6


def _count_ball_rule(args, kwargs, rule):
    return {"nodes": rule.size, "node_mb": _arr_mb(rule.nodes, rule.weights, rule.radial_t)}


def _count_mc_points(args, kwargs, result):
    z, t = result
    return {"nodes": z.shape[0], "node_mb": _arr_mb(z, t)}


def _count_eval(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    shape = getattr(z, "shape", (1, 1))
    points = 1
    for n in shape[:-1]:
        points *= int(n)
    return {"points": points}


def _count_matrix(args, kwargs, result):
    m = result[0] if isinstance(result, tuple) else result
    k = m.size
    return {"k": k, "entries": k * k, "zeros": int((m.entries == 0).sum())}


def _count_norm(args, kwargs, result):
    a = args[0] if args else kwargs["M"]
    return {"k": len(getattr(a, "entries", a))}


def _count_block(args, kwargs, blk):
    return {"block_mb": _arr_mb(blk.block.entries, blk.pair_entries)}


def _count_outputs(args, kwargs, result):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return {"bytes": total}


COUNTERS: Dict[str, Callable] = {
    "quadrature.ball_rule": _count_ball_rule,
    "quadrature.monte_carlo_points": _count_mc_points,
    "symbols.eval_on_points": _count_eval,
    "toeplitz.toeplitz_matrix": _count_matrix,
    "toeplitz.toeplitz_matrix_with_stderr": _count_matrix,
    "toeplitz.operator_norm": _count_norm,
    "levels.level_block_direct": _count_block,
    "levels.extract_level_block": _count_block,
    "suites.write_outputs": _count_outputs,
}


class Tracer:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._stacks: Dict[int, List[Span]] = {}
        self._main = threading.main_thread().ident
        self._gj_rule = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            span = Span(name, layer, parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced layers, everywhere."""
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"berglab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if getattr(target, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(target):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
                if attr == "gauss_jacobi_rule":
                    self._gj_rule = obj

        def rebind(obj):
            # module-level tables such as suites._ALL_SUITES hold the
            # functions inside tuples
            if isinstance(obj, tuple):
                return tuple(rebind(item) for item in obj)
            return wrappers.get(id(obj), obj)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "berglab" or mod_name.startswith("berglab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                new = rebind(obj)
                if new is not obj and new != obj:
                    setattr(mod, attr, new)

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        for s in self.spans:
            if s.parent is not None:
                s.parent.children.append(s)

        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = 0
        by_name: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        totals: Dict[str, float] = {}
        asm_calls = asm_fast = 0
        entries = quad_entries = quad_zeros = 0
        vandermonde_mb = quad_path_s = 0.0
        max_k = 0
        for s in self.spans:
            st = s.self_time()
            out[f"{s.layer}.self_s"] += st
            out[f"{s.layer}.calls"] += 1
            out[f"{s.layer}.errors"] += int(s.error)
            by_name[s.name] = by_name.get(s.name, 0.0) + st
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, val in s.counts.items():
                totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + val
            if s.name == "toeplitz.operator_norm":
                max_k = max(max_k, s.counts.get("k", 0))
            if s.name in ASSEMBLERS and not s.error:
                asm_calls += 1
                entries += s.counts["entries"]
                if not s.has_descendant(RULE_BUILDS):
                    asm_fast += 1
                    continue
                quad_path_s += s.duration
                quad_entries += s.counts["entries"]
                quad_zeros += s.counts["zeros"]
                nodes = sum(c.counts.get("nodes", 0) for c in s.children if c.name in RULE_BUILDS)
                vandermonde_mb += nodes * s.counts["k"] * 16 / 1e6

        def named(key: str) -> float:
            return by_name.get(key, 0.0)

        out["quadrature.ball_rule.self_s"] = named("quadrature.ball_rule")
        out["quadrature.monte_carlo_points.self_s"] = named("quadrature.monte_carlo_points")
        out["quadrature.nodes"] = sum(totals.get(f"{n}.nodes", 0) for n in RULE_BUILDS)
        out["quadrature.node_mb"] = sum(totals.get(f"{n}.node_mb", 0.0) for n in RULE_BUILDS)
        info = self._gj_rule.cache_info() if self._gj_rule is not None else None
        lookups = (info.hits + info.misses) if info else 0
        out["quadrature.gj_cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["symbols.eval_on_points.self_s"] = named("symbols.eval_on_points")
        out["symbols.points"] = totals.get("symbols.eval_on_points.points", 0)
        out["symbols.parse_symbol.self_s"] = named("symbols.parse_symbol")
        out["toeplitz.toeplitz_matrix.self_s"] = named("toeplitz.toeplitz_matrix")
        out["toeplitz.toeplitz_matrix_with_stderr.self_s"] = named(
            "toeplitz.toeplitz_matrix_with_stderr"
        )
        out["toeplitz.operator_norm.self_s"] = named("toeplitz.operator_norm")
        out["toeplitz.operator_norm.max_k"] = max_k
        out["toeplitz.radial_toeplitz_diagonal.self_s"] = named(
            "toeplitz.radial_toeplitz_diagonal"
        )
        out["toeplitz.fast_path_ratio"] = asm_fast / asm_calls if asm_calls else 0.0
        out["toeplitz.entries"] = entries
        out["toeplitz.zero_entry_ratio"] = quad_zeros / quad_entries if quad_entries else 0.0
        out["toeplitz.vandermonde_mb"] = vandermonde_mb
        out["toeplitz.quadrature_path_s"] = quad_path_s
        for fn in (
            "verify_tensor_factorization",
            "level_block_direct",
            "recover_symbol_and_remainder",
        ):
            out[f"levels.{fn}.self_s"] = named(f"levels.{fn}")
        out["levels.block_mb"] = sum(
            totals.get(f"levels.{n}.block_mb", 0.0)
            for n in ("level_block_direct", "extract_level_block")
        )
        for fn in ("berezin_of_operator", "berezin_of_symbol"):
            out[f"berezin.{fn}.self_s"] = named(f"berezin.{fn}")
            out[f"berezin.{fn}.calls"] = calls.get(f"berezin.{fn}", 0)
        out["suites.write_outputs.self_s"] = named("suites.write_outputs")
        out["suites.output_bytes"] = totals.get("suites.write_outputs.bytes", 0)
        for suite in SUITES:
            out[f"suites.{suite}.wall_s"] = sum(
                s.duration for s in self.spans if s.name == f"suites.{suite}"
            )
        out["trace.spans"] = len(self.spans)
        return out
