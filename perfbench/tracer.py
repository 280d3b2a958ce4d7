"""Span tracing of charsum from outside the program.

`Tracer.install()` replaces each traced public function with a wrapper in
every ``charsum`` module that holds it by name (``verify`` and ``cli`` import
from ``sums`` by name, so patching ``charsum.sums`` alone would miss their
calls).  The wrapper sits outside any ``lru_cache``, so cache hits still count
as calls.  Spans (id, parent, name, start, end, thread id, operation id) stay
in memory until the round ends; self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# Functions timed with spans, by module.
SPANNED = {
    "sums": (
        "complete_lambda_table",
        "complete_lambda_row",
        "complete_lambda",
        "second_moment",
        "weighted_second_moment",
        "gauss_sum_all",
        "gauss_sum",
        "incomplete_lambda",
        "quadratic_expsum",
        "orthogonality_average",
        "character_pair_sum",
        "bilinear_form",
        "unit_root_char_sum",
        "character_value_table",
    ),
    "character": (
        "character_group",
        "enumerate_characters",
        "is_primitive",
        "parity_flags",
        "conductor",
        "product_character",
        "parse_character_label",
    ),
    "arith": (
        "factorize",
        "discrete_log_table",
        "unit_group_structure",
        "multiplicative_profile",
    ),
    "rng": ("derive_seed",),
    "cli": ("main",),
    "verify": ("run_check", "bilinear_experiment"),
}

# Functions that run once per term of the naive bilinear oracle: a span each
# would swamp the trace, so they are only counted.
COUNTED = {"character": ("evaluate",), "arith": ("mod_inverse",)}

CHECKS = (
    "theorem1",
    "bound4",
    "bound5",
    "lemma1",
    "lemma3",
    "pairsum",
    "lemma4",
    "theorem2",
    "vanishing",
    "multiplicativity",
)


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "charsum" and not name.startswith("charsum."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder for one round of a workload."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self.cases = 0
        self.table_miss_bytes = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A sweep worker thread's first span belongs to the span that
        # submitted the work: the innermost open span of the main thread.
        main = self._main_stack
        return main[-1] if main else 0

    def _spanned(self, qualname: str, fn):
        tracer = self

        def name_of(args) -> str:
            if qualname == "verify.run_check" and args:
                return f"{qualname}:{args[0]}"
            return qualname

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name_of(args), start, end, threading.get_ident(), tracer.op)
                )
            if qualname in ("verify.run_check", "verify.bilinear_experiment"):
                tracer.cases += len(result.cases)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
        if qualname == "sums.character_value_table":
            return self._miss_sizer(wrapper)
        return wrapper

    def _miss_sizer(self, wrapper):
        """Adds the size of every array the first time it is returned.

        A cache hit returns the same array object as the miss that built it.
        The arrays stay referenced here, so their ids are not reused.
        """
        tracer = self
        seen = {}

        @functools.wraps(wrapper)
        def sized(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            with tracer._lock:
                if id(result) not in seen:
                    seen[id(result)] = result
                    tracer.table_miss_bytes += result.nbytes
            return result

        return sized

    def _counted(self, qualname: str, fn):
        counts = self.counts
        counts[qualname] = 0
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        for group, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, names in group.items():
                module = importlib.import_module(f"charsum.{module_name}")
                for name in names:
                    original = getattr(module, name)
                    _replace_everywhere(original, make(f"{module_name}.{name}", original))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per traced function, plus per-check time."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span_id, parent, _, start, end, _, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        metrics: dict[str, float] = {}
        for module_name, names in SPANNED.items():
            for name in names:
                metrics[f"{module_name}.{name}.calls"] = 0
                metrics[f"{module_name}.{name}.self_s"] = 0.0
        for check in CHECKS:
            metrics[f"verify.run_check.{check}.s"] = 0.0
        for span_id, _, name, start, end, _, _ in self.spans:
            base, _, check = name.partition(":")
            metrics[f"{base}.calls"] += 1
            metrics[f"{base}.self_s"] += (end - start) - _covered(start, end, children.get(span_id, ()))
            if check:
                metrics[f"verify.run_check.{check}.s"] += end - start
        for qualname, count in self.counts.items():
            metrics[f"{qualname}.calls"] = count
        metrics["verify.bilinear_experiment.s"] = sum(
            end - start for _, _, name, start, end, _, _ in self.spans
            if name == "verify.bilinear_experiment"
        )
        metrics["verify.cases"] = self.cases
        metrics["sums.character_value_table.miss_bytes"] = self.table_miss_bytes
        return metrics


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
