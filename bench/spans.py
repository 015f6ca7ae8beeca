"""Span tracing from outside the package.

`Tracer.install` replaces every module-level binding of a public haarmult
function with a wrapper that records one span per call; `uninstall` puts the
originals back. Nothing inside `src/` is changed: a function is traced when
it is called through a module attribute, which is how the package calls its
own functions (`atomic` calls `hp_norm` through its own binding of it).

A span is `[name, start, end, parent, op]`, with `parent` the index of the
enclosing span (-1 for none) and `op` the benchmark op it belongs to. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("dyadic", "haar", "atomic", "pietsch", "pisier", "cli")

# Span names that differ from "<module>.<function>". Keys are the defining
# module and the function name, so every binding of a function shares one name.
_RENAMED = {
    ("dyadic", "carleson_constant"): "dyadic.carleson",
    ("dyadic", "generation_decay_check"): "dyadic.decay_check",
    ("dyadic", "maximal_intervals"): "dyadic.maximal",
    ("haar", "square_leaf_sums"): "haar.square_sums",
    ("atomic", "verify_decomposition"): "atomic.verify",
    ("pietsch", "weights_hp"): "pietsch.weights",
    ("pietsch", "weights_tl"): "pietsch.weights",
    ("pietsch", "weights_vector"): "pietsch.weights",
    ("pietsch", "check_multiplier_bound"): "pietsch.check",
    ("pietsch", "validate_measure"): "pietsch.validate",
    ("pisier", "x0_norm_estimate"): "pisier.x0",
    ("pisier", "verify_factorization"): "pisier.verify",
    ("cli", "run_verification"): "cli.trial",
    ("cli", "dump_json"): "cli.dump",
}

# Public helpers called once per support interval inside a leaf loop: a span
# per call would cost more than the call and would swamp the trace.
_UNTRACED = {("haar", "leaf_slice"), ("haar", "evaluate_haar")}


def _leaf_adds(u) -> int:
    """Leaf updates of one accumulation of u onto the 2^L leaves (computed)."""
    top = u.max_level
    return sum(1 << (top - i.level) for i in u.coeffs)


class Tracer:
    """Records spans and per-op counts while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[tuple[str, int]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._leaf_cache: dict[int, tuple[object, int]] = {}
        self._counters = {
            "dyadic.carleson": self._count_members,
            "dyadic.is_block": self._count_members,
            "haar.square_sums": self._count_leaves,
            "haar.q_variation": self._count_leaves,
            "atomic.decompose": self._count_pieces,
            "atomic.verify": self._count_piece_leaves,
            "pisier.x0": self._count_cover,
        }

    # -- counters: computed from a call's arguments and result once its span
    # has ended, so their cost lands in the parent span's self time

    def _count_members(self, args, result) -> None:
        self.counts["dyadic.members"] += len(args[0])

    def _leaves_of(self, u) -> int:
        hit = self._leaf_cache.get(id(u))
        if hit is None or hit[0] is not u:
            hit = (u, _leaf_adds(u))
            self._leaf_cache[id(u)] = hit
        return hit[1]

    def _count_leaves(self, args, result) -> None:
        u = args[0]
        self.counts["haar.leaf_adds"] += self._leaves_of(u)
        self.counts["haar.leaf_bytes"] += 8 << u.max_level

    def _count_pieces(self, args, result) -> None:
        self.counts["atomic.pieces"] += len(result.pieces)

    def _count_piece_leaves(self, args, result) -> None:
        u, _, dec = args[:3]
        self.counts["haar.leaf_adds"] += self._leaves_of(u)
        self.counts["haar.leaf_bytes"] += sum(
            8 << (u.max_level - piece.top.level) for piece in dec.pieces
        )

    def _count_cover(self, args, result) -> None:
        u = args[1]
        self.counts["pisier.x0.cover_bytes"] += len(u.coeffs) * (8 << u.max_level)

    # -- installation

    def _wrap(self, name: str, fn):
        counter = self._counters.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A recursive call (dump_json) stays inside its outermost span.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1][1] if stack else -1, self.op]
            stack.append((name, len(spans)))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every module-level binding of a public package function."""
        if self._installed:
            return
        modules = [self.package] + [
            getattr(self.package, name) for name in MODULES
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(self.package.__name__):
                    continue
                home = value.__module__.rpartition(".")[2]
                if (home, value.__name__) in _UNTRACED:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    name = _RENAMED.get(
                        (home, value.__name__), f"{home}.{value.__name__}"
                    )
                    wrapper = wrappers[id(value)] = self._wrap(name, value)
                self._installed.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()
        self._leaf_cache.clear()

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as benchmark op `op` under a root span "op"."""
        self.op = op
        self.install()
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self.uninstall()
            self.op = -1

    # -- reduction

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self time, summed total time, call count.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because the benchmark is single
        threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
