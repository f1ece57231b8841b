"""Spans around the public functions of each mastforge module, for the traced run.

`Tracer.install` wraps each function listed in `TARGETS` in every module
namespace that binds it (``construct`` imports ``mast_dp`` by name, ``bounds``
imports ``make_balanced`` and ``mast_size_matrix``, ``cli`` imports
``mast_dp``, and the package re-exports all of them), so no call path slips
past the wrapper.  A span records name, start, end, parent span and op id and
stays in memory until `layer_metrics` folds the spans into per-op figures.
Only calls made inside `Tracer.op` are recorded; answer checks between ops
run through the same wrappers untraced.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# A span is (name, start, end, parent index, op id); index -1 is no parent.
OP_SPAN = "op"


def _count_tree(counts, args, result):
    tree = args[0]  # the instance Tree.__init__ just filled in
    counts["tree.build_calls"] += 1
    counts["tree.build_nodes"] += 2 * tree.size - 1


def _count_restrict(counts, args, result):
    counts["tree.restrict_calls"] += 1
    counts["tree.restrict_kept"] += result.size
    counts["tree.restrict_host"] += args[0].size


def _count_canonical(counts, args, result):
    counts["tree.canonical_calls"] += 1


def _count_parse(counts, args, result):
    counts["newick.parse_bytes"] += len(args[0])


def _count_table(counts, args, result):
    s, t = args[0], args[1]
    counts["mast.table_cells"] += (2 * s.size - 1) * (2 * t.size - 1)


def _count_anticat(counts, args, result):
    counts["construct.anticat_calls"] += 1


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module name or ``module:Class``."""

    owner: str
    attr: str
    span: str | None  # None: count calls only, the time stays with the caller
    count: Callable | None = None


TARGETS = (
    Target("mastforge.newick", "parse", "newick.parse", _count_parse),
    Target("mastforge.newick", "serialize", "newick.serialize"),
    # Tree construction and validation at every call site: the builders
    # and the constructor share one span name, so self times add up.
    Target("mastforge.tree:Tree", "__init__", "tree.build", _count_tree),
    Target("mastforge.tree:Tree", "from_nested", "tree.build"),
    Target("mastforge.tree", "make_balanced", "tree.build"),
    Target("mastforge.tree", "make_caterpillar", "tree.build"),
    Target("mastforge.tree:Tree", "restrict", "tree.restrict", _count_restrict),
    Target("mastforge.tree:Tree", "pendant_subtrees_at_depth", "tree.pendant"),
    Target("mastforge.tree:Tree", "canonical_form", "tree.canonical", _count_canonical),
    Target("mastforge.mast", "mast_dp", "mast.dp"),
    Target("mastforge.mast", "mast_size_matrix", "mast.table_fill", _count_table),
    Target("mastforge.construct", "build_counterexample", "construct.build"),
    Target("mastforge.construct", "verify_counterexample", "construct.verify"),
    Target("mastforge.construct", "is_anticaterpillar_pair", None, _count_anticat),
    Target("mastforge.bounds", "empirical_probe", "bounds.trial"),
)


class Tracer:
    """In-memory spans and counters for ops run inside `op`."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.bindings: Counter = Counter()  # target -> namespaces rebound
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; calls inside it become its descendants."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._op = None
            self.spans[index] = (OP_SPAN, start, end, -1, op_id)

    def _wrap(self, target: Target, fn):
        count = target.count
        name = target.span

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                self.spans.append(None)
                parent = self._stack[-1]
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent, self._op)
            if count is not None:
                count(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a mastforge namespace binds it."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "mastforge" or key.startswith("mastforge.")
        ]
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            if class_name:
                cls = getattr(sys.modules[module_name], class_name)
                raw = cls.__dict__[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._rebind(cls, target.attr, wrapped)
                self.bindings[target.attr] += 1
                continue
            original = getattr(sys.modules[module_name], target.attr)
            wrapped = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
                        self.bindings[target.attr] += 1

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span_totals(self, factors: dict[int, float]) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, inclusive seconds, self seconds, each
        duration scaled by its op's host-speed factor (see `speed`).

        A span's self time is its duration minus that of its direct
        children; spans nest strictly because ops run one at a time.
        """
        durations = [(end - start) * factors[op] for _, start, end, _, op in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        selfs: Counter = Counter()
        for (name, *_), duration, children in zip(self.spans, durations, child_time):
            calls[name] += 1
            inclusive[name] += duration
            selfs[name] += duration - children
        return calls, inclusive, selfs


def layer_metrics(tracer: Tracer, factors: dict[int, float]) -> dict[str, tuple[float, str]]:
    """Per-op layer figures of the traced ops: ``<layer>.<step>_s`` is the
    self time of that step's spans, except ``mast.dp_s`` and
    ``construct.verify_s``, which are inclusive next to their ``_self_s``."""
    calls, inclusive, selfs = tracer.span_totals(factors)
    counts = tracer.counts
    ops = calls[OP_SPAN]
    cells = counts["mast.table_cells"]
    fill = selfs["mast.table_fill"]
    host = counts["tree.restrict_host"]

    def per_op(value):
        return value / ops

    return {
        "newick.parse_s": (per_op(selfs["newick.parse"]), "s"),
        "newick.parse_bytes": (per_op(counts["newick.parse_bytes"]), "B"),
        "newick.serialize_s": (per_op(selfs["newick.serialize"]), "s"),
        "tree.build_s": (per_op(selfs["tree.build"]), "s"),
        "tree.build_calls": (per_op(counts["tree.build_calls"]), "count"),
        "tree.build_nodes": (per_op(counts["tree.build_nodes"]), "count"),
        "tree.restrict_s": (per_op(selfs["tree.restrict"]), "s"),
        "tree.restrict_calls": (per_op(counts["tree.restrict_calls"]), "count"),
        "tree.restrict_keep_ratio": (
            counts["tree.restrict_kept"] / host if host else 0.0, "ratio"),
        "tree.pendant_s": (per_op(selfs["tree.pendant"]), "s"),
        "tree.canonical_s": (per_op(selfs["tree.canonical"]), "s"),
        "tree.canonical_calls": (per_op(counts["tree.canonical_calls"]), "count"),
        "mast.dp_s": (per_op(inclusive["mast.dp"]), "s"),
        "mast.table_fill_s": (per_op(fill), "s"),
        "mast.dp_self_s": (per_op(selfs["mast.dp"]), "s"),
        "mast.table_cells": (per_op(cells), "count"),
        "mast.table_mb": (per_op(cells) * 4 / 1e6, "MB"),
        "mast.cells_per_s": (cells / fill if fill else 0.0, "1/s"),
        "construct.build_s": (per_op(selfs["construct.build"]), "s"),
        "construct.verify_s": (per_op(inclusive["construct.verify"]), "s"),
        "construct.verify_self_s": (per_op(selfs["construct.verify"]), "s"),
        "construct.anticat_calls": (per_op(counts["construct.anticat_calls"]), "count"),
        "bounds.trial_s": (per_op(selfs["bounds.trial"]), "s"),
        "trace.unattributed_frac": (selfs[OP_SPAN] / inclusive[OP_SPAN], "ratio"),
    }
