"""Spans around the library's public functions, recorded from outside ``src/``.

Each traced function is replaced by a wrapper in every ``tmbcast`` module
that holds it, including the copies other modules import (``solvers`` calls
its own ``objective``, ``cli`` its own ``distance``), so the spans nest the
way the calls do.  A wrapper records only while an operation is open, so the
benchmark's correctness checks, which call the same functions, add nothing.

A span is (operation, name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children; calls are sequential,
so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter


def _measure(position):
    def code(args, kwargs):
        return (kwargs["measure"] if "measure" in kwargs else args[position]).code
    return code


def _text_bytes(args, kwargs):
    text = args[0] if args else next(iter(kwargs.values()))
    return {"fileformat.parse.bytes": len(text.encode("utf-8"))}


def _objective_labels(args, kwargs):
    labeling = kwargs["labeling"] if "labeling" in kwargs else args[1]
    return {"distances.objective.labels": labeling.label_count()}


def _brute_force_labelings(args, kwargs):
    from tmbcast.solvers import search_space_size

    instance = kwargs["instance"] if "instance" in kwargs else args[0]
    return {"solvers.brute_force.labelings": search_space_size(instance)}


# (module, function, span-name suffix from the arguments, extra counts)
TARGETS = (
    ("cli", "main", None, None),
    ("fileformat", "parse_instance_document", None, _text_bytes),
    ("fileformat", "parse_labeling", None, _text_bytes),
    ("fileformat", "parse_cnf", None, _text_bytes),
    ("fileformat", "serialize_labeling", None, None),
    ("core", "is_feasible", None, None),
    ("core", "reaches_all", None, None),
    ("distances", "objective", _measure(2), _objective_labels),
    ("distances", "distance", _measure(4), None),
    ("distances", "ft_mw_bounds", None, None),
    ("tsot", "build_ea_tsot", None, None),
    ("tsot", "build_ld_tsot", None, None),
    ("solvers", "solve_single_source", None, None),
    ("solvers", "solve_multi_full_mu", None, None),
    ("solvers", "solve_tree", None, None),
    ("solvers", "approx_ft_mw", None, None),
    ("solvers", "brute_force", None, _brute_force_labelings),
    ("reductions", "gen_single_source_gadget", None, None),
    ("reductions", "two_source_witness_labeling", None, None),
)


class Tracer:
    """In-memory span recorder.  ``open(op)`` ... ``close()`` brackets one
    operation; ``close`` returns that operation's per-name totals:
    ``<name>.self_s``, ``<name>.total_s``, ``<module>.<function>.calls`` and
    the extra counts of TARGETS."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self._op: str | None = None
        self._totals: Counter = Counter()

    def install(self) -> None:
        for module, function, suffix, extra in TARGETS:
            home = sys.modules[f"tmbcast.{module}"]
            original = getattr(home, function)
            wrapper = self._wrap(original, f"{module}.{function}", suffix, extra)
            for name, loaded in list(sys.modules.items()):
                if name.startswith("tmbcast") and loaded is not None:
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def open(self, op: str) -> None:
        self._op = op
        self._totals = Counter()

    def close(self) -> Counter:
        self._op = None
        return self._totals

    def _wrap(self, fn, base, suffix, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            totals = self._totals
            totals[base + ".calls"] += 1
            if extra is not None:
                totals.update(extra(args, kwargs))
            name = base if suffix is None else f"{base}.{suffix(args, kwargs)}"
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (self._op, name, start, end, parent)
                totals[name + ".self_s"] += duration - frame[1]
                totals[name + ".total_s"] += duration

        return traced

    def write(self, path) -> None:
        """One JSON array per line: operation, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
