"""Spans around the public calls of each `mcflow` layer, recorded from outside.

The package is not edited: while a traced operation runs, every module
attribute bound to one of the traced functions is replaced by a wrapper
that records a span, and the originals are put back afterwards.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Function name -> span name.  A function the package no longer has is
# skipped, so a later refactor shows up as a missing span, not a crash.
TRACED = {
    "parse_network": "netmodel.parse_network",
    "validate_network": "netmodel.validate_network",
    "max_flow": "maxflow.max_flow",
    "decompose_cut_paths": "maxflow.decompose_cut_paths",
    "build_tables": "tables.build_tables",
    "upper_bounds": "heuristic.upper_bounds",
    "inclusion_exclusion_bound": "heuristic.inclusion_exclusion_bound",
    "greedy_solve": "heuristic.greedy_solve",
    "validate_assignment": "heuristic.validate_assignment",
    "enumerate_paths": "oracle.enumerate_paths",
    "optimal_value": "oracle.optimal_value",
}


def _mcflow_modules() -> list:
    return [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == "mcflow" or key.startswith("mcflow."))
    ]


@contextmanager
def patched(wrappers: dict):
    """Install `wrappers[name](original)` wherever `name` is bound to the
    original function in a loaded `mcflow` module; restore on exit."""
    modules = _mcflow_modules()
    saved = []
    try:
        for name, make in wrappers.items():
            original = next(
                (
                    module.__dict__[name]
                    for module in modules
                    if callable(module.__dict__.get(name))
                    and getattr(module.__dict__[name], "__module__", None) == module.__name__
                ),
                None,
            )
            if original is None:
                continue
            wrapper = make(original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class Tracer:
    """In-memory span log: (id, name, start, end, parent id, instance id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.instance = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0.0, 0.0, parent, self.instance))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.instance)

    def wrappers(self, on_result) -> dict:
        """Span-recording wrappers for every TRACED function; `on_result`
        sees (function name, result) so callers can count work done."""

        def make(name: str):
            def factory(original):
                def traced(*args, **kwargs):
                    with self.span(TRACED[name]):
                        result = original(*args, **kwargs)
                    on_result(name, result)
                    return result

                return traced

            return factory

        return {name: make(name) for name in TRACED}

    def durations(self) -> dict[int, dict[str, float]]:
        """Per instance id: total duration and total self time per span name.

        Self time is the span minus the time its direct children cover;
        the key for it is the span name with a `:self` suffix.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, name, start, end, _, instance in self.spans:
            totals[instance][name] += end - start
            totals[instance][name + ":self"] += end - start - child_time[span_id]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, instance in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "instance": instance,
                }
                handle.write(json.dumps(record) + "\n")
