"""Turn the spans of traced children into per-layer self times and counts.

A span is one call of a wrapped public function: its name
``<module>.<function>``, start and end (``perf_counter`` seconds in the
child), the index of the span that called it, the command id and the work
counts recorded at that boundary.  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("cli", "constructors", "cc_core", "extension", "spectral",
          "permgroup", "analysis")

# Self times plus cli.startup_s must add up to the child's wall time.
SUM_TOLERANCE = 0.05


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    cmd: str
    counts: dict


def from_child(doc):
    """Spans from the JSON document a traced child wrote."""
    return [Span(name, start, end, parent, doc["cmd"], counts or {})
            for name, start, end, parent, counts in doc["spans"]]


def self_times(spans):
    """Self time of each span, in the order given."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reached = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reached), min(end, span.end)
            if end > start:
                covered += end - start
                reached = end
        out.append(span.end - span.start - covered)
    return out


def command_totals(spans, wall_s):
    """Per-layer totals of one traced child whose wall time was ``wall_s``.

    ``cli.startup_s`` is the wall time outside the root ``cli.main`` span:
    interpreter start, imports and exit.
    """
    totals = Counter()
    main_s = sum(s.end - s.start for s in spans
                 if s.parent is None and s.name == "cli.main")
    totals["cli.startup_s"] += wall_s - main_s
    for span, own in zip(spans, self_times(spans)):
        totals[span.name.split(".", 1)[0] + ".self_s"] += own
        totals[span.name + ".self_s"] += own
        totals[span.name + ".calls"] += 1
        for what, count in span.counts.items():
            totals[f"{span.name}.{what}"] += count
    return totals


def inclusive_s(spans):
    """Summed span durations per function name, child spans included."""
    totals = Counter()
    for span in spans:
        totals[span.name] += span.end - span.start
    return totals


def accounted_s(totals):
    """Self time of every layer plus start-up: the child's wall time."""
    return totals["cli.startup_s"] + sum(totals[f"{layer}.self_s"] for layer in LAYERS)


def adds_up(totals, wall_s):
    return abs(accounted_s(totals) - wall_s) <= SUM_TOLERANCE * wall_s
