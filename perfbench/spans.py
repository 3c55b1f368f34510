"""Spans around the calls into each dworkzeta layer, recorded from outside.

``install`` replaces, on the dworkzeta modules, the names ``pipeline.py``
binds to each layer (plus the oracle's and the expansion's inner entry
points) with wrappers that record a span: name, parent span, start, end and
counters.  Spans stay in memory; the caller writes them out at the end.
Names a later version of the program no longer binds are skipped, so the
per-layer numbers they feed read zero instead of breaking the run.

A span name is ``<layer>.<step>``; the layer is the dworkzeta module that
does the work.  ``pipeline.solve`` and ``oracle.verify`` are the roots the
benchmark opens around ``compute_zeta`` and ``verify_against_oracle``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

# name bound in dworkzeta.pipeline -> span name
PIPELINE_SPANS = {
    "structural_rank": "pipeline.structural",
    "make_ring": "padic.ring",
    "lift_input": "padic.lift",
    "hull_and_triangulate": "polytope.hull",
    "confine_support": "polytope.confine",
    "build_jacobian": "jacobian.build",
    "splitting_for": "splitting.series",
    "make_support_matrix": "frobenius.support",
    "expand_frobenius": "frobenius.expand",
    "expand_frobenius_dense": "frobenius.expand",
    "cone_reduce": "reduction.reduce",
    "assemble_and_charpoly": "zeta.charpoly",
    "lift_charpoly": "zeta.lift",
    "assemble_zeta": "zeta.lift",
    "precision_bound": "zeta.lift",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, sid: int, parent: Optional[int], name: str):
        self.id, self.parent, self.name = sid, parent, name
        self.start = self.end = 0.0
        self.counts: Dict[str, int] = {}

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    def call(self, name: str, fn: Callable, *args, count=None, **kwargs):
        """Run fn inside a span; count(span, result, args) may add counters."""
        span = Span(len(self.spans), self._open[-1].id if self._open else None,
                    name)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if count is not None:
            count(span, out, args)
        return out

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    def tally(self, key: str, fn: Callable) -> Callable:
        """Count calls of fn on the innermost open span, without a span."""
        def counted(*args, **kwargs):
            if self._open:
                counts = self._open[-1].counts
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _count_solutions(span: Span, out, args) -> None:
    span.counts["solutions"] = len(out)


def _count_terms(span: Span, out, args) -> None:
    span.counts["terms"] = len(out.terms)


def _count_basis(span: Span, out, args) -> None:
    span.counts["basis_v"] = out[1].v


def _count_points(span: Span, out, args) -> None:
    # count_points(p, a, hbar, terms, mode, r) enumerates q^(r*n) points
    p, a, _hbar, terms, _mode, r = args[:6]
    span.counts["points"] = (p ** a) ** (r * len(terms[0][0]))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points on the imported dworkzeta modules."""
    from dworkzeta import frobenius, oracle, pipeline, splitting

    counters = {"build_jacobian": _count_basis,
                "expand_frobenius": _count_terms,
                "expand_frobenius_dense": _count_terms}
    for attr, name in PIPELINE_SPANS.items():
        fn = getattr(pipeline, attr, None)
        if callable(fn):
            setattr(pipeline, attr, tracer.wrap(name, fn, counters.get(attr)))
    if hasattr(frobenius, "solve_congruence"):
        frobenius.solve_congruence = tracer.wrap(
            "frobenius.congruence", frobenius.solve_congruence,
            _count_solutions)
    # One call per splitting coefficient the series has to compute.
    if hasattr(splitting, "ell_fraction"):
        splitting.ell_fraction = tracer.tally("coefficients",
                                              splitting.ell_fraction)
    if hasattr(oracle, "get_field"):
        oracle.get_field = tracer.wrap("oracle.field", oracle.get_field)
    if hasattr(oracle, "count_points"):
        oracle.count_points = tracer.wrap("oracle.count", oracle.count_points,
                                          _count_points)


def summarize(tracer: Tracer, lo: int = 0) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, summed duration and self time, and counters,
    over the spans recorded from position lo on.

    ``jacobian.build`` spans under ``pipeline.structural`` are also summed
    as ``jacobian.structural``; a ``splitting.series`` span that computed
    coefficients counts as a cold call.
    """
    own = tracer.self_times()
    by_id = {s.id: s for s in tracer.spans}
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for s in tracer.spans[lo:]:
        names = [s.name]
        if (s.name == "jacobian.build" and s.parent is not None
                and by_id[s.parent].name == "pipeline.structural"):
            names.append("jacobian.structural")
        for name in names:
            row = out[name]
            row["calls"] += 1
            row["wall"] += s.end - s.start
            row["self"] += own[s.id]
            for key, val in s.counts.items():
                row[key] += val
            if s.name == "splitting.series" and s.counts.get("coefficients"):
                row["cold_calls"] += 1
    return {name: dict(row) for name, row in out.items()}
