"""The contract between the package and the benchmark's tracer.

perfbench/spans.py wraps the layer entry points that pipeline.py binds and
reads three things from their results: the number of terms of an expanded
Frobenius image, the rank v of a Jacobian build and the number of congruence
solutions.  If one of them stops holding, every traced benchmark problem
fails, so this test runs one traced solve and checks them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from dworkzeta import frobenius, oracle, pipeline, splitting
from dworkzeta.pipeline import Problem, compute_zeta, verify_against_oracle

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_terms_solutions_and_rank(monkeypatch):
    spans = load_spans()
    # Every name install may replace, so that monkeypatch restores it.
    replaced = [(pipeline, attr) for attr in spans.PIPELINE_SPANS]
    replaced += [(frobenius, "solve_congruence"), (splitting, "ell_fraction"),
                 (oracle, "get_field"), (oracle, "count_points")]
    for module, attr in replaced:
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = spans.Tracer()
    spans.install(tracer)
    # A cold plan cache, so that the expansions solve their congruences.
    frobenius.target_plan.cache_clear()

    # y^2 = x^3 + 2x + 6 over F_13
    prob = Problem(p=13, a=1, hbar=(0, 1), n=2, mode="affine",
                   terms=[((3, 0), (1,)), ((1, 0), (2,)), ((0, 0), (6,)),
                          ((0, 2), (12,))])
    zf = compute_zeta(prob).zeta
    verify_against_oracle(prob, zf, 2)

    summary = spans.summarize(tracer)
    assert summary["frobenius.expand"]["terms"] > 0
    assert summary["frobenius.congruence"]["solutions"] > 0
    assert summary["jacobian.build"]["basis_v"] == zf.v
    assert summary["oracle.count"]["points"] > 0
