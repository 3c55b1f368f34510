"""One pass over a workload's problems, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins with the
interpreter, ``import dworkzeta`` and cold program caches, as a batch job
does.  For each problem it times ``compute_zeta(prob, emit_matrix=True)`` and
``verify_against_oracle`` and prints one JSON object on stdout: the
per-problem outputs and timings (with ``--trace``, also the problem's spans
summed by name), the time of the first timed call (for the set-up time) and
the peak RSS.

Before the first problem and after each one, the pass times ``probe()``, a
fixed piece of pure-Python work that shares no code with dworkzeta.  Each
record carries the geometric mean of the two probes around it, so that
``run.py`` can scale the problem's timings to a fixed host speed.

    python3 perfbench/worker.py --root . --workload small-p --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time

# The probe: echelon form of a fixed 64 x 64 matrix modulo a prime, the
# row operations on lists of Python ints that dominate a dworkzeta solve.
PROBE_P = 1000003
_rng = random.Random(20260101)
PROBE_MATRIX = [[_rng.randrange(PROBE_P) for _ in range(64)]
                for _ in range(64)]


def probe() -> float:
    """Wall seconds of one run of the probe's fixed work."""
    t0 = time.perf_counter()
    rows = [row[:] for row in PROBE_MATRIX]
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, PROBE_P)
        top = [x * inv % PROBE_P for x in rows[c]]
        rows[c] = top
        for i in range(c + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % PROBE_P for x, y in zip(rows[i], top)]
    return time.perf_counter() - t0


def problem_key(prob) -> str:
    """Stable id of a problem's inputs, used to look up its pinned outputs."""
    fields = [prob.p, prob.a, list(prob.hbar), prob.n, prob.mode,
              [[list(nu), list(c)] for nu, c in prob.terms], prob.confine]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def matrix_digest(matrix) -> str:
    return hashlib.sha256(
        json.dumps(matrix, separators=(",", ":")).encode()).hexdigest()


def run_case(pipeline, tracer, spans, label, prob, r) -> dict:
    rec = {"label": label, "key": problem_key(prob), "p": prob.p,
           "a": prob.a, "n": prob.n, "mode": prob.mode, "r": r}

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    # The package's error types and any defect inside it count as a failed
    # problem; the pass goes on with the next one.
    try:
        lo = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        res = call("pipeline.solve", pipeline.compute_zeta, prob,
                   emit_matrix=True)
        t1 = time.perf_counter()
        zf = res.zeta
        rec.update(solve_s=t1 - t0, v=zf.v, N_used=zf.N_used,
                   numerator=zf.numerator, denominator=zf.denominator,
                   matrix_sha256=matrix_digest(res.matrix))
        t2 = time.perf_counter()
        call("oracle.verify", pipeline.verify_against_oracle, prob, zf, r)
        rec["verify_s"] = time.perf_counter() - t2
        if tracer:
            rec["spans"] = spans.summarize(tracer, lo)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed problem
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first timed call would start")
    ap.add_argument("--spans", help="write the trace's spans here (JSON lines)")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import dworkzeta
    from dworkzeta import pipeline

    if not os.path.abspath(dworkzeta.__file__).startswith(src + os.sep):
        print(f"dworkzeta imported from {dworkzeta.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    cases = workloads.generate(args.workload, args.seed)
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first, "probe_s": probe()}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    records = []
    before = first_probe = probe()
    for label, prob, r in cases:
        rec = run_case(pipeline, tracer, spans, label, prob, r)
        after = probe()
        rec["probe_s"] = (before * after) ** 0.5
        records.append(rec)
        before = after

    import numpy
    out = {"t_first": t_first, "probe_s": first_probe, "records": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "python": platform.python_version(), "numpy": numpy.__version__}
    if tracer and args.spans:
        with open(args.spans, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
