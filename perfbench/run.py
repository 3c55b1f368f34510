"""dworkzeta benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload small-p --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports ``src/dworkzeta``.  It
runs whole passes over the workload's seeded problem list, each pass in a
fresh single-threaded process (``worker.py``), for about ``--seconds``.
Every answer is checked against the enumeration oracle, against the pinned
outputs in ``pins.json`` where the problem has a pin, and against the same
problem's answer in the other passes.

The end-to-end timings are scaled to a fixed host speed, by a probe that the
worker times around each problem (see ``scaled``); the unscaled times go to
the run record.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of stdout is one JSON object; a readable table goes to stderr and a
run record (plus the spans of a traced run) to ``.perfbench_out/``.  ``--pin``
(re)writes the pins of the problems this run solved, once each has matched
the oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170
# The host speed the timings are scaled to: seconds on a host where one
# worker.probe() takes this long (about its time on a quiet 2-vCPU VM).
PROBE_REF_S = 0.020
# Snapshot skips what building and running leave behind.
SKIP_DIRS = {".git", OUT_DIR, ".bench_build", "__pycache__", ".pytest_cache"}
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def snapshot(root: str) -> dict:
    """sha256 of every source file under root, to detect a run changing one."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def git_rev(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Starts worker processes and keeps the wall-clock limit of the run."""

    def __init__(self, root: str, args):
        self.root, self.args = root, args
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.t_start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)

    def worker(self, *extra: str) -> tuple[dict, float]:
        """Run one worker; returns its output and its set-up time, scaled
        by the probe the worker times right after set-up (see `scaled`)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", self.root, "--workload", self.args.workload,
               "--seed", str(self.args.seed), *extra]
        left = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        if left <= 0:
            raise BenchError("the run used up its time limit")
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("a pass overran the run's time limit") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"worker exited with code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        return out, (out["t_first"] - launched) * PROBE_REF_S / out["probe_s"]

    def passes(self, seconds: float, trace: bool = False) -> tuple[list, list]:
        """Whole passes for about `seconds`: one more starts only while it is
        expected, at the mean pass time so far, to end in time.  At least one;
        with trace, untraced and traced passes alternate, at least one each,
        so both see the same host conditions.  A traced pass's output is
        marked "traced".
        """
        outs, setups = [], []
        t0 = time.monotonic()
        while len(outs) < 1 + trace or (time.monotonic() - t0) * (
                len(outs) + 1) <= seconds * len(outs):
            traced = trace and len(outs) % 2 == 1
            extra = []
            if traced:
                extra = ["--trace", "--spans", os.path.join(
                    self.root, OUT_DIR, f"spans-{self.tag}-pass{len(outs)}.jsonl")]
            out, setup = self.worker(*extra)
            out["traced"] = traced
            outs.append(out)
            setups.append(setup)
        return outs, setups


def check(records: list, pins: dict) -> list:
    """Failure messages: errors, pin mismatches, disagreement between passes.

    One message per failed record."""
    failures, seen = [], {}
    for rec in records:
        tag = f"{rec['label']} [{rec['key']}]"
        if "error" in rec:
            failures.append(f"{tag}: {rec['error']}")
            continue
        got = {k: rec[k] for k in ("numerator", "denominator", "matrix_sha256")}
        pin = pins.get(rec["key"])
        if pin is not None and any(pin[k] != v for k, v in got.items()):
            failures.append(f"{tag}: output differs from its pin")
        elif seen.setdefault(rec["key"], got) != got:
            failures.append(f"{tag}: output differs between passes")
    return failures


def best(outs: list, key: str) -> dict:
    """Per problem, the record of the pass where it ran fastest by key."""
    out: dict = {}
    for o in outs:
        for rec in o["records"]:
            if "error" not in rec and (rec["key"] not in out
                                       or rec[key] < out[rec["key"]][key]):
                out[rec["key"]] = rec
    return out


def scaled(outs: list, key: str) -> dict:
    """Per problem, the median over the passes of its `key` time scaled to
    the reference host speed: time * PROBE_REF_S / probe_s.

    Other tenants slow this kind of shared host by up to about 2x, for
    seconds to minutes at a time, and such a phase can last a whole run.
    The probe timed around each problem slows with the host, so scaling by
    it removes most of that swing; the median drops what is left of it in
    a single pass.
    """
    per: dict = {}
    for o in outs:
        for rec in o["records"]:
            if "error" not in rec:
                per.setdefault(rec["key"], []).append(
                    rec[key] * PROBE_REF_S / rec["probe_s"])
    return {k: statistics.median(v) for k, v in per.items()}


def end_to_end(outs: list, setups: list) -> dict:
    solve = list(scaled(outs, "solve_s").values())
    verify = list(scaled(outs, "verify_s").values())
    return {
        "solve_s.p50": (statistics.median(solve), "s"),
        "problems_per_s": (len(solve) / sum(solve), "1/s"),
        "verify_s.mean": (sum(verify) / len(verify), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in outs), "MB"),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Per-layer means per problem, from each problem's fastest traced pass."""
    solves = list(best(traced, "solve_s").values())
    verifies = list(best(traced, "verify_s").values())

    def mean(recs, name, key="self"):
        return sum(r["spans"].get(name, {}).get(key, 0.0)
                   for r in recs) / len(recs)

    def get(name, key="self"):
        return mean(solves, name, key)

    untraced_s = sum(r["solve_s"] for r in best(untraced, "solve_s").values())
    builds = get("jacobian.build", "calls")
    return {
        "reduction.s": (get("reduction.reduce"), "s"),
        "reduction.columns": (get("reduction.reduce", "calls"), "count"),
        "jacobian.s": (get("jacobian.build"), "s"),
        "jacobian.structural_s": (get("jacobian.structural"), "s"),
        "jacobian.builds": (builds, "count"),
        "jacobian.basis_v": (get("jacobian.build", "basis_v") / builds
                             if builds else 0.0, "count"),
        "splitting.s": (get("splitting.series"), "s"),
        "splitting.cold_calls": (get("splitting.series", "cold_calls"),
                                 "count"),
        "splitting.coefficients": (get("splitting.series", "coefficients"),
                                   "count"),
        "frobenius.s": (get("frobenius.expand") + get("frobenius.congruence")
                        + get("frobenius.support"), "s"),
        "frobenius.congruence_solutions": (
            get("frobenius.congruence", "solutions"), "count"),
        "frobenius.terms": (get("frobenius.expand", "terms"), "count"),
        "oracle.s": (mean(verifies, "oracle.verify", "wall"), "s"),
        "oracle.field_s": (mean(verifies, "oracle.field"), "s"),
        "oracle.points": (mean(verifies, "oracle.count", "points"), "count"),
        "oracle.points_per_s": (mean(verifies, "oracle.count", "points")
                                / mean(verifies, "oracle.count"), "1/s"),
        "padic.ring_s": (get("padic.ring"), "s"),
        "padic.lift_s": (get("padic.lift"), "s"),
        "polytope.s": (get("polytope.hull") + get("polytope.confine"), "s"),
        "zeta.charpoly_s": (get("zeta.charpoly"), "s"),
        "zeta.lift_s": (get("zeta.lift"), "s"),
        "pipeline.other_s": (get("pipeline.solve") + get("pipeline.structural"),
                             "s"),
        "pipeline.retries": (get("splitting.series", "calls") - 1, "count"),
        "pipeline.N_used": (statistics.mean(r["N_used"] for r in solves),
                            "count"),
        "trace.overhead": (sum(r["solve_s"] for r in solves) / untraced_s,
                           "ratio"),
    }


def layer_shares(rec: dict) -> dict:
    """Share of a traced solve's self time per layer."""
    out: dict = {}
    for name, row in rec["spans"].items():
        layer = name.split(".")[0]
        if name != "jacobian.structural" and layer != "oracle":
            out[layer] = out.get(layer, 0.0) + row["self"]
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def per_problem(untraced: list, traced: list) -> list:
    """One row per problem: its shape, v, N_used, best and scaled untraced
    timings and the layer shares of its fastest traced solve."""
    solve, verify = best(untraced, "solve_s"), best(untraced, "verify_s")
    solve_scaled = scaled(untraced, "solve_s")
    verify_scaled = scaled(untraced, "verify_s")
    traced_solve = best(traced, "solve_s")
    rows = []
    for key, rec in solve.items():
        row = {k: rec[k] for k in ("label", "key", "p", "a", "n", "mode", "r",
                                   "v", "N_used", "solve_s")}
        row["verify_s"] = verify[key]["verify_s"]
        row["solve_scaled_s"] = solve_scaled[key]
        row["verify_scaled_s"] = verify_scaled[key]
        if key in traced_solve:
            row["layers"] = layer_shares(traced_solve[key])
        rows.append(row)
    return rows


def report(args, problems: list, metrics: dict) -> None:
    """Readable table on stderr."""
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
          file=err)
    for row in problems:
        line = (f"  {row['label']:<16} p={row['p']:<3} a={row['a']} "
                f"n={row['n']} {row['mode']:<10} v={row['v']} "
                f"N={row['N_used']:<2} r={row['r']}  "
                f"solve {row['solve_s']:.3f} s  verify {row['verify_s']:.4f} s"
                f"  scaled {row['solve_scaled_s']:.3f} s, "
                f"{row['verify_scaled_s']:.4f} s")
        if "layers" in row:
            top = sorted(row["layers"].items(), key=lambda kv: -kv[1])[:2]
            line += "  " + ", ".join(f"{k} {v:.0%}" for k, v in top)
        print(line, file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("small-p", "curve-sweep", "large-p"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="write the pins of this run's problems to pins.json")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dworkzeta", "pipeline.py")):
        print(f"{root} holds no src/dworkzeta: run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(PINS) as fh:
        pins = json.load(fh)
    before = snapshot(root)
    runner = Runner(root, args)
    try:
        outs, setups = runner.passes(args.seconds, trace=bool(args.trace))
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(runner.worker("--setup-only")[1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    untraced = [o for o in outs if not o["traced"]]
    traced = [o for o in outs if o["traced"]]
    records = [r for o in outs for r in o["records"]]
    failures = check(records, {} if args.pin else pins)
    after = snapshot(root)
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k))
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if not any("error" not in r for o in (traced or untraced)
               for r in o["records"]):
        print("benchmark failed: no problem was solved", file=sys.stderr)
        return 1
    problems = per_problem(untraced, traced)
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setups)
    solves = [r["solve_s"] for o in untraced for r in o["records"]
              if "error" not in r]
    extra = {"samples.solve": (len(solves), "count"),
             "probe_s.p50": (statistics.median(
                 r["probe_s"] for o in untraced for r in o["records"]), "s")}
    if len(solves) >= 100:
        # p90 only where at least ten samples lie beyond it
        extra["solve_s.p90"] = (statistics.quantiles(solves, n=10)[-1], "s")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_rev": git_rev(root),
        "python": outs[0]["python"], "numpy": outs[0]["numpy"],
        "nproc": os.cpu_count(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"solve": len(solves), "setup": len(setups)},
        "metrics": {k: v for k, (v, _u) in {**metrics, **extra}.items()},
        "problems": problems, "failures": failures, "changed_files": changed,
    }
    with open(os.path.join(root, OUT_DIR, f"record-{runner.tag}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    report(args, problems, {**metrics, **extra})
    if changed:
        print(f"FAIL the run changed files: {changed}", file=sys.stderr)

    if args.pin and not failures and not changed:
        for rec in records:
            pins[rec["key"]] = {"label": rec["label"], **{
                k: rec[k] for k in ("numerator", "denominator",
                                    "matrix_sha256")}}
        with open(PINS, "w") as fh:
            json.dump(dict(sorted(pins.items())), fh, indent=1)
            fh.write("\n")

    correct = not failures and not changed
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
