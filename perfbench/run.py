"""Benchmark driver for cmwitness.

Run from the root of a checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload golden_corpus --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload's fixed traced work, wrapping the
package's public functions from outside, and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is
false whenever an operation failed, and that is the gate.  Times are
scaled to the reference host speed (``calib.py``); the unscaled values
are in the ``info`` line before it.  Everything the run writes goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

import calib
import harness
from tracer import GCD_Z_UNIT, POLYFRACTION_INIT, Tracer

OUT_DIR = ".bench_out"

# Per-layer metrics: (name, unit, span or counter, field).  Counts and
# times are per pair: per report, plus per row where the sweep is part
# of the workload's primary work.
PER_LAYER = (
    ("gcd.gcd_z.calls", "count", "gcd.gcd_z", "calls"),
    ("gcd.gcd_z.unit_ratio", "ratio", "gcd.gcd_z", "unit_ratio"),
    ("gcd.gcd_z.self_ms", "ms", "gcd.gcd_z", "self"),
    ("linalg.PolyFraction.constructions", "count", POLYFRACTION_INIT, "counter"),
    ("linalg.solve_fraction_system.calls", "count", "linalg.solve_fraction_system", "calls"),
    ("linalg.solve_fraction_system.self_ms", "ms", "linalg.solve_fraction_system", "self"),
    ("algebra.span_closure_check.ms", "ms", "algebra.span_closure_check", "incl"),
    ("classifier.build_R.ms", "ms", "classifier.build_R", "incl"),
    ("algebra.express_in_span.calls", "count", "algebra.express_in_span", "calls"),
    ("algebra.express_in_span.ms", "ms", "algebra.express_in_span", "incl"),
    ("linalg.poly_det.calls", "count", "linalg.poly_det", "calls"),
    ("linalg.bareiss_rank.calls", "count", "linalg.bareiss_rank", "calls"),
    ("linalg.fraction_kernel.calls", "count", "linalg.fraction_kernel", "calls"),
    ("algebra.k_mul.calls", "count", "algebra.k_mul", "calls"),
    ("algebra.k_mul.self_ms", "ms", "algebra.k_mul", "self"),
    ("classifier.build_small_cm_certificate.ms", "ms", "classifier.build_small_cm_certificate", "incl"),
    ("predicates.in_S2wedge4.calls", "count", "predicates.in_S2wedge4", "calls"),
    ("predicates.in_S2wedge4.self_ms", "ms", "predicates.in_S2wedge4", "self"),
    ("predicates.decompose_S2.calls", "count", "predicates.decompose_S2", "calls"),
    ("predicates.ideal_Q_classify.calls", "count", "predicates.ideal_Q_classify", "calls"),
    ("classifier.q_shape.calls", "count", "classifier.q_shape", "calls"),
    ("gcd.gcd_many_q.calls", "count", "gcd.gcd_many_q", "calls"),
    ("gcd.gcd_q.self_ms", "ms", "gcd.gcd_q", "self"),
    ("gcd.is_ring_square.self_ms", "ms", "gcd.is_ring_square", "self"),
    ("predicates.is_squarefree.self_ms", "ms", "predicates.is_squarefree", "self"),
    ("predicates.satisfies_A1.self_ms", "ms", "predicates.satisfies_A1", "self"),
    ("predicates.degree_four_check.self_ms", "ms", "predicates.degree_four_check", "self"),
    ("algebra.make_algebra.ms", "ms", "algebra.make_algebra", "incl"),
    ("classifier.classify.ms", "ms", "classifier.classify", "incl"),
    ("classifier.conductor.ms", "ms", "classifier.conductor", "incl"),
    ("classifier.presentation_complex.ms", "ms", "classifier.presentation_complex", "incl"),
    ("homology.be_exactness_check.ms", "ms", "homology.be_exactness_check", "incl"),
    ("homology.check_composition_zero.ms", "ms", "homology.check_composition_zero", "incl"),
    ("homology.standard_grade_certificates.ms", "ms", "homology.standard_grade_certificates", "incl"),
    ("report.parse_job.ms", "ms", "report.parse_job", "incl"),
    ("report.assemble_report.ms", "ms", "report.assemble_report", "incl"),
    ("report.assemble_report.self_ms", "ms", "report.assemble_report", "self"),
    ("report.render_json.ms", "ms", "report.render_json", "incl"),
    ("linalg.f2_nullspace.calls", "count", "linalg.f2_nullspace", "calls"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cmwitness benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(args, out_dir: Path, tag: str, repeats: int):
    """Import the package and build the inputs ``repeats`` times; keep the last.

    Returns the median set-up time, scaled by the calibration bursts
    between set-ups, and unscaled.
    """
    clock = calib.HostClock()
    clock.burst()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        pkg = harness.Package()
        plan = harness.WORKLOADS[args.workload](pkg, args.seed, out_dir, tag)
        samples.append((t0, time.perf_counter() - t0))
        clock.burst()
    scaled = [s * clock.scale(t0, t0 + s) for t0, s in samples]
    return pkg, plan, statistics.median(scaled), statistics.median(harness.raw_times(samples))


def layer_metrics(plan, run, tracer: Tracer, ids, overhead: float) -> Dict[str, Tuple[float, str]]:
    primary_ids = [uid for name in plan.primary for uid in ids[name]]
    pairs = 0
    rejected = 0
    for name in plan.primary:
        pairs += run.rows if name == "sweep" else len(ids[name])
        rejected += run.rejected[name]
    stats = tracer.aggregate(primary_ids)
    out: Dict[str, Tuple[float, str]] = {}
    for metric, unit, source, kind in PER_LAYER:
        s = stats.get(source, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        if kind == "calls":
            value = s["calls"] / pairs
        elif kind == "incl":
            value = s["incl_ns"] / 1e6 / pairs
        elif kind == "self":
            value = s["self_ns"] / 1e6 / pairs
        elif kind == "counter":
            value = tracer.count(source, primary_ids) / pairs
        else:  # unit_ratio
            value = tracer.count(GCD_Z_UNIT, primary_ids) / s["calls"] if s["calls"] else 0.0
        out[metric] = (value, unit)
    out["predicates.rejected_ratio"] = (rejected / pairs, "ratio")
    all_ids = [uid for uids in ids.values() for uid in uids]
    every = tracer.aggregate(all_ids)
    sweep = every.get("cli.cmd_sweep", {"self_ns": 0})
    out["cli.cmd_sweep.self_ms_per_row"] = (sweep["self_ns"] / 1e6 / max(run.rows, 1), "ms")
    regress = every.get("cli.cmd_regress", {"calls": 0, "incl_ns": 0})
    out["cli.cmd_regress.ms"] = (regress["incl_ns"] / 1e6 / max(regress["calls"], 1), "ms")
    out["trace.pairs"] = (pairs, "count")
    out["trace.overhead_reports_per_s"] = (overhead, "1/s")
    return out


def run_traced(args, out_dir: Path, tag: str):
    """Fixed work twice: traced (counts, spans), then untraced (overhead)."""
    pkg, plan, _, _ = timed_setups(args, out_dir, tag, 1)
    tracer = Tracer()
    run = harness.new_run(pkg, plan)
    run.on_unit = lambda uid: setattr(tracer, "request_id", uid)
    tracer.install()
    try:
        ids = harness.run_fixed(plan, run)
    finally:
        tracer.uninstall()
    plain_plan = harness.WORKLOADS[args.workload](pkg, args.seed, out_dir, tag)
    plain = harness.new_run(pkg, plain_plan)
    harness.run_fixed(plain_plan, plain)

    def rps(r):
        lat = harness.raw_times(r.latencies["reports"])
        return len(lat) / sum(lat)

    metrics = layer_metrics(plan, run, tracer, ids, rps(run) - rps(plain))
    tracer.dump(str(out_dir / ("trace-%s.jsonl" % tag)))
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.errors.extend(plain.errors)
    return plan, run, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cmwitness" / "__init__.py").is_file():
        print("perfbench: no src/cmwitness here; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    unscaled = None
    if args.trace:
        plan, run, metrics = run_traced(args, out_dir, tag)
    else:
        pkg, plan, setup_s, setup_raw = timed_setups(args, out_dir, tag, harness.SETUP_REPEATS)
        run = harness.new_run(pkg, plan)
        harness.run_timed(plan, run, args.seconds)
        rss = peak_rss_mb()
        metrics = harness.e2e_metrics(run, run.scaled, setup_s, rss)
        unscaled = harness.e2e_metrics(run, harness.raw_times, setup_raw, rss)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    info.update(harness.info_block(plan, run))
    if unscaled is not None:
        info["unscaled_metrics"] = {k: v for k, (v, _unit) in unscaled.items()}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / ("result-%s.json" % tag)).write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    for scratch in ("family-%s.json" % tag, "rows-%s.csv" % tag):
        (out_dir / scratch).unlink(missing_ok=True)
    for error in run.errors:
        print("FAIL " + error, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
