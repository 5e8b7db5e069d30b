"""Tests of the benchmark itself: tracer transparency, count stability,
case coverage of the generator, the committed sweep family and the
host-speed scaling.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import casegen  # noqa: E402
import harness  # noqa: E402
import run as bench_run  # noqa: E402
import sweepfam  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced(workload: str, out_dir: Path):
    args = argparse.Namespace(workload=workload, seed=harness.DEFAULT_SEED, seconds=1.0, trace=1)
    return bench_run.run_traced(args, out_dir, "test")


def test_traced_golden_pass_is_byte_identical(tmp_path):
    pkg = harness.Package()
    plan = harness.plan_golden_corpus(pkg, harness.DEFAULT_SEED, tmp_path, "t")
    tracer = Tracer()
    run = harness.new_run(pkg, plan)
    run.on_unit = lambda uid: setattr(tracer, "request_id", uid)
    tracer.install()
    try:
        ids = harness.run_fixed(plan, run)
    finally:
        tracer.uninstall()
    # The report stream's check is a byte comparison with the frozen copy.
    assert len(ids["reports"]) == 2 * len(harness.GOLDEN_NAMES)
    assert run.failed == 0 and run.attempted == len(ids["reports"]) + 2
    assert tracer.aggregate(ids["reports"])["gcd.gcd_z"]["calls"] > 0


def test_tracer_rebinds_every_alias_and_restores():
    pkg = harness.Package()
    classifier = sys.modules["cmwitness.classifier"]
    predicates = sys.modules["cmwitness.predicates"]
    original = predicates.in_S2wedge4
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = predicates.in_S2wedge4
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert classifier.in_S2wedge4 is wrapped
        assert pkg.report.in_S2wedge4 is wrapped
    finally:
        tracer.uninstall()
    assert classifier.in_S2wedge4 is original and pkg.report.in_S2wedge4 is original


def test_traced_counts_repeat_exactly(tmp_path):
    for workload in ("golden_corpus", "casegen_fresh"):
        counts = []
        for _ in range(2):
            _plan, run, metrics = _traced(workload, tmp_path)
            assert run.failed == 0
            counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")})
        assert counts[0] == counts[1]
        assert counts[0]["gcd.gcd_z.calls"] > 0


def test_casegen_default_seed_reaches_every_tag():
    pkg = harness.Package()
    outcomes = set()
    for job, allowed in itertools.islice(casegen.generate(harness.DEFAULT_SEED), 2 * len(casegen.CYCLE)):
        try:
            rep = pkg.report.assemble_report(*pkg.report.parse_job(job))
            outcome = rep["case"]
            assert harness.check_report(rep) is None
        except pkg.errors.HypothesisViolationError as exc:
            outcome = "rejected_" + exc.predicate
        assert outcome in allowed
        outcomes.add(outcome)
    tags = set(sys.modules["cmwitness.classifier"].CASE_TAGS)
    assert tags <= outcomes
    assert set(casegen.BROKEN_OUTCOMES) <= outcomes


def test_committed_family_is_the_default_seed_family():
    committed = json.loads((BENCH / "data" / "sweep_family.json").read_text(encoding="utf-8"))
    assert committed == sweepfam.generate(sweepfam.DEFAULT_SEED)
    rows = (BENCH / "data" / "sweep_family.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + len(sweepfam.combinations(committed)) == 1 + 4096
    tags = {row.split(",")[4] for row in rows[1:]}
    assert len([t for t in tags if t.startswith("Case")]) >= 4
    assert "OutsideScope_not_S2" in tags
    assert any(t.startswith("rejected_") for t in tags)
    # Seeds only reorder the rows: every seed sweeps the same pairs.
    pairs = set(sweepfam.combinations(committed))
    probe = set(sweepfam.combinations(sweepfam.generate(sweepfam.DEFAULT_SEED, probe=True)))
    for seed in range(2, 6):
        assert set(sweepfam.combinations(sweepfam.generate(seed))) == pairs
        assert set(sweepfam.combinations(sweepfam.generate(seed, probe=True))) == probe
    assert len(probe) == 256 and probe <= pairs


def test_host_clock_scales_by_the_bursts_near_a_unit():
    clock = calib.HostClock()
    clock.at = [0.0, 0.05, 0.10, 5.0, 5.05]
    clock.cost = [2 * calib.REFERENCE_BURST_S] * 3 + [calib.REFERENCE_BURST_S / 2] * 2
    assert clock.scale(0.06, 0.07) == 0.5  # host at half speed around the unit
    assert clock.scale(5.01, 5.02) == 2.0
    # A long unit takes bursts within its own length on either side.
    assert clock.scale(1.0, 4.0) == calib.REFERENCE_BURST_S / statistics.median(clock.cost)
    assert calib.burst() > 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
