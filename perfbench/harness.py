"""Workloads, streams, output checks and metrics of the cmwitness benchmark.

A run is a closed loop with one client and no threads.  Each workload
is a set of streams; a stream turns one unit of work (one report, one
``cmd_regress()`` call or one ``cmd_sweep`` call) into a timed sample
and checks its output outside the timed region.  The scheduler always
runs the stream that has used the smallest share of its time budget, so
streams interleave and host noise spreads evenly over them.  Between
units, calibration bursts (``calib.py``) measure the host's speed, and
every sample is scaled by the speed measured around it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import calib
import casegen
import sweepfam

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
DEFAULT_SEED = sweepfam.DEFAULT_SEED

GOLDEN_NAMES = (
    "example_2_10",
    "example_3_2",
    "example_4_7_family1",
    "example_4_7_family2",
    "case_b_synthetic",
    "case_c_cm_synthetic",
)
SHAPE_FOR_CASE = {
    casegen.C_CM: ("TwoGenerated", "UnitIdeal"),
    casegen.C_GRADE3: ("Grade3CI_NotTwoGen",),
    casegen.C_GRADE2: ("Grade2Pd3",),
}
NON_CM_CASES = (casegen.C_GRADE3, casegen.C_GRADE2)

REPORT_MIN = 100  # p90 needs at least ten samples beyond it

# Family report times cluster by tag, cheapest first: rejections and
# OutsideScope, CaseA_one, CaseB, then CaseA_both and grade 3.  Three
# CaseB reports per turn put the median inside the CaseB cluster
# instead of in the gap next to it.
FAMILY_WEIGHTS = {"CaseB_productNotS2w4": 3}
SETUP_REPEATS = 15


# ---------------------------------------------------------------------------
# package import


class Package:
    """The freshly imported cmwitness modules a run calls into."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "cmwitness" or m.startswith("cmwitness.")]:
            del sys.modules[name]
        importlib.import_module("cmwitness")
        self.cli = importlib.import_module("cmwitness.cli")
        self.report = importlib.import_module("cmwitness.report")
        self.poly = importlib.import_module("cmwitness.poly")
        self.errors = importlib.import_module("cmwitness.errors")
        self.internal_errors = self.cli.INTERNAL_ERRORS

    def outcome_of_rejection(self, exc: Exception) -> Optional[str]:
        """The sweep's row tag for an expected rejection, else None."""
        e = self.errors
        if isinstance(exc, e.HypothesisViolationError):
            return "rejected_" + exc.predicate
        if isinstance(exc, e.ZeroInputError):
            return "rejected_zero_input"
        if isinstance(exc, e.UnsupportedError):
            return "rejected_unsupported"
        return None


# ---------------------------------------------------------------------------
# output checks


def check_report(rep: Dict[str, object]) -> Optional[str]:
    """Every verification flag a report carries must hold."""
    case = rep["case"]
    if case == casegen.OUTSIDE:
        return None if rep["cm"] is None else "cm verdict outside scope"
    pres = rep["ring_presentation"]
    if pres["case"] != case or pres["cm_verdict"] != rep["cm"]:
        return "presentation disagrees with the case tag"
    shapes = SHAPE_FOR_CASE.get(case)
    if shapes is not None and rep["q_shape"]["tag"] not in shapes:
        return "q_shape %s does not fit %s" % (rep["q_shape"]["tag"], case)
    cond = rep["conductor"]
    if cond["available"] and not cond["verified"]:
        return "conductor not verified"
    if "j_datum" in cond and cond["j_datum"]["verified_R_subset_J_star"] is not True:
        return "J datum not verified"
    cert = rep["certificate"]
    if (cert is not None) != (case in NON_CM_CASES):
        return "certificate presence does not fit %s" % case
    if cert is not None and not (cert["all_pass"] and all(cert["checks"].values())):
        return "certificate check failed"
    if case in NON_CM_CASES and len(rep["resolutions"]) != 3:
        return "missing resolutions"
    if not all(block["verified"] for block in rep["resolutions"]):
        return "resolution not verified"
    return None


# ---------------------------------------------------------------------------
# streams


@dataclass
class Job:
    label: str
    job: Dict[str, object]
    # check(outcome, text, report) -> error message or None
    check: Callable[[str, Optional[str], Optional[dict]], Optional[str]]


@dataclass
class Stream:
    name: str
    share: float
    min_units: int
    step: Callable[["Run"], None]
    spent: float = 0.0
    units: int = 0


# A timed sample: (start, seconds), both from time.perf_counter().
Sample = Tuple[float, float]


@dataclass
class Run:
    """Samples, outcomes and failures collected by one run."""

    pkg: Package
    clock: Optional[calib.HostClock] = None  # set for timed runs only
    latencies: Dict[str, List[Sample]] = field(default_factory=dict)
    by_label: Dict[str, List[Sample]] = field(default_factory=dict)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    outcomes: Dict[str, List[str]] = field(default_factory=dict)
    rejected: Counter = field(default_factory=Counter)
    digests: Dict[str, "hashlib._Hash"] = field(default_factory=dict)
    prefix_digests: Dict[str, "hashlib._Hash"] = field(default_factory=dict)
    units: Counter = field(default_factory=Counter)
    prefix_left: Dict[str, int] = field(default_factory=dict)
    on_unit: Optional[Callable[[int], None]] = None

    def sample(self, stream: str, start: float, seconds: float, label: Optional[str] = None) -> None:
        self.latencies.setdefault(stream, []).append((start, seconds))
        if label is not None:
            self.by_label.setdefault(label, []).append((start, seconds))

    def scaled(self, samples: List[Sample]) -> List[float]:
        """Sample times at the reference host speed (``calib``)."""
        return [s * self.clock.scale(t0, t0 + s) for t0, s in samples]

    def verdict(self, stream: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("%s: %s" % (stream, error))

    def record(self, stream: str, outcome: str, payload: str) -> None:
        """Feed the digest of all outputs, and the prefix digest and tag
        histogram from a stream's first units, whose number is fixed per
        workload and so comparable between runs of any length."""
        data = payload.encode() + b"\0"
        self.digests.setdefault(stream, hashlib.sha256()).update(data)
        self.units[stream] += 1
        if self.prefix_left.get(stream, 0) <= 0:
            return
        self.prefix_left[stream] -= 1
        self.prefix_digests.setdefault(stream, hashlib.sha256()).update(data)
        self.outcomes.setdefault(stream, []).append(outcome)


def report_step(stream: str, jobs: Iterator[Job]) -> Callable[[Run], None]:
    """One request: parse_job -> assemble_report -> render_json."""

    def step(run: Run) -> None:
        item = next(jobs)
        rp = run.pkg.report
        text = rep = None
        t0 = time.perf_counter()
        try:
            ring, f, g, options = rp.parse_job(item.job)
            rep = rp.assemble_report(ring, f, g, options)
            text = rp.render_json(rep)
            elapsed = time.perf_counter() - t0
            outcome = rep["case"]
        except run.pkg.internal_errors as exc:
            elapsed = time.perf_counter() - t0
            outcome = "internal_error:%s" % type(exc).__name__
        except Exception as exc:  # every exception is counted, none ends the run
            elapsed = time.perf_counter() - t0
            outcome = run.pkg.outcome_of_rejection(exc) or "exception:%s:%s" % (
                type(exc).__name__,
                exc,
            )
        run.sample(stream, t0, elapsed, item.label)
        if outcome.startswith("rejected_"):
            run.rejected[stream] += 1
        if outcome.startswith(("internal_error:", "exception:")):
            error = outcome
        else:
            error = item.check(outcome, text, rep)
        run.verdict(stream, None if error is None else "%s: %s" % (item.label, error))
        run.record(stream, outcome, text if text is not None else outcome)

    return step


def long_call(run: Run, fn: Callable, *args) -> Tuple[object, float, float]:
    """Call ``fn``; return its result, start time and seconds.

    In a timed run the host clock bursts during the call, and the
    bursts' time is taken out of the call's.
    """
    if run.clock is None:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, t0, time.perf_counter() - t0
    with run.clock.sampling():
        busy = run.clock.busy
        t0 = time.perf_counter()
        result = fn(*args)
        return result, t0, time.perf_counter() - t0 - (run.clock.busy - busy)


def regress_step(run: Run) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code, t0, elapsed = long_call(run, run.pkg.cli.cmd_regress)
    text = out.getvalue()
    run.sample("regress", t0, elapsed)
    ok = code == 0 and text.rstrip().endswith("regress: 8/8 green")
    run.verdict("regress", None if ok else "exit %d: %s" % (code, text[-200:]))
    run.record("regress", "exit_%d" % code, text)


Row = Tuple[str, str, str]  # (case, cm, q_shape) of one sweep row


@dataclass
class SweepTarget:
    spec: Dict[str, object]
    family_path: Path
    out_path: Path
    expected_rows: Dict[Tuple[int, ...], Row]  # by combination
    expected_csv: Optional[str]  # committed bytes, for the default seed


def sweep_step(target: SweepTarget) -> Callable[[Run], None]:
    combos = sweepfam.combinations(target.spec)
    header = ",".join(p["name"] for p in target.spec["parameters"]) + ",case,cm,q_shape"

    def step(run: Run) -> None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, t0, elapsed = long_call(
                run, run.pkg.cli.cmd_sweep, str(target.family_path), str(target.out_path)
            )
        run.sample("sweep", t0, elapsed)
        run.rows += len(combos)
        text = target.out_path.read_text(encoding="utf-8") if code == 0 else ""
        lines = list(csv.reader(io.StringIO(text)))
        error = None
        if code != 0:
            error = "exit %d: %s" % (code, err.getvalue()[-200:])
        elif len(lines) != len(combos) + 1 or ",".join(lines[0]) != header:
            error = "%d lines for %d combinations" % (len(lines), len(combos))
        elif target.expected_csv is not None and text != target.expected_csv:
            error = "CSV differs from the committed expected CSV"
        else:
            for combo, row in zip(combos, lines[1:]):
                if tuple(int(v) for v in row[:-3]) != combo:
                    error = "row %s out of order" % row
                elif tuple(row[-3:]) != target.expected_rows[combo]:
                    error = "row %s differs from the committed row %s" % (row, target.expected_rows[combo])
                if error is not None:
                    break
        run.verdict("sweep", error)
        tags = [row[-3] for row in lines[1:]]
        run.rejected["sweep"] += sum(t.startswith("rejected_") for t in tags)
        run.record("sweep", ",".join(sorted(set(tags))), text)
        if "sweep_tags" not in run.outcomes:
            run.outcomes["sweep_tags"] = tags

    return step


# ---------------------------------------------------------------------------
# inputs


def golden_jobs(pkg: Package) -> List[Tuple[str, Dict[str, object], str]]:
    gdir = Path(pkg.cli.GOLDEN_DIR)
    out = []
    for name in GOLDEN_NAMES:
        job = json.loads((gdir / (name + ".job.json")).read_text(encoding="utf-8"))
        frozen = (gdir / (name + ".report.json")).read_text(encoding="utf-8")
        out.append((name, job, frozen))
    return out


def cycle_goldens(goldens) -> Iterator[Job]:
    def check_bytes(frozen):
        return lambda outcome, text, rep: (
            None if text == frozen else "report differs from the golden copy"
        )

    jobs = [Job(name, job, check_bytes(frozen)) for name, job, frozen in goldens]
    while True:
        yield from jobs


def fresh_jobs(seed: int) -> Iterator[Job]:
    def check(allowed):
        def run_check(outcome, text, rep):
            if outcome not in allowed:
                return "tag %s, recipe allows %s" % (outcome, "/".join(allowed))
            return None if rep is None else check_report(rep)

        return run_check

    for n, (job, allowed) in enumerate(casegen.generate(seed)):
        yield Job("fresh_%d" % n, job, check(allowed))


def family_jobs(pkg: Package, target: SweepTarget, seed: int) -> Iterator[Job]:
    """Reports on family pairs, each sweep tag in turn (``FAMILY_WEIGHTS``).

    Each report must agree with the committed sweep row for its combination.
    """
    expected = target.expected_rows

    def check(combo):
        def run_check(outcome, text, rep):
            got = (outcome, "", "")
            if rep is not None:
                cm = rep["cm"]
                got = (
                    outcome,
                    "" if cm is None else ("true" if cm else "false"),
                    "" if rep["q_shape"] is None else rep["q_shape"]["tag"],
                )
            if got != expected[combo]:
                return "report gives %s, sweep row %s" % (got, expected[combo])
            return None if rep is None else check_report(rep)

        return run_check

    groups: Dict[str, List[Tuple[int, ...]]] = {}
    for combo in sweepfam.combinations(target.spec):
        groups.setdefault(expected[combo][0], []).append(combo)
    rng = random.Random(seed)
    for tag in groups:
        rng.shuffle(groups[tag])
    turn = [tag for tag in sorted(groups) for _ in range(FAMILY_WEIGHTS.get(tag, 1))]
    taken: Counter = Counter()
    while True:
        for tag in turn:
            combo = groups[tag][taken[tag] % len(groups[tag])]
            taken[tag] += 1
            yield Job("family", sweepfam.family_job(pkg.poly, target.spec, combo), check(combo))


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Plan:
    """A workload's streams, plus the fixed work of a traced run."""

    streams: List[Stream]
    primary: Tuple[str, ...]
    fixed: List[Tuple[str, int]]


def _sweep_target(out_dir: Path, seed: int, probe: bool, tag: str) -> SweepTarget:
    committed = json.loads((DATA / "sweep_family.json").read_text(encoding="utf-8"))
    if committed != sweepfam.generate(DEFAULT_SEED):
        raise RuntimeError("data/sweep_family.json is not generate(%d)" % DEFAULT_SEED)
    committed_csv = (DATA / "sweep_family.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(committed_csv)))[1:]
    committed_rows = {tuple(int(v) for v in row[:-3]): tuple(row[-3:]) for row in rows}
    spec = sweepfam.generate(seed, probe)
    family_path = out_dir / ("family-%s.json" % tag)
    family_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    expected_rows = {combo: committed_rows[combo] for combo in sweepfam.combinations(spec)}
    expected_csv = committed_csv if seed == DEFAULT_SEED and not probe else None
    return SweepTarget(spec, family_path, out_dir / ("rows-%s.csv" % tag), expected_rows, expected_csv)


def plan_golden_corpus(pkg: Package, seed: int, out_dir: Path, tag: str) -> Plan:
    goldens = golden_jobs(pkg)
    probe = _sweep_target(out_dir, seed, True, tag)
    return Plan(
        streams=[
            Stream("reports", 0.65, 17 * len(goldens), report_step("reports", cycle_goldens(goldens))),
            Stream("regress", 0.25, 3, regress_step),
            Stream("sweep", 0.10, 2, sweep_step(probe)),
        ],
        primary=("reports",),
        fixed=[("reports", 2 * len(goldens)), ("regress", 1), ("sweep", 1)],
    )


def plan_casegen_fresh(pkg: Package, seed: int, out_dir: Path, tag: str) -> Plan:
    goldens = golden_jobs(pkg)
    probe = _sweep_target(out_dir, seed, True, tag)
    return Plan(
        streams=[
            Stream("reports", 0.62, REPORT_MIN, report_step("reports", fresh_jobs(seed))),
            Stream("golden", 0.15, 3 * len(goldens), report_step("golden", cycle_goldens(goldens))),
            Stream("regress", 0.13, 3, regress_step),
            Stream("sweep", 0.10, 2, sweep_step(probe)),
        ],
        primary=("reports",),
        fixed=[("reports", 2 * len(casegen.CYCLE)), ("golden", len(goldens)), ("regress", 1), ("sweep", 1)],
    )


def plan_sweep_family(pkg: Package, seed: int, out_dir: Path, tag: str) -> Plan:
    goldens = golden_jobs(pkg)
    target = _sweep_target(out_dir, seed, False, tag)
    return Plan(
        streams=[
            Stream("sweep", 0.45, 2, sweep_step(target)),
            Stream("reports", 0.20, REPORT_MIN, report_step("reports", family_jobs(pkg, target, seed))),
            Stream("golden", 0.25, 3 * len(goldens), report_step("golden", cycle_goldens(goldens))),
            Stream("regress", 0.10, 3, regress_step),
        ],
        primary=("sweep", "reports"),
        fixed=[("sweep", 1), ("reports", 64), ("golden", len(goldens)), ("regress", 1)],
    )


WORKLOADS = {
    "golden_corpus": plan_golden_corpus,
    "sweep_family": plan_sweep_family,
    "casegen_fresh": plan_casegen_fresh,
}


# ---------------------------------------------------------------------------
# running


def new_run(pkg: Package, plan: Plan) -> Run:
    run = Run(pkg=pkg)
    for s in plan.streams:
        run.prefix_left[s.name] = s.min_units
    return run


def run_timed(plan: Plan, run: Run, seconds: float) -> None:
    """Closed loop until ``seconds`` pass and every stream has its minimum.

    Once a stream has its minimum, it starts no unit that would, at its
    mean unit time so far, end after the deadline.  A calibration burst
    runs before the first unit and after any unit that ends more than
    ``calib.INTERVAL_S`` after the last burst.
    """
    run.clock = calib.HostClock()
    deadline = time.perf_counter() + seconds
    run.clock.burst()
    while True:
        left = deadline - time.perf_counter()
        candidates = [s for s in plan.streams if s.units < s.min_units]
        if not candidates:
            candidates = [s for s in plan.streams if s.spent / s.units <= left]
        if not candidates:
            return
        stream = min(candidates, key=lambda s: s.spent / s.share)
        t0 = time.perf_counter()
        stream.step(run)
        stream.spent += time.perf_counter() - t0
        stream.units += 1
        run.clock.tick()


def run_fixed(plan: Plan, run: Run) -> Dict[str, List[int]]:
    """The plan's fixed work, interleaved; returns each stream's unit ids."""
    by_name = {s.name: s for s in plan.streams}
    left = dict(plan.fixed)
    ids: Dict[str, List[int]] = {name: [] for name in left}
    uid = 0
    while any(left.values()):
        for name in list(left):
            if left[name] == 0:
                continue
            if run.on_unit is not None:
                run.on_unit(uid)
            ids[name].append(uid)
            by_name[name].step(run)
            left[name] -= 1
            uid += 1
    return ids


def quantile_nearest_rank(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def raw_times(samples: List[Sample]) -> List[float]:
    return [seconds for _start, seconds in samples]


def e2e_metrics(
    run: Run,
    times: Callable[[List[Sample]], List[float]],
    setup_s: float,
    peak_rss_mb: float,
) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, with sample times taken through ``times``."""
    rep = times(run.latencies["reports"])
    out: Dict[str, Tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "reports_per_s": (len(rep) / sum(rep), "1/s"),
        "report_ms_p50": (statistics.median(rep) * 1e3, "ms"),
        "report_ms_p90": (quantile_nearest_rank(rep, 0.9) * 1e3, "ms"),
    }
    for name in GOLDEN_NAMES:
        out["golden_ms." + name] = (statistics.median(times(run.by_label[name])) * 1e3, "ms")
    out["regress_s"] = (statistics.median(times(run.latencies["regress"])), "s")
    out["sweep_rows_per_s"] = (run.rows / sum(times(run.latencies["sweep"])), "1/s")
    out["success_rate"] = (1.0 - run.failed / run.attempted, "ratio")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def _combined(digests: Dict[str, "hashlib._Hash"]) -> str:
    combined = hashlib.sha256()
    for name in sorted(digests):
        combined.update(name.encode() + b"=" + digests[name].hexdigest().encode())
    return combined.hexdigest()


def info_block(plan: Plan, run: Run) -> Dict[str, object]:
    hist = {}
    for stream in plan.primary:
        key = "sweep_tags" if stream == "sweep" else stream
        hist[stream] = dict(sorted(Counter(run.outcomes.get(key, [])).items()))
    return {
        "tag_histogram": hist,
        "output_digest": _combined(run.digests),
        "output_units": dict(sorted(run.units.items())),
        "prefix_digest": _combined(run.prefix_digests),
        "prefix_units": {s.name: s.min_units for s in plan.streams},
        "calibration_bursts": len(run.clock.cost) if run.clock else 0,
        "host_factor": run.clock.factor() if run.clock else None,
        "errors": run.errors,
    }
