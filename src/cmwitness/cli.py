"""Command-line surface: classify, regress, and sweep.

Exit-code contract:
  0  success
  1  regression mismatch (regress only)
  2  input or hypothesis rejection (bad job file, parse error,
     squarefree/coprimality failure, oversized sweep, missing golden)
  3  internal verification failure: a structural identity the pipeline
     asserts did not hold, which signals a bug rather than bad input.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .classifier import (
    OUTSIDE_SCOPE,
    classify,
    example_2_10_identity,
    example_2_10_regression,
)
from .algebra import make_algebra
from .errors import (
    BoundTooLargeError,
    CaseConflictError,
    HypothesisViolationError,
    LiftInvalidError,
    MalformedSequenceError,
    MissingCertificateError,
    NotClosedError,
    InternalVerificationError,
    UnsupportedError,
    UnverifiedComplexError,
    WitnessMismatchError,
    WrongCaseError,
    ZeroInputError,
)
from .gcd import BothZeroError
from .linalg import DimensionMismatchError, SpanNotFreeError
from .poly import BaseRing, PolyParseError, parse_poly, substitute_ints
from .report import DEFAULT_OPTIONS, assemble_report, cm_verdict_for_tag, parse_job, render_json

__all__ = ["main", "cmd_classify", "cmd_regress", "cmd_sweep", "GOLDEN_NAMES"]

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_NAMES = (
    "example_2_10",
    "example_3_2",
    "example_4_7_family1",
    "example_4_7_family2",
    "case_b_synthetic",
    "case_c_cm_synthetic",
)

# Exceptions meaning "the input violates a hypothesis or is malformed".
REJECTION_ERRORS = (
    PolyParseError,
    HypothesisViolationError,
    ZeroInputError,
    UnsupportedError,
    BoundTooLargeError,
    ValueError,
    OSError,
)

# Exceptions meaning "an asserted identity failed": a bug, never bad input.
INTERNAL_ERRORS = (
    InternalVerificationError,
    NotClosedError,
    WitnessMismatchError,
    LiftInvalidError,
    MissingCertificateError,
    UnverifiedComplexError,
    CaseConflictError,
    WrongCaseError,
    MalformedSequenceError,
    SpanNotFreeError,
    DimensionMismatchError,
    BothZeroError,
)


def _reject(exc: Exception) -> int:
    reason = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, HypothesisViolationError):
        reason["predicate"] = exc.predicate
    print(json.dumps(reason), file=sys.stderr)
    return 2


def _internal(exc: Exception) -> int:
    reason = {"error": type(exc).__name__, "detail": str(exc)}
    print(json.dumps(reason), file=sys.stderr)
    return 3


def cmd_classify(job_path: str, out_path: Optional[str] = None) -> int:
    """Run the full pipeline on a job file; write or print the report."""
    try:
        with open(job_path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
        ring, f, g, options = parse_job(job)
        report = assemble_report(ring, f, g, options)
        text = render_json(report)
    except INTERNAL_ERRORS as exc:
        return _internal(exc)
    except REJECTION_ERRORS as exc:
        return _reject(exc)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _regress_one(name: str) -> Tuple[bool, str]:
    """Re-run one golden job and byte-compare against the frozen report."""
    job_file = GOLDEN_DIR / (name + ".job.json")
    golden_file = GOLDEN_DIR / (name + ".report.json")
    for path in (job_file, golden_file):
        if not path.is_file():
            raise FileNotFoundError("missing golden file: %s" % path)
    with open(job_file, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    ring, f, g, options = parse_job(job)
    fresh = render_json(assemble_report(ring, f, g, options))
    frozen = golden_file.read_text(encoding="utf-8")
    if fresh == frozen:
        return True, "%s: ok" % name
    # Point at the first divergent line so a diff is easy to act on.
    for i, (a, b) in enumerate(
        itertools.zip_longest(fresh.splitlines(), frozen.splitlines()), start=1
    ):
        if a != b:
            return False, "%s: mismatch at line %d: fresh=%r frozen=%r" % (name, i, a, b)
    return False, "%s: mismatch (length only)" % name


def cmd_regress() -> int:
    """Golden-file regression over the example corpus.

    Also re-checks the two hand identities that anchor the out-of-scope
    example: the exact polynomial identity with multiplier 4 holds and
    the perturbed multiplier-2 variant fails.
    """
    results: List[Tuple[bool, str]] = []
    try:
        for name in GOLDEN_NAMES:
            results.append(_regress_one(name))
        ring = BaseRing(("X", "Y", "V"))
        results.append(
            (example_2_10_regression(ring), "example_2_10_identity_model: ok")
        )
        results.append(
            (
                not example_2_10_identity(ring, multiplier=2),
                "example_2_10_perturbed_rejected: ok",
            )
        )
    except INTERNAL_ERRORS as exc:
        return _internal(exc)
    except REJECTION_ERRORS as exc:
        return _reject(exc)
    failures = 0
    for ok, message in results:
        if ok:
            print(message)
        else:
            failures += 1
            print("FAIL " + message)
    print("regress: %d/%d green" % (len(results) - failures, len(results)))
    return 0 if failures == 0 else 1


MAX_SWEEP_PAIRS = 4096


def _parse_family(spec: Dict[str, object]) -> Tuple[
    BaseRing, List[str], List[Sequence[int]], str, str
]:
    if not isinstance(spec, dict):
        raise ValueError("family spec must be a JSON object")
    for key in ("variables", "parameters", "f", "g"):
        if key not in spec:
            raise ValueError("family spec is missing the %r field" % key)
    variables = spec["variables"]
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise ValueError("variables must be a non-empty list of strings")
    names: List[str] = []
    value_lists: List[Sequence[int]] = []
    params = spec["parameters"]
    if not isinstance(params, list):
        raise ValueError("parameters must be a list")
    for entry in params:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError("each parameter needs a 'name'")
        name = entry["name"]
        if name in variables or name in names:
            raise ValueError("parameter name %r collides" % name)
        kind = "values" if "values" in entry else "range"
        if kind not in entry:
            raise ValueError("parameter %r needs 'values' or 'range'" % name)
        values = entry[kind]
        # type(), not isinstance: JSON true/false decode to bool, an int subclass.
        if not isinstance(values, list) or any(type(v) is not int for v in values):
            raise ValueError("%s of %r must be a list of integers" % (kind, name))
        if kind == "range":
            lo, hi = values
            values = range(lo, hi + 1)  # lazy: the pair-count guard runs first
        names.append(name)
        value_lists.append(values)
    ring = BaseRing(tuple(variables))
    return ring, names, value_lists, str(spec["f"]), str(spec["g"])


def cmd_sweep(family_path: str, out_path: str) -> int:
    """Classify every (f,g) pair of a parametric family into a CSV.

    Pairs rejected by the standing hypotheses get a
    ``rejected_<predicate>`` row instead of aborting the sweep, so one
    degenerate parameter choice does not hide the rest of the family.
    """
    try:
        with open(family_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        ring, names, value_lists, f_text, g_text = _parse_family(spec)
        total = 1
        for values in value_lists:
            total *= len(values)
        if total > MAX_SWEEP_PAIRS:
            raise BoundTooLargeError(
                "family enumerates %d pairs; limit is %d" % (total, MAX_SWEEP_PAIRS)
            )
        template_ring = BaseRing(tuple(ring.variables) + tuple(names))
        f_template = parse_poly(f_text, template_ring)
        g_template = parse_poly(g_text, template_ring)
        rows: List[List[str]] = []
        for combo in itertools.product(*value_lists):
            assignment = dict(zip(names, combo))
            f = substitute_ints(f_template, assignment, ring)
            g = substitute_ints(g_template, assignment, ring)
            row = [str(v) for v in combo]
            try:
                alg = make_algebra(ring, f, g)
                case = classify(alg)
            except HypothesisViolationError as exc:
                rows.append(row + ["rejected_" + exc.predicate, "", ""])
                continue
            except ZeroInputError:
                rows.append(row + ["rejected_zero_input", "", ""])
                continue
            except UnsupportedError:
                rows.append(row + ["rejected_unsupported", "", ""])
                continue
            cm = cm_verdict_for_tag(case)
            cm_text = "" if cm is None else ("true" if cm else "false")
            shape_text = "" if case == OUTSIDE_SCOPE else alg.q_shape.tag
            rows.append(row + [case, cm_text, shape_text])
    except INTERNAL_ERRORS as exc:
        return _internal(exc)
    except REJECTION_ERRORS as exc:
        return _reject(exc)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + ["case", "cm", "q_shape"])
        writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmwitness",
        description=(
            "Classify the integral closure of S[sqrt(f), sqrt(g)] over "
            "S = Z[x1..xn] localized at (2, x1..xn) and verify the "
            "certificates the classification rests on."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_classify = sub.add_parser("classify", help="classify one (f, g) job")
    p_classify.add_argument("--job", required=True, help="path to the job JSON file")
    p_classify.add_argument(
        "--out", default=None, help="write the report here instead of stdout"
    )
    sub.add_parser("regress", help="re-run the golden corpus and byte-compare")
    p_sweep = sub.add_parser("sweep", help="classify a parametric family into CSV")
    p_sweep.add_argument("--family", required=True, help="family spec JSON file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "classify":
        return cmd_classify(args.job, args.out)
    if args.command == "regress":
        return cmd_regress()
    if args.command == "sweep":
        return cmd_sweep(args.family, args.out)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
