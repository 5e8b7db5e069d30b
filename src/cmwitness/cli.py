"""Command-line surface: classify, regress, and sweep.

Exit-code contract:
  0  success
  1  regression mismatch (regress only)
  2  input or hypothesis rejection: a RejectedInputError (bad job or
     family file, parse error, squarefree/coprimality failure, oversized
     sweep) or an OSError (unreadable file, missing golden)
  3  anything else: an InternalError (a structural identity the pipeline
     asserts did not hold) or any other unexpected exception, which
     signals a bug rather than bad input.
Exits 2 and 3 print one JSON line on stderr naming the error, never a
traceback.
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
    cm_verdict,
    example_2_10_identity,
    example_2_10_regression,
)
from .algebra import AlgebraDesc, admit_input, admit_pair
from .errors import (
    BoundTooLargeError,
    HypothesisViolationError,
    InternalError,
    MalformedInputError,
    RejectedInputError,
    ZeroInputError,
)
from .poly import (
    BaseRing,
    Poly,
    check_coeff_bound,
    occurring_variables,
    parse_poly,
    reduce_mod_2k,
    substitute_ints,
)
from .report import (
    assemble_report,
    parse_job,
    parse_ring,
    poly_text,
    render_json,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_NAMES = (
    "example_2_10",
    "example_3_2",
    "example_4_7_family1",
    "example_4_7_family2",
    "case_b_synthetic",
    "case_c_cm_synthetic",
)

# The exit code is a property of the exception's class (see errors.py).
REJECTION_ERRORS = (RejectedInputError, OSError)
INTERNAL_ERRORS = (InternalError,)


def _fail(exc: Exception) -> int:
    """Report ``exc`` as one JSON line on stderr: 2 for a rejection, else 3."""
    reason = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, HypothesisViolationError):
        reason["predicate"] = exc.predicate
    print(json.dumps(reason), file=sys.stderr)
    return 2 if isinstance(exc, REJECTION_ERRORS) else 3


def _load_json(path) -> object:
    """The parsed JSON file; text that does not parse is malformed input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # Undecodable bytes, bad syntax, oversized integers, deep nesting.
        except (ValueError, RecursionError) as exc:
            raise MalformedInputError("%s is not valid JSON: %s" % (path, exc)) from None


def cmd_classify(job_path: str, out_path: Optional[str] = None) -> int:
    """Run the full pipeline on a job file; write or print the report."""
    try:
        ring, f, g, options = parse_job(_load_json(job_path))
        text = render_json(assemble_report(ring, f, g, options))
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except Exception as exc:
        return _fail(exc)
    return 0


def _regress_one(name: str) -> Tuple[bool, str]:
    """Re-run one golden job and byte-compare against the frozen report."""
    job_file = GOLDEN_DIR / (name + ".job.json")
    golden_file = GOLDEN_DIR / (name + ".report.json")
    for path in (job_file, golden_file):
        if not path.is_file():
            raise FileNotFoundError("missing golden file: %s" % path)
    ring, f, g, options = parse_job(_load_json(job_file))
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
    the perturbed multiplier-2 variant fails.  A passing item prints
    ``<name>: ok``; a failed one prints ``FAIL <name>: <what failed>``.
    """
    results: List[Tuple[bool, str]] = []
    try:
        for name in GOLDEN_NAMES:
            results.append(_regress_one(name))
        ring = BaseRing(("X", "Y", "V"))
        failed = example_2_10_regression(ring)
        results.append(
            (not failed, "example_2_10_identity_model: " + ("; ".join(failed) or "ok"))
        )
        perturbed = example_2_10_identity(ring, multiplier=2)
        results.append(
            (
                not perturbed,
                "example_2_10_perturbed_rejected: "
                + ("identity with multiplier 2 holds" if perturbed else "ok"),
            )
        )
    except Exception as exc:
        return _fail(exc)
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
        raise MalformedInputError("family spec must be a JSON object")
    for key in ("variables", "parameters", "f", "g"):
        if key not in spec:
            raise MalformedInputError("family spec is missing the %r field" % key)
    ring = parse_ring(spec["variables"])
    names: List[str] = []
    value_lists: List[Sequence[int]] = []
    params = spec["parameters"]
    if not isinstance(params, list):
        raise MalformedInputError("parameters must be a list")
    for entry in params:
        if not isinstance(entry, dict) or "name" not in entry:
            raise MalformedInputError("each parameter needs a 'name'")
        name = entry["name"]
        if not isinstance(name, str):
            raise MalformedInputError("parameter name %r is not a string" % (name,))
        if name in ring.variables or name in names:
            raise MalformedInputError("parameter name %r collides" % name)
        kind = "values" if "values" in entry else "range"
        if kind not in entry:
            raise MalformedInputError("parameter %r needs 'values' or 'range'" % name)
        values = entry[kind]
        # type(), not isinstance: JSON true/false decode to bool, an int subclass.
        if not isinstance(values, list) or any(type(v) is not int for v in values):
            raise MalformedInputError("%s of %r must be a list of integers" % (kind, name))
        if kind == "range":
            if len(values) != 2:
                raise MalformedInputError("range of %r must be [low, high]" % name)
            lo, hi = values
            values = range(lo, hi + 1)  # lazy: the pair-count guard runs first
        names.append(name)
        value_lists.append(values)
    return ring, names, value_lists, poly_text(spec, "f"), poly_text(spec, "g")


# Rejections a sweep records as a row instead of stopping.
ROW_REJECTIONS = (HypothesisViolationError, ZeroInputError)


def _rejection_tag(exc: Exception) -> str:
    """The sweep row tag of one of the ROW_REJECTIONS."""
    if isinstance(exc, HypothesisViolationError):
        return "rejected_" + exc.predicate
    return "rejected_zero_input"


class _SweepInput:
    """One template of a sweep, worked once per distinct input.

    The input depends only on the parameters that occur in the
    template, so it is substituted and bound-checked once per distinct
    restriction of the assignment to them, and admitted (admit_input)
    at most once.  An admitted input also gets the id of its residue
    signature, interned per call: None outside S^2, else (h, a mod 2)
    from its witness h^2 + 2a, which is all of the input that classify
    reads (see cmd_sweep).  The memos live for one cmd_sweep call and
    hold plain values: the Poly, then its S^2 witness (or None) with
    the signature id, or a rejection tag, never an exception, whose
    traceback would tie the memo to the frame.
    """

    def __init__(self, template: Poly, ring: BaseRing, side: str, names: List[str]):
        self.template = template
        self.ring = ring
        self.side = side
        self.names = names
        self.used = [i - ring.nvars for i in occurring_variables(template) if i >= ring.nvars]
        self.polys: Dict[Tuple[int, ...], Poly] = {}
        self.admitted: Dict[Tuple[int, ...], Tuple[object, Optional[int]]] = {}
        self.signatures: Dict[object, int] = {}

    def key(self, combo: Sequence[int]) -> Tuple[int, ...]:
        return tuple(combo[i] for i in self.used)

    def poly(self, key: Tuple[int, ...], combo: Sequence[int]) -> Poly:
        """The substituted input; an unused parameter's power is 1."""
        p = self.polys.get(key)
        if p is None:
            p = substitute_ints(self.template, dict(zip(self.names, combo)), self.ring)
            check_coeff_bound(p, self.side)
            self.polys[key] = p
        return p

    def admit(self, key: Tuple[int, ...]) -> Tuple[object, Optional[int]]:
        """admit_input of the input with its signature id, or (rejection tag, None)."""
        entry = self.admitted.get(key)
        if entry is None:
            try:
                w = admit_input(self.polys[key], self.side)
            except ROW_REJECTIONS as exc:
                entry = (_rejection_tag(exc), None)
            else:
                sig = None if w is None else (w.h, reduce_mod_2k(w.a, 1))
                entry = (w, self.signatures.setdefault(sig, len(self.signatures)))
            self.admitted[key] = entry
        return entry


def _classified_cells(alg: AlgebraDesc) -> Tuple[str, str, str]:
    """The case, cm and q_shape cells of a row whose pair was admitted."""
    case = classify(alg)
    cm = cm_verdict(case)
    cm_text = "" if cm is None else ("true" if cm else "false")
    return case, cm_text, "" if case == OUTSIDE_SCOPE else alg.q_shape.tag


def cmd_sweep(family_path: str, out_path: str) -> int:
    """Classify every (f,g) pair of a parametric family into a CSV.

    Pairs rejected by the standing hypotheses get a
    ``rejected_<predicate>`` row instead of aborting the sweep, so one
    degenerate parameter choice does not hide the rest of the family.
    Each distinct f and g is substituted and admitted once per call,
    and every row runs the pair hypotheses (admit_pair).  The cells
    of an admitted row are a function of the two residue signatures
    (_SweepInput), so classify runs once per distinct pair of them in
    a call.  That is exact: with f = h1^2 + 2a and g = h2^2 + 2b,
    classify and the cells read only whether wf and wg exist; the
    S^{2,4} tests (in_S2wedge4), the parities of a and b; is_even(f),
    which holds exactly when the 0/1 lift h1 is 0 (f = h1^2 mod 2), and
    is_even(g) likewise; product_in_S2wedge4, which reads a and b mod
    2 and h1, h2; and the shape of Q (ideal_Q_classify(h1, h2)).  The
    rows are those of make_algebra and classify run on each pair.
    """
    try:
        ring, names, value_lists, f_text, g_text = _parse_family(_load_json(family_path))
        total = 1
        for values in value_lists:
            # len() of a range raises OverflowError once it holds 2^63 values.
            n = values.stop - values.start if isinstance(values, range) else len(values)
            total *= max(n, 0)
        if total > MAX_SWEEP_PAIRS:
            raise BoundTooLargeError(
                "family enumerates %d pairs; limit is %d" % (total, MAX_SWEEP_PAIRS)
            )
        template_ring = BaseRing(tuple(ring.variables) + tuple(names))
        f_in = _SweepInput(parse_poly(f_text, template_ring), ring, "f", names)
        g_in = _SweepInput(parse_poly(g_text, template_ring), ring, "g", names)
        classified: Dict[Tuple[int, int], Tuple[str, str, str]] = {}
        rows: List[List[str]] = []
        # product() materialises each range first, even when another is empty.
        for combo in itertools.product(*value_lists) if total else ():
            kf, kg = f_in.key(combo), g_in.key(combo)
            f = f_in.poly(kf, combo)
            g = g_in.poly(kg, combo)
            # As in make_algebra, g is admitted only once f is.
            wf, sf = f_in.admit(kf)
            wg, sg = (wf, sf) if isinstance(wf, str) else g_in.admit(kg)
            if isinstance(wg, str):
                cells = (wg, "", "")
            else:
                try:
                    alg = admit_pair(ring, f, g, wf, wg)
                except ROW_REJECTIONS as exc:
                    cells = (_rejection_tag(exc), "", "")
                else:
                    cells = classified.get((sf, sg))
                    if cells is None:
                        cells = classified[sf, sg] = _classified_cells(alg)
            rows.append([*map(str, combo), *cells])
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names + ["case", "cm", "q_shape"])
            writer.writerows(rows)
    except Exception as exc:
        return _fail(exc)
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
