"""The sweep admits each distinct f and g once per call.

``cmd_sweep`` substitutes, bound-checks and admits each input once per
distinct restriction of the row's assignment to the parameters its
template uses, and classifies once per distinct pair of residue
signatures.  Its CSV must equal the rows of a per-row reference kept
here: substitute, ``make_algebra`` and ``classify`` on every pair.
"""

import csv
import gc
import itertools
import json
import random
from pathlib import Path

import pytest

from cmwitness import algebra
from cmwitness.algebra import make_algebra
from cmwitness.classifier import CASE_TAGS, OUTSIDE_SCOPE, classify, cm_verdict
from cmwitness.cli import cmd_sweep
from cmwitness.errors import (
    BoundTooLargeError,
    HypothesisViolationError,
    ZeroInputError,
)
from cmwitness.poly import BaseRing, check_coeff_bound, parse_poly, substitute_ints

SWEEP_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"

# f omits d and g omits a.  The values reach every rejection tag,
# OutsideScope and four case tags.
F_TEMPLATE = "a*X^2+2*b*X*Y+c-4*a"
G_TEMPLATE = "d*Y^2+2*b+c*X*Y"
VALUES = {"a": [0, 1, 2, 3], "b": [-1, 0, 1, 2], "c": [0, 1, 2, 9], "d": [0, 1, 2, 3]}
REJECTIONS = {
    "rejected_zero_input",
    "rejected_squarefree_f",
    "rejected_squarefree_g",
    "rejected_A1",
    "rejected_degree_four",
}


# Over X, Y, V.  h1 = (z*V+1-z)*(c*X+1-c) and h2 = (z*V+1-z)*Y mod 2,
# so z and c pick each shape of Q = (2, h1, h2); t, o and k set the
# parities of a and b, and an odd o takes f out of S^2.  Every case
# tag occurs; the X/Y family above never reaches CaseC_CM or grade 2.
XYV = (
    ("X", "Y", "V"),
    "((z*V+1-z)*(c*X+1-c))^2+2*t*(c*X+1-c)^2+4*(X*V+s)+4*Y+o*X",
    "((z*V+1-z)*Y)^2+2*(t*Y^2+k*X^2)+4*(s*Y*V+1)+4*X",
)
XYV_VALUES = {
    "z": [0, 1],
    "c": [0, 1],
    "t": [0, 1, 2, 3],
    "s": list(range(-3, 5)),
    "o": [0, 1, 2],
    "k": list(range(-4, 4)),
}


def family(seed, values=VALUES, templates=(("X", "Y"), F_TEMPLATE, G_TEMPLATE)):
    rng = random.Random(seed)
    parameters = []
    for name, vals in values.items():
        vals = list(vals)
        rng.shuffle(vals)
        parameters.append({"name": name, "values": vals})
    variables, f, g = templates
    return {"variables": list(variables), "parameters": parameters, "f": f, "g": g}


def reference_rows(spec):
    """The CSV rows of a per-row sweep: every pair through make_algebra."""
    ring = BaseRing(tuple(spec["variables"]))
    names = [p["name"] for p in spec["parameters"]]
    template_ring = BaseRing(ring.variables + tuple(names))
    f_template = parse_poly(spec["f"], template_ring)
    g_template = parse_poly(spec["g"], template_ring)
    rows = [names + ["case", "cm", "q_shape"]]
    for combo in itertools.product(*[p["values"] for p in spec["parameters"]]):
        assignment = dict(zip(names, combo))
        f = substitute_ints(f_template, assignment, ring)
        g = substitute_ints(g_template, assignment, ring)
        check_coeff_bound(f, "f")
        check_coeff_bound(g, "g")
        cm_text = shape_text = ""
        try:
            alg = make_algebra(ring, f, g)
            case = classify(alg)
        except HypothesisViolationError as exc:
            case = "rejected_" + exc.predicate
        except ZeroInputError:
            case = "rejected_zero_input"
        else:
            cm = cm_verdict(case)
            cm_text = "" if cm is None else ("true" if cm else "false")
            shape_text = "" if case == OUTSIDE_SCOPE else alg.q_shape.tag
        rows.append([str(v) for v in combo] + [case, cm_text, shape_text])
    return rows


def run_sweep(tmp_path, spec):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = cmd_sweep(str(fam), str(out))
    return code, out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_matches_the_per_row_reference(tmp_path, seed):
    spec = family(seed)
    code, out = run_sweep(tmp_path, spec)
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == reference_rows(spec)
    tags = {row[4] for row in rows[1:]}
    assert REJECTIONS <= tags
    assert OUTSIDE_SCOPE in tags
    cases = {t for t in tags if not t.startswith("rejected_") and t != OUTSIDE_SCOPE}
    assert len(cases) >= 3, cases


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_matches_the_reference_on_every_case_tag(tmp_path, seed):
    # 3072 rows.  The row order, which the seed picks, decides which row
    # of each signature pair classifies and fills the memo.
    spec = family(seed, XYV_VALUES, XYV)
    code, out = run_sweep(tmp_path, spec)
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == reference_rows(spec)
    assert {row[6] for row in rows[1:]} == set(CASE_TAGS)
    shapes = {row[8] for row in rows[1:]} - {""}
    assert shapes == {"UnitIdeal", "TwoGenerated", "Grade3CI_NotTwoGen", "Grade2Pd3"}


def test_oversized_coefficient_on_a_later_row_exits_2(tmp_path, capsys):
    # a = 2^1100 first occurs after two thirds of the rows, whose inputs
    # were all admitted; the first f that holds it stops the sweep.
    values = dict(VALUES, a=[0, 1, 2**1100])
    spec = family(1, values)
    spec["parameters"][0]["values"] = values["a"]
    with pytest.raises(BoundTooLargeError) as info:
        reference_rows(spec)
    code, out = run_sweep(tmp_path, spec)
    assert code == 2 and not out.exists()
    reason = json.loads(capsys.readouterr().err)
    assert reason == {"error": "BoundTooLargeError", "detail": str(info.value)}


def count_calls(monkeypatch, tmp_path):
    """Admissions of f, of g, and classify calls in one committed sweep."""
    calls = []

    def counting_admit(p, side):
        calls.append(side)
        return algebra.admit_input(p, side)

    def counting_classify(alg):
        calls.append("classify")
        return classify(alg)

    monkeypatch.setattr("cmwitness.cli.admit_input", counting_admit)
    monkeypatch.setattr("cmwitness.cli.classify", counting_classify)
    out = tmp_path / "sweep.csv"
    assert cmd_sweep(str(SWEEP_DATA / "sweep_family.json"), str(out)) == 0
    assert out.read_bytes() == (SWEEP_DATA / "sweep_family.csv").read_bytes()
    return tuple(calls.count(k) for k in ("f", "g", "classify"))


def test_each_input_admitted_once_per_call(monkeypatch, tmp_path):
    # f depends on (p, q, r) and g on (q, r, s): 4096 rows, 512 of each.
    assert count_calls(monkeypatch, tmp_path)[:2] == (512, 512)
    # Nothing carries over to a second call.
    assert count_calls(monkeypatch, tmp_path)[:2] == (512, 512)


def test_classify_once_per_signature_pair(monkeypatch, tmp_path):
    # The 4032 rows that pass the pair hypotheses hold 20 distinct pairs
    # of signatures (h, a mod 2), on a second call too.
    assert count_calls(monkeypatch, tmp_path)[2] == 20
    assert count_calls(monkeypatch, tmp_path)[2] == 20


def test_sweep_leaves_no_cyclic_garbage(tmp_path):
    fam = str(SWEEP_DATA / "sweep_family.json")
    out = str(tmp_path / "sweep.csv")
    gc.collect()
    gc.disable()
    try:
        assert cmd_sweep(fam, out) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
