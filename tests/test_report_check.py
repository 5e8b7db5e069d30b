"""The independent checker (report_check.py, sympy only) on real reports.

It runs on the six golden reports as committed, on the report of a
job whose table entries have the denominator Y+1, and on the reports
of the first generated jobs of each tag with a ring presentation that
the benchmark's case generator (perfbench/casegen.py, loaded by path)
yields for one seed.  Each check must also fail on a report with one
coefficient changed.
"""

import itertools
import json

import pytest

from report_check import check_report
from test_residue_guard import load_casegen

from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES
from cmwitness.report import assemble_report, parse_job, render_json

SEED = 37
REPORTS_PER_TAG = 50
FREE_REPORTS_PER_TAG = 20
NON_CM_CHECKS = {
    "witness_f",
    "witness_g",
    "quadratics",
    "P_free",
    "eta_conducts",
    "H_equals_I",
    "M_contains_eta",
    "resolution_of_I",
    "resolution_of_S_mod_Q",
    "R_presentation",
}


def golden_text(name):
    return (GOLDEN_DIR / (name + ".report.json")).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_reports_recheck(name):
    text = golden_text(name)
    data = json.loads(text)
    verdicts = check_report(text)
    witnesses = data["witnesses"]
    if data["certificate"] is not None:
        assert set(verdicts) == NON_CM_CHECKS
    elif witnesses["h1"] is not None and witnesses["h2"] is not None:
        refined = {"witness_f4": "a_prime", "witness_g4": "b_prime"}
        assert set(verdicts) == {"witness_f", "witness_g", "quadratics", "mult_table"} | {
            check for check, key in refined.items() if witnesses[key] is not None
        }
    assert all(verdicts.values()), verdicts


def test_fraction_table_entries_recheck():
    # The unit cofactor c = 1 + Y of test_classifier.py: rho's pivot is
    # (1 + Y)/2, and some table entries print the denominator Y+1.
    job = {
        "variables": ["X", "Y"],
        "f": "X^2*(1+Y)^2+2*(1+Y)^2+4",
        "g": "X^2*Y^2+2*Y^2+4",
    }
    text = render_json(assemble_report(*parse_job(job)))
    table = json.loads(text)["ring_presentation"]["mult_table"]
    assert any(entry.endswith("/(Y+1)") for row in table.values() for entry in row)
    verdicts = check_report(text)
    assert {"quadratics", "mult_table"} <= set(verdicts) and all(verdicts.values())


def test_generated_free_reports_recheck():
    casegen = load_casegen()
    for tag in (casegen.A_BOTH, casegen.A_ONE, casegen.CASE_B, casegen.C_CM):
        jobs = (job for job, allowed in casegen.generate(SEED) if allowed[0] == tag)
        checked = 0
        for job in itertools.islice(jobs, FREE_REPORTS_PER_TAG):
            text = render_json(assemble_report(*parse_job(job)))
            verdicts = check_report(text)
            assert {"quadratics", "mult_table"} <= set(verdicts), job
            assert all(verdicts.values()), job
            checked += 1
        assert checked == FREE_REPORTS_PER_TAG


def test_generated_non_cm_reports_recheck():
    casegen = load_casegen()
    checked = 0
    for tag in (casegen.C_GRADE2, casegen.C_GRADE3):
        jobs = (job for job, allowed in casegen.generate(SEED) if allowed[0] == tag)
        for job in itertools.islice(jobs, REPORTS_PER_TAG):
            text = render_json(assemble_report(*parse_job(job)))
            verdicts = check_report(text)
            assert set(verdicts) == NON_CM_CHECKS and all(verdicts.values()), job
            checked += 1
    assert checked == 2 * REPORTS_PER_TAG


def bump(text):
    """The polynomial text with its constant coefficient moved by one."""
    return text + "+1"


def perturbed(data, path):
    """A copy of the report data with the polynomial text at path bumped."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bump(node[path[-1]])
    return json.dumps(data)


# M_contains_eta holds for any integral P and I once eta*P lies in A,
# and a changed h1 or h2 moves eta by (u + h2)/2 or (w + h1)/2, which
# lie in M on these jobs; its guards change f or g, and with them every product.
@pytest.mark.parametrize(
    "name", ["example_4_7_family1", "example_4_7_family2"]
)
@pytest.mark.parametrize(
    "check,path",
    [
        ("witness_f", ("witnesses", "a")),
        ("witness_g", ("witnesses", "b")),
        ("P_free", ("certificate", "ideals", "P", 0, "coords", 0)),
        ("P_free", ("certificate", "ideals", "P", 1, "coords", 0)),
        ("P_free", ("certificate", "ideals", "I", 1, "coords", 0)),
        ("eta_conducts", ("witnesses", "h1")),
        ("eta_conducts", ("certificate", "ideals", "P", 1, "coords", 0)),
        ("M_contains_eta", ("input", "f")),
        ("M_contains_eta", ("input", "g")),
        ("H_equals_I", ("certificate", "ideals", "H", 1, "coords", 0)),
        ("H_equals_I", ("certificate", "ideals", "I", 2, "coords", 1)),
        ("resolution_of_I", ("resolutions", 0, "matrices", 1, 2, 0)),
        ("resolution_of_I", ("resolutions", 0, "matrices", 0, 1, 2)),
        ("resolution_of_I", ("resolutions", 0, "grade_witnesses", 1, 0)),
        ("resolution_of_S_mod_Q", ("resolutions", 1, "matrices", 1, 0, 0)),
        ("resolution_of_S_mod_Q", ("resolutions", 1, "matrices", 2, 1, 0)),
        ("resolution_of_S_mod_Q", ("resolutions", 1, "grade_witnesses", 1, 1)),
        ("resolution_of_S_mod_Q", ("resolutions", 1, "grade_witnesses", 2, 1)),
        ("R_presentation", ("resolutions", 2, "grade_witnesses", 0, 0)),
    ],
)
def test_one_changed_coefficient_fails_its_check(name, check, path):
    data = json.loads(golden_text(name))
    assert [r["name"] for r in data["resolutions"]] == [
        "resolution_of_I", "resolution_of_S_mod_Q", "R_presentation"
    ]
    verdicts = check_report(perturbed(data, path))
    assert verdicts[check] is False


@pytest.mark.parametrize(
    "check,path",
    [
        ("witness_f4", ("witnesses", "a_prime")),
        ("witness_g4", ("witnesses", "b_prime")),
    ],
)
def test_one_changed_refined_witness_fails_its_check(check, path):
    # example_3_2 prints both a' and b'.
    verdicts = check_report(perturbed(json.loads(golden_text("example_3_2")), path))
    assert verdicts[check] is False


@pytest.mark.parametrize(
    "check,path",
    [
        ("quadratics", ("ring_presentation", "quadratics", 2, "c0", "coords", 0)),
        ("quadratics", ("ring_presentation", "quadratics", 0, "c0", "coords", 0)),
        ("mult_table", ("ring_presentation", "mult_table", "1,2", 0)),
        ("mult_table", ("ring_presentation", "mult_table", "3,3", 3)),
    ],
)
def test_one_changed_presentation_coefficient_fails_its_check(check, path):
    # case_b_synthetic: tau^2 = k1*k2 is its third quadratic.
    data = json.loads(golden_text("case_b_synthetic"))
    verdicts = check_report(perturbed(data, path))
    assert verdicts[check] is False
