"""Each derived fact of a report is computed once.

The counters wrap package functions in every cmwitness module that
binds them, so calls through imported names are seen too.  One
report per golden job; the counts are per report.  The hypothesis
layer builds one set of modular images per input, and a sweep of the
benchmark's committed family reproduces its committed CSV byte for byte
without one image remainder sequence.
"""

import json
import sys
from pathlib import Path

import pytest

from cmwitness import algebra, classifier, gcd, homology, linalg, poly, predicates
from cmwitness.classifier import (
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_B,
    CASE_C_CM,
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    OUTSIDE_SCOPE,
    generic_claims,
    generic_complexes,
    generic_presentation,
)
from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES, cmd_sweep
from cmwitness.poly import parse_poly
from cmwitness.report import assemble_report, parse_job

NON_CM = (CASE_C_NONCM_GRADE3, CASE_C_NONCM_GRADE2)
SWEEP_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
# The tags of the generic presentations (classifier.generic_presentation);
# the two non-CM tags share the grade-3 one.
GENERIC_PRESENTATIONS = (CASE_A_BOTH, CASE_A_ONE, CASE_B, CASE_C_CM, CASE_C_NONCM_GRADE3)
IN_SCOPE_GOLDENS = [name for name in GOLDEN_NAMES if name != "example_2_10"]
# CaseC_CM pairs over (X, Y): c = Y + 1; e the unit; Q the unit ideal
# with c = 1; and with e = 1.
CM_PAIRS = [
    ("X^2*(1+Y)^2+2*(1+Y)^2+4", "X^2*Y^2+2*Y^2+4"),
    ("X^2*Y^2+2*Y^2+4", "X^2+2"),
    ("1+2*X", "Y^2+2*X*Y^2+4*X"),
    ("Y^2+2*X*Y^2+4*X", "1+2*X"),
]


class Calls:
    """Argument tuples of every call to one wrapped function."""

    def __init__(self, monkeypatch, module, name):
        self.args = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            self.args.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "cmwitness":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)

    def __len__(self):
        return len(self.args)


def golden_job(name):
    return parse_job(
        json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    )


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_each_fact_once_per_report(monkeypatch, name):
    ring, f, g, options = golden_job(name)
    # The identity claims of the certificate, of the two resolutions and
    # of the presentations are decided once per process on generic
    # rings; count the report's own work only.
    generic_claims()
    generic_complexes()
    for case in GENERIC_PRESENTATIONS:
        generic_presentation(case)

    lift_checks = Calls(monkeypatch, predicates, "in_S2wedge4")
    parities = Calls(monkeypatch, predicates, "product_in_S2wedge4")
    decompositions = Calls(monkeypatch, predicates, "decompose_S2")
    shapes = Calls(monkeypatch, predicates, "ideal_Q_classify")
    rrefs = Calls(monkeypatch, linalg, "_fraction_free_rref")
    fractions = []
    init = linalg.PolyFraction.__init__

    def counting_init(self, *args, **kwargs):
        fractions.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.PolyFraction, "__init__", counting_init)
    closures = Calls(monkeypatch, algebra, "span_closure_check")
    spans = Calls(monkeypatch, algebra, "express_in_span")
    solves = Calls(monkeypatch, linalg, "solve_in_S")
    specialised = Calls(monkeypatch, homology, "verify_specialised")
    column_checks = Calls(monkeypatch, homology, "verify_column")
    resolutions_of_I = Calls(monkeypatch, homology, "resolution_of_I")
    resolutions_of_S_mod_Q = Calls(monkeypatch, homology, "resolution_of_S_mod_Q")
    expanding = [
        Calls(monkeypatch, module, function)
        for module, function in (
            (homology, "be_exactness_check"),
            (homology, "standard_grade_certificates"),
            (homology, "check_composition_zero"),
            (homology, "minor_ideal_generators"),
            (homology, "kernel_saturation_check"),
            (linalg, "poly_det"),
            (linalg, "bareiss_rank"),
        )
    ]
    colon_tests = Calls(monkeypatch, algebra, "in_colon")
    products = Calls(monkeypatch, algebra, "k_mul")

    report = assemble_report(ring, f, g, options)
    case = report["case"]

    assert len(lift_checks) <= 2
    # The S^2 decompositions of f and g, reused by the S^{2,4} tests.
    assert len(decompositions) <= 2
    from_h = [args for args in shapes.args if args != (f, g)]
    assert len(from_h) == (0 if case == OUTSIDE_SCOPE else 1)
    # Q's shape is derived from (h1, h2) only, never again from (f, g).
    crosschecks = len(shapes) - len(from_h)
    assert crosschecks == 0

    # The parity of a*h2^2 + b*h1^2, past the CaseA tests, once.
    assert len(parities) == (1 if case in (CASE_B, CASE_C_CM, *NON_CM) else 0)

    # Every table is specialised from a generic one: no span solve, no
    # elimination, and no fraction (the golden CaseC_CM job has c = 1).
    assert len(closures) == len(spans) == len(solves) == len(rrefs) == 0
    assert fractions == []

    # Each of the three complexes of a non-CM report is verified once,
    # from closed forms: no report expands a minor, computes a rank or
    # multiplies out a composition (generic_complexes did, once).
    verified = [id(args[0]) for args in specialised.args + column_checks.args]
    assert len(verified) == len(set(verified)) == (3 if case in NON_CM else 0)
    assert len(column_checks) == (1 if case in NON_CM else 0)
    assert len(resolutions_of_I) == len(resolutions_of_S_mod_Q) == len(column_checks)
    assert [len(calls) for calls in expanding] == [0] * len(expanding)

    # No K-product and no colon test runs on the job: the generator
    # products, the colon tests and the quadratics are the generic
    # presentation's, and (w + h1)(u + h2), the generator of H, and tau
    # are built from their coordinates.
    assert len(products) == len(colon_tests) == 0


@pytest.mark.parametrize(
    "warm_up,name",
    [
        ("example_4_7_family1", "example_4_7_family2"),
        ("example_4_7_family2", "example_4_7_family1"),
    ],
)
def test_non_cm_report_solves_no_span_after_a_warm_up(monkeypatch, warm_up, name):
    # The warm-up report decides the generic claims; the next non-CM
    # report reads them and solves no span of its own.
    generic_claims.cache_clear()
    assemble_report(*golden_job(warm_up))
    spans = Calls(monkeypatch, algebra, "express_in_span")
    report = assemble_report(*golden_job(name))
    assert report["case"] in NON_CM
    assert report["certificate"]["checks"]["P_free"] is True
    assert len(spans) == 0


@pytest.mark.parametrize(
    "warm_up,name",
    [
        ("example_4_7_family1", "example_4_7_family2"),
        ("example_4_7_family2", "example_4_7_family1"),
    ],
)
def test_non_cm_report_runs_no_determinant_after_a_warm_up(monkeypatch, warm_up, name):
    # The warm-up report decides the generic complexes; the next non-CM
    # report picks its grade witnesses from their closed forms.
    generic_complexes.cache_clear()
    assemble_report(*golden_job(warm_up))
    dets = Calls(monkeypatch, linalg, "poly_det")
    minor_sets = Calls(monkeypatch, homology, "minor_ideal_generators")
    compositions = Calls(monkeypatch, homology, "check_composition_zero")
    report = assemble_report(*golden_job(name))
    assert report["case"] in NON_CM and len(report["resolutions"]) == 3
    assert len(dets) == len(minor_sets) == len(compositions) == 0


def test_generic_complexes_are_built_once_per_process(monkeypatch):
    generic_complexes.cache_clear()
    verifications = Calls(monkeypatch, homology, "verify_complex")
    compositions = Calls(monkeypatch, homology, "check_composition_zero")
    for name in ("example_4_7_family1", "example_4_7_family2", "example_4_7_family1"):
        assemble_report(*golden_job(name))
    # One composition check for each of the two generic complexes.
    assert len(verifications) == len(compositions) == 2
    assert generic_complexes.cache_info().misses == 1


@pytest.mark.parametrize("name", ["example_4_7_family1", "example_4_7_family2"])
def test_resolution_of_I_forms_no_product(monkeypatch, name):
    # The generating identities are proved on the generic algebra: the
    # job's resolution of I multiplies no K-element, by k_mul or by
    # scale_poly (both run algebra._product).
    ring, f, g, _ = golden_job(name)
    alg = algebra.make_algebra(ring, f, g)
    products = Calls(monkeypatch, algebra, "_product")
    k_products = Calls(monkeypatch, algebra, "k_mul")
    cx = homology.resolution_of_I(alg)
    assert len(cx.matrices) == 2
    assert len(products) == len(k_products) == 0


@pytest.mark.parametrize(
    "warm_up,name",
    [
        ("example_4_7_family1", "example_4_7_family2"),
        ("example_4_7_family2", "example_4_7_family1"),
    ],
)
def test_certificate_runs_no_colon_test_and_no_product(monkeypatch, warm_up, name):
    # Every check key is read from the generic claims, which the warm-up
    # report decides: the job's certificate runs no colon test and
    # forms no K-product, not even for H's generator (w + h1)(u + h2),
    # which is built from its coordinates.
    generic_claims.cache_clear()
    assemble_report(*golden_job(warm_up))
    ring, f, g, _ = golden_job(name)
    alg = algebra.make_algebra(ring, f, g)
    pres = classifier.build_R(alg, classifier.classify(alg))
    colon_tests = Calls(monkeypatch, algebra, "in_colon")
    products = Calls(monkeypatch, algebra, "k_mul")
    cert = classifier.build_small_cm_certificate(pres)
    assert pres.case in NON_CM and cert.all_pass()
    assert len(colon_tests) == len(products) == 0


def cm_job(pair):
    ring = golden_job("case_c_cm_synthetic")[0]
    return (ring, *(parse_poly(p, ring) for p in pair), None)


@pytest.mark.parametrize(
    "job",
    [pytest.param(name, id=name) for name in IN_SCOPE_GOLDENS]
    + [pytest.param(pair, id="%s,%s" % pair) for pair in CM_PAIRS],
)
def test_every_presentation_is_specialised_after_a_warm_up(monkeypatch, job):
    # The warm-up report builds the generic presentation; the next report
    # of the tag specialises it: no per-job build, K-product, span solve
    # or colon test (not even for the conductor or J), and no f*g.
    job = golden_job(job) if isinstance(job, str) else cm_job(job)
    assemble_report(*job)
    builds = Calls(monkeypatch, classifier, "_verified_presentation")
    tables = Calls(monkeypatch, algebra, "generator_products")
    closures = Calls(monkeypatch, algebra, "span_closure_check")
    products = Calls(monkeypatch, algebra, "k_mul")
    solves = Calls(monkeypatch, linalg, "solve_in_S")
    colon_tests = Calls(monkeypatch, algebra, "in_colon")
    formed = []
    monkeypatch.setattr(
        algebra.AlgebraDesc, "fg", property(lambda alg: formed.append(alg) or alg.f * alg.g)
    )
    report = assemble_report(*job)
    assert report["case"] != OUTSIDE_SCOPE
    assert report["conductor"]["available"] == (report["case"] in (CASE_B, CASE_C_NONCM_GRADE3))
    calls = [builds, tables, closures, products, solves, colon_tests, formed]
    assert [len(c) for c in calls] == [0] * len(calls)


def test_one_generic_algebra_per_tag(monkeypatch):
    # One report per golden job and one CaseA_one job with its square
    # mod 4 on each side (no golden job is CaseA_one), all twice.  The
    # five generic algebras are built once each (the two non-CM tags
    # share one), and the certificate's generic claims read CaseB's: a
    # job whose square mod 4 is g reads the CaseA_one presentation built
    # with it on f.
    for cached in (classifier._generic_algebra, generic_presentation, generic_claims):
        cached.cache_clear()
    closures = Calls(monkeypatch, algebra, "span_closure_check")
    algebras = Calls(monkeypatch, algebra, "make_algebra")
    jobs = [golden_job(name) for name in GOLDEN_NAMES]
    ring = golden_job("example_3_2")[0]
    for f, g in (("U^2*V^2+4", "Y^2+2"), ("Y^2+2", "U^2*V^2+4")):
        jobs.append((ring, parse_poly(f, ring), parse_poly(g, ring), None))
    cases = [assemble_report(*job)["case"] for job in jobs + jobs]
    assert cases[: len(jobs)] == cases[len(jobs):]
    assert cases[-2:] == [CASE_A_ONE, CASE_A_ONE]
    assert set(cases) >= {CASE_A_BOTH, CASE_B, *NON_CM}
    # One span closure for each generic presentation of a free R; no
    # report solves its own.
    assert len(closures) == 4
    assert classifier._generic_algebra.cache_info().misses == 5
    assert generic_presentation.cache_info().misses == 5
    # make_algebra runs once per report, never for a generic algebra.
    assert len(algebras) == len(cases)

    generic_claims.cache_clear()
    identities = Calls(monkeypatch, classifier, "generating_identities")
    generic_claims()
    [(alg,)] = identities.args
    assert alg is generic_presentation(CASE_B).generators[0].algebra
    assert classifier._generic_algebra.cache_info().misses == 5


def test_generic_check_runs_once_per_process(monkeypatch):
    generic_claims.cache_clear()
    identities = Calls(monkeypatch, homology, "generating_identities")
    algebras = Calls(monkeypatch, algebra, "make_algebra")
    spans = Calls(monkeypatch, algebra, "express_in_span")
    for _ in range(2):
        assemble_report(*golden_job("example_4_7_family1"))
    # One span solve and one identity check in all, on the generic
    # algebra, which make_algebra does not build; each report builds
    # its own algebra.
    assert len(identities) == len(spans) == 1
    assert len(algebras) == 2
    assert generic_claims.cache_info().misses == 1


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_no_product_has_a_zero_operand(monkeypatch, name):
    # A product with zero is zero: determinants skip a zero cofactor and
    # scale_poly a zero factor, so no report multiplies a zero polynomial.
    job = json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    zero_operands = []
    mul = poly.Poly.__mul__

    def checked(self, other):
        if not self or not other:
            zero_operands.append((str(self), str(other)))
        return mul(self, other)

    monkeypatch.setattr(poly.Poly, "__mul__", checked)
    monkeypatch.setattr(poly.Poly, "__rmul__", checked)
    assemble_report(*parse_job(job))
    assert zero_operands == []


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_images_once_per_input(monkeypatch, name):
    # Every golden pair passes the hypotheses.  The squarefree tests of
    # f and g and the coprimality test of the pair read one set of
    # modular images per input, computed on first use.
    job = json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    ring, f, g, _ = parse_job(job)
    images = Calls(monkeypatch, gcd, "_univariate_images")
    algebra.make_algebra(ring, f, g)
    assert [id(args[0]) for args in images.args] == [id(f), id(g)]


def test_sweep_reproduces_committed_csv(monkeypatch, tmp_path):
    # Every image coprimality test of this family has a side of degree
    # at most 1, so it is decided at a root and no remainder sequence runs.
    coprime_tests = Calls(monkeypatch, gcd, "_ucoprime")
    remainders = Calls(monkeypatch, gcd, "_urem")
    out = tmp_path / "sweep.csv"
    assert cmd_sweep(str(SWEEP_DATA / "sweep_family.json"), str(out)) == 0
    assert out.read_bytes() == (SWEEP_DATA / "sweep_family.csv").read_bytes()
    assert len(coprime_tests) > 4096
    assert len(remainders) == 0
