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
from collections import Counter
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
# K-products per golden report: in CaseC the generator products (each
# once) and the independent k1*k2 of tau^2; each recorded c1 is a scalar
# of S, so c1*x is a scale_poly or, for c1 = 0, nothing.  The CaseA and
# CaseB presentations are specialised from generic ones: no product.
K_PRODUCTS = {
    "example_2_10": 0,
    "example_3_2": 0,
    "example_4_7_family1": 11,
    "example_4_7_family2": 11,
    "case_b_synthetic": 0,
    "case_c_cm_synthetic": 7,
}
# The tags of the generic presentations (classifier.generic_presentation).
GENERIC_PRESENTATIONS = (CASE_A_BOTH, CASE_A_ONE, CASE_B)


class Calls:
    """Argument tuples of every call to one wrapped function."""

    def __init__(self, monkeypatch, module, name, on_call=None):
        self.args = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            self.args.append(args)
            if on_call is None:
                return original(*args, **kwargs)
            return on_call(original, *args, **kwargs)

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
    witnesses = [predicates.decompose_S2(p) for p in (f, g)]
    # The identity claims of the certificate, of the two resolutions and
    # of the free presentations are decided once per process on generic
    # rings; count the report's own work only.
    generic_claims()
    generic_complexes()
    for case in GENERIC_PRESENTATIONS:
        generic_presentation(case)

    lift_checks = Calls(monkeypatch, predicates, "in_S2wedge4")
    decompositions = Calls(monkeypatch, predicates, "decompose_S2")
    shapes = Calls(monkeypatch, predicates, "ideal_Q_classify")
    rrefs = Calls(monkeypatch, linalg, "_fraction_free_rref")
    fractions = []
    init = linalg.PolyFraction.__init__

    def counting_init(self, *args, **kwargs):
        fractions.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.PolyFraction, "__init__", counting_init)
    rrefs_per_solve = []

    def rrefs_inside(original, *args, **kwargs):
        before = len(rrefs)
        result = original(*args, **kwargs)
        rrefs_per_solve.append(len(rrefs) - before)
        return result

    closures = Calls(monkeypatch, algebra, "span_closure_check", rrefs_inside)
    spans = Calls(monkeypatch, algebra, "express_in_span", rrefs_inside)
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

    # Only a CaseC_CM report solves its span closure; a CaseA or CaseB
    # table is specialised from the generic one.
    assert len(closures) == (1 if case == CASE_C_CM else 0)
    assert len(spans) == 0
    # Spans are solved over S by one back-substitution each: no
    # elimination runs inside a solve, and the report builds no fraction.
    assert len(solves) == len(rrefs_per_solve) == len(closures) + len(spans)
    assert rrefs_per_solve == [0] * len(rrefs_per_solve)
    assert fractions == []
    if closures:
        columns, targets = solves.args[0]
        assert (len(columns), len(targets)) == (4, 10)

    # Each of the three complexes of a non-CM report is verified once,
    # from closed forms: no report expands a minor, computes a rank or
    # multiplies out a composition (generic_complexes did, once).
    verified = [id(args[0]) for args in specialised.args + column_checks.args]
    assert len(verified) == len(set(verified)) == (3 if case in NON_CM else 0)
    assert len(column_checks) == (1 if case in NON_CM else 0)
    assert len(resolutions_of_I) == len(resolutions_of_S_mod_Q) == len(column_checks)
    assert [len(calls) for calls in expanding] == [0] * len(expanding)

    # No K-product is formed twice: a generator's square serves the span
    # closure (or the colon tests) and its quadratic alike.
    pairs = Counter(frozenset(args) for args in products.args)
    assert [pair for pair, n in pairs.items() if n > 1] == []
    assert len(products) <= K_PRODUCTS[name]

    # (w + h1)(u + h2), the generator of H, and tau are built from their
    # coordinates: no K-product forms either.
    if None not in witnesses:
        z, o = ring.zero(), ring.one()
        h1, h2 = witnesses[0].h, witnesses[1].h
        factors = {
            frozenset((((h1, o, z, z), 0), ((h2, z, o, z), 0))),
            frozenset((((-h1, o, z, z), 0), ((-h2, z, o, z), 0))),
        }
        formed = [
            args for args in products.args
            if frozenset((x.coords, x.denom_exp) for x in args) in factors
        ]
        assert formed == []

    # No colon test x * ideal inside A runs twice on the same pair.
    colon_pairs = [(x, tuple(ideal.gens)) for x, ideal in colon_tests.args]
    assert len(colon_pairs) == len(set(colon_pairs))


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


@pytest.mark.parametrize("name", ["example_3_2", "case_b_synthetic"])
def test_free_presentation_is_specialised_after_a_warm_up(monkeypatch, name):
    # The warm-up report builds the generic presentation; the next report
    # of the tag specialises it: no K-product, span solve or colon test
    # (not even for CaseB's conductor P), and no f*g.
    assemble_report(*golden_job(name))
    products = Calls(monkeypatch, algebra, "k_mul")
    solves = Calls(monkeypatch, linalg, "solve_in_S")
    colon_tests = Calls(monkeypatch, algebra, "in_colon")
    formed = []
    monkeypatch.setattr(
        algebra.AlgebraDesc, "fg", property(lambda alg: formed.append(alg) or alg.f * alg.g)
    )
    report = assemble_report(*golden_job(name))
    assert report["case"] in (CASE_A_BOTH, CASE_B)
    assert report["conductor"]["available"] == (report["case"] == CASE_B)
    assert len(products) == len(solves) == len(colon_tests) == len(formed) == 0


def test_one_generic_algebra_per_tag(monkeypatch):
    # One report per golden job and one CaseA_one job with its square
    # mod 4 on each side (no golden job is CaseA_one), all twice.  The
    # three generic algebras are built once each, and the certificate's
    # generic claims read CaseB's: a job whose square mod 4 is g reads
    # the CaseA_one presentation built with it on f.
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
    # One span closure for each generic presentation; only CaseC_CM
    # reports solve their own.
    assert len(closures) == 3 + cases.count(CASE_C_CM)
    assert classifier._generic_algebra.cache_info().misses == 3
    assert generic_presentation.cache_info().misses == 3
    # make_algebra runs once per report, never for a generic algebra.
    assert len(algebras) == len(cases)

    generic_claims.cache_clear()
    identities = Calls(monkeypatch, classifier, "generating_identities")
    generic_claims()
    [(alg,)] = identities.args
    assert alg is generic_presentation(CASE_B).generators[0].algebra
    assert classifier._generic_algebra.cache_info().misses == 3


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
