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
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    OUTSIDE_SCOPE,
    generic_claims,
)
from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES, cmd_sweep
from cmwitness.report import assemble_report, parse_job

NON_CM = (CASE_C_NONCM_GRADE3, CASE_C_NONCM_GRADE2)
SWEEP_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
# K-products per golden report: the generator products (each once), one
# c1*x per recorded quadratic and the independent k1*k2 of tau^2.
K_PRODUCTS = {
    "example_2_10": 0,
    "example_3_2": 8,
    "example_4_7_family1": 14,
    "example_4_7_family2": 14,
    "case_b_synthetic": 10,
    "case_c_cm_synthetic": 9,
}


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
    # The identity claims of the certificate are decided once per
    # process on the generic algebra; count the report's own work only.
    generic_claims()

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
    be_checks = Calls(monkeypatch, homology, "be_exactness_check")
    grade_certs = Calls(monkeypatch, homology, "standard_grade_certificates")
    resolutions_of_I = Calls(monkeypatch, homology, "resolution_of_I")
    resolutions_of_S_mod_Q = Calls(monkeypatch, homology, "resolution_of_S_mod_Q")
    compositions = Calls(monkeypatch, homology, "check_composition_zero")
    ranks = Calls(monkeypatch, linalg, "bareiss_rank")
    minor_sets = Calls(monkeypatch, homology, "minor_ideal_generators")
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

    free = case not in NON_CM and case != OUTSIDE_SCOPE
    assert len(closures) == (1 if free else 0)
    assert len(spans) == 0
    # Spans are solved over S by one back-substitution each: no
    # elimination runs inside a solve, and the report builds no fraction.
    assert len(solves) == len(rrefs_per_solve) == len(closures) + len(spans)
    assert rrefs_per_solve == [0] * len(rrefs_per_solve)
    assert fractions == []
    if free:
        columns, targets = solves.args[0]
        assert (len(columns), len(targets)) == (4, 10)

    complexes = [id(args[0]) for args in be_checks.args]
    assert len(complexes) == len(set(complexes)) == (3 if case in NON_CM else 0)
    verified = [id(args[0]) for args in grade_certs.args]
    assert sorted(verified) == sorted(complexes)
    assert len(resolutions_of_I) == (1 if case in NON_CM else 0)
    # One S/Q resolution per non-CM report, and one composition check
    # for each of its three complexes (inside verify_complex).
    assert len(resolutions_of_S_mod_Q) == (1 if case in NON_CM else 0)
    assert len(compositions) == (3 if case in NON_CM else 0)
    assert [id(args[0]) for args in compositions.args] == complexes
    # No elimination computes a rank: each differential's minors, at the
    # rank the free ranks force, are computed once, shared by its grade
    # certificates, the exactness check and the kernel saturation check.
    differentials = sum(len(args[0].matrices) for args in be_checks.args)
    assert differentials == (6 if case in NON_CM else 0)
    assert len(ranks) == 0
    assert len(minor_sets) == differentials

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


def test_generic_check_runs_once_per_process(monkeypatch):
    generic_claims.cache_clear()
    identities = Calls(monkeypatch, homology, "generating_identities")
    algebras = Calls(monkeypatch, algebra, "make_algebra")
    spans = Calls(monkeypatch, algebra, "express_in_span")
    for _ in range(2):
        assemble_report(*golden_job("example_4_7_family1"))
    # One generic algebra, one span solve and one identity check in all;
    # each report builds its own algebra.
    assert len(identities) == len(spans) == 1
    assert len(algebras) == 3
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
