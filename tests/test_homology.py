"""Free complexes, Buchsbaum-Eisenbud exactness, grade witnesses."""

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from test_residue_guard import load_casegen

from cmwitness import classifier, homology, linalg, report
from cmwitness.algebra import AlgebraDesc, make_algebra
from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES, cmd_regress, cmd_sweep, main
from cmwitness.errors import (
    LiftInvalidError,
    MalformedSequenceError,
    MissingCertificateError,
    RejectedInputError,
    UnverifiedComplexError,
    WitnessMismatchError,
)
from cmwitness.homology import (
    FreeComplex,
    be_exactness_check,
    check_composition_zero,
    kernel_saturation_check,
    minor_ideal_generators,
    pd_depth_report,
    resolution_of_I,
    resolution_of_I_complex,
    resolution_of_S_mod_Q,
    standard_grade_certificates,
    verify_column,
    verify_complex,
    verify_specialised,
)
from cmwitness.gcd import gcd_many_q
from cmwitness.linalg import (
    DimensionMismatchError,
    PolyFraction,
    bareiss_rank,
    fraction_kernel,
)
from cmwitness.poly import BaseRing, Poly, divide_exact, parse_poly
from cmwitness.predicates import decompose_S2
from cmwitness.report import assemble_report, parse_job, render_json

RING2 = BaseRing(("X", "Y"))
RING3 = BaseRing(("V", "X", "Y"))
SWEEP_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def family2_algebra():
    return make_algebra(
        RING2, parse_poly("-X^2+4", RING2), parse_poly("-Y^2+4", RING2)
    )


def family1_algebra():
    return make_algebra(
        RING3,
        parse_poly("V^2*X^2-2*X^2+4", RING3),
        parse_poly("V^2*Y^2-2*Y^2+4", RING3),
    )


def test_resolution_of_I_family2():
    cx = resolution_of_I(family2_algebra())
    assert cx.augmented
    assert check_composition_zero(cx)
    X, Y = RING2.gens()
    # psi transpose is [-h2, h1, 2] = [-Y, X, 2].
    tail = [row[0] for row in cx.matrices[1]]
    assert tail == [-Y, X, RING2.const(2)]
    # phi columns: 2w, 2u, h2 w - h1 u in the (1, w, u, wu) coordinates.
    phi = cx.matrices[0]
    assert phi[1][0] == RING2.const(2) and phi[2][1] == RING2.const(2)
    assert phi[1][2] == Y and phi[2][2] == -X


def test_resolution_of_I_family1():
    cx = resolution_of_I(family1_algebra())
    V, X, Y = RING3.gens()
    tail = [row[0] for row in cx.matrices[1]]
    assert tail == [-(V * Y), V * X, RING3.const(2)]
    assert check_composition_zero(cx)


def test_resolution_of_I_rejects_double_2S():
    # f, g both in 2S means h1 = h2 = 0: no such algebra reaches the
    # resolution builder, and it must refuse rather than emit garbage.
    f = parse_poly("2*X", RING2)
    g = parse_poly("2*Y", RING2)
    alg = AlgebraDesc(RING2, f, g, decompose_S2(f), decompose_S2(g))
    with pytest.raises(WitnessMismatchError):
        resolution_of_I(alg)


def test_resolution_of_I_rejects_an_odd_product_criterion():
    # CaseB: a*h2^2 + b*h1^2 = Y^2 + X^2 is odd, so f*g is not in
    # S^{2,4} and I has no such resolution.
    alg = make_algebra(RING2, parse_poly("X^2+2", RING2), parse_poly("Y^2+2", RING2))
    assert classifier.classify(alg) == classifier.CASE_B
    with pytest.raises(WitnessMismatchError, match="odd"):
        resolution_of_I(alg)


def test_resolution_of_S_mod_Q_family1():
    V, X, Y = RING3.gens()
    cx = resolution_of_S_mod_Q(V, X, Y)
    assert check_composition_zero(cx)
    assert [row[0] for row in cx.matrices[2]] == [-Y, X, RING3.const(-2)]
    assert cx.matrices[0] == [[RING3.const(2), V * X, V * Y]]
    # Middle matrix is Phi = [[zc, ze, 0], [-2, 0, e], [0, -2, -c]].
    assert cx.matrices[1] == [
        [V * X, V * Y, RING3.zero()],
        [RING3.const(-2), RING3.zero(), Y],
        [RING3.zero(), RING3.const(-2), -X],
    ]


def test_resolution_of_S_mod_Q_extras():
    V, X, Y = RING3.gens()
    cx = resolution_of_S_mod_Q(V, X, Y)
    # The Syz^2 generators the non-CM presentation reports are the
    # columns of d_2, and their relation is the column of d_3.
    d2, d3 = cx.matrices[1], cx.matrices[2]
    assert [[row[j] for row in d2] for j in range(3)] == [
        [V * X, RING3.const(-2), RING3.zero()],
        [V * Y, RING3.zero(), RING3.const(-2)],
        [RING3.zero(), Y, -X],
    ]
    assert [row[0] for row in d3] == [-Y, X, RING3.const(-2)]


def test_resolution_of_S_mod_Q_family2():
    X, Y = RING2.gens()
    cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    assert check_composition_zero(cx)
    assert cx.matrices[0] == [[RING2.const(2), X, Y]]


def test_resolution_of_S_mod_Q_unit_c():
    # (1, 1, e): Q two-generated, the complex still composes to zero.
    X, Y = RING2.gens()
    cx = resolution_of_S_mod_Q(RING2.one(), RING2.one(), Y)
    assert check_composition_zero(cx)


def test_resolution_of_S_mod_Q_rejects_even_z():
    X, Y = RING2.gens()
    with pytest.raises(LiftInvalidError):
        resolution_of_S_mod_Q(X.scale(2), X, Y)


def test_composition_zero_detects_corruption():
    cx = resolution_of_I(family2_algebra())
    bad_tail = [[-(row[0]) if i == 0 else row[0]] for i, row in enumerate(cx.matrices[1])]
    corrupted = FreeComplex(
        matrices=[cx.matrices[0], bad_tail],
        labels=list(cx.labels),
        augmented=True,
    )
    assert not check_composition_zero(corrupted)


def test_be_exactness_family2_resolutions():
    cx = resolution_of_I(family2_algebra())
    certs = standard_grade_certificates(cx)
    assert check_composition_zero(cx)
    assert be_exactness_check(cx, certs)
    X, Y = RING2.gens()
    q_cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    q_certs = standard_grade_certificates(q_cx)
    assert be_exactness_check(q_cx, q_certs)
    # The grade-3 witness for the length-3 stage is (2, X, Y).
    assert [str(p) for p in q_certs[-1]] == ["2", "X", "Y"]


def test_be_exactness_family1_resolutions():
    V, X, Y = RING3.gens()
    q_cx = resolution_of_S_mod_Q(V, X, Y)
    q_certs = standard_grade_certificates(q_cx)
    assert be_exactness_check(q_cx, q_certs)
    cx = resolution_of_I(family1_algebra())
    assert be_exactness_check(cx, standard_grade_certificates(cx))


def test_be_exactness_rejects_rank_violation():
    # Two generic 2x2 matrices with nonzero product violate both
    # composition-zero and the rank additivity count.
    X, Y = RING2.gens()
    m1 = [[X, Y], [Y, X]]
    m2 = [[X, RING2.zero()], [RING2.zero(), X]]
    cx = FreeComplex(matrices=[m1, m2], labels=["F0", "F1", "F2"], augmented=False)
    assert not be_exactness_check(cx, [[X], [X, Y]])


def test_verify_complex_rejects_a_rank_deficit():
    # Both complexes compose to zero, but rank d_1 = 1 falls short of the
    # forced r_1 = 3 - 1 = 2: the 2-minors of the first d_1 all vanish,
    # and the 1 x 3 second d_1 has no 2-minor at all.
    X, Y = RING2.gens()
    zero, one = RING2.zero(), RING2.one()
    deficient = [
        ([[X, Y, zero], [X, Y, zero]], [[Y], [-X], [zero]]),
        ([[X, X, X]], [[one], [-one], [zero]]),
    ]
    for d1, d2 in deficient:
        cx = FreeComplex(matrices=[d1, d2], labels=["F0", "F1", "F2"])
        assert check_composition_zero(cx)
        assert cx.differential_ranks == [2, 1]
        assert bareiss_rank(d1) == 1
        with pytest.raises(UnverifiedComplexError, match="no nonzero r_1-minor"):
            verify_complex(cx)


def test_be_exactness_rejects_wrong_minor_ideal():
    # d_1 of the resolution of I has 2x2 minors 4, -2X, -2Y (and zeros);
    # X is odd, so it lies outside that ideal and certifies nothing.
    cx = resolution_of_I(family2_algebra())
    witnesses = standard_grade_certificates(cx)
    assert be_exactness_check(cx, witnesses)
    X, _ = RING2.gens()
    assert not be_exactness_check(cx, [[X]] + witnesses[1:])


def test_be_exactness_requires_certificates():
    cx = resolution_of_I(family2_algebra())
    with pytest.raises(MissingCertificateError):
        be_exactness_check(cx, [])
    # A witness shorter than its position certifies too small a grade.
    first, second = standard_grade_certificates(cx)
    with pytest.raises(MissingCertificateError, match="position 2"):
        be_exactness_check(cx, [first, second[:1]])


def test_grade_certificate_validate():
    # The resolution of S/Q for Q = (2, X, Y): d_1 = [2, X, Y] and the
    # tail column [-Y, X, -2], whose 1x1 minors contain (2, X, Y).
    X, Y = RING2.gens()
    two = RING2.const(2)
    cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    first, second, _ = standard_grade_certificates(cx)
    assert be_exactness_check(cx, [first, second, [two, X, Y]])
    # A unit outside the minor ideal: rejected.
    assert not be_exactness_check(cx, [[RING2.const(3)], second, [two, X, Y]])
    # Non-regular witness (repeated element mod 2): rejected.
    assert not be_exactness_check(cx, [first, second, [two, X, X]])
    with pytest.raises(MalformedSequenceError):
        be_exactness_check(cx, [[two, X, Y, X], second, [two, X, Y]])


def test_grade_certificate_ring_mismatch_raises():
    # A witness from another ring is a caller error, not "outside the ideal".
    X, Y = RING2.gens()
    cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    witnesses = standard_grade_certificates(cx)
    with pytest.raises(ValueError):
        be_exactness_check(cx, [[RING3.var("X")]] + witnesses[1:])


def test_pd_depth_report():
    cx = resolution_of_I(family2_algebra())
    # d = dim S = nvars + 1 = 3 here; the augmented complex has pd 1.
    assert pd_depth_report(cx) == (1, 2)
    X, Y = RING2.gens()
    q_cx = resolution_of_S_mod_Q(RING2.one(), X, Y)
    assert pd_depth_report(q_cx) == (3, 0)
    V, X3, Y3 = RING3.gens()
    q_cx3 = resolution_of_S_mod_Q(V, X3, Y3)
    assert pd_depth_report(q_cx3) == (3, 1)
    # verify_complex records pd/depth only for a verified complex: here
    # d_1 d_2 = 4*X != 0, so it raises instead.
    two = RING2.const(2)
    broken = FreeComplex(
        matrices=[[[two, X]], [[X], [two]]], labels=["S", "S^2", "S"]
    )
    with pytest.raises(UnverifiedComplexError):
        verify_complex(broken)


def test_minor_ideal_generators():
    X, Y = RING2.gens()
    mat = [[X, Y], [RING2.const(2), RING2.zero()]]
    ones = minor_ideal_generators(mat, 1)
    assert X in ones and Y in ones and RING2.const(2) in ones
    twos = minor_ideal_generators(mat, 2)
    assert len(twos) == 1 and twos[0] == -Y.scale(2)


def test_kernel_saturation():
    cx = resolution_of_I(family2_algebra())
    assert kernel_saturation_check(cx)
    # For the S/Q resolution the rank-1 tail sits one stage deeper:
    # check saturation of ker(Phi) against the [-e, c, -2] column.
    V, X, Y = RING3.gens()
    q_cx = resolution_of_S_mod_Q(V, X, Y)
    stage = FreeComplex(
        matrices=[q_cx.matrices[1], q_cx.matrices[2]],
        labels=["S^3", "S^3", "S"],
        augmented=False,
    )
    assert kernel_saturation_check(stage)
    with pytest.raises(DimensionMismatchError):
        kernel_saturation_check(
            FreeComplex(matrices=[[[X]]], labels=["F0", "F1"], augmented=False)
        )


def saturation_reference(d1, column):
    """ker(d_1) = S * column, decided over the fraction field.

    The clearing algorithm the package used before the gcd identity: a
    generic kernel basis of d_1 (fraction_kernel), each vector cleared
    of denominators and content, must be an S-multiple of the column.
    Unlike that version it also divides out the integer content, which
    the lcm of denominators over gcd_many_q (a primitive gcd) can leave
    behind: without it (-2Y, 2X, 4) passed as a saturating column for
    the resolution of I.  An empty basis (ker(d_1) = 0) reads True.
    """
    for vec in fraction_kernel(d1):
        ring = vec[0].ring
        denom = ring.one()
        for entry in vec:
            denom = divide_exact(denom * entry.den, gcd_many_q([denom, entry.den]))
        polys = [divide_exact(entry.num * denom, entry.den) for entry in vec]
        content = gcd_many_q(polys)
        polys = [divide_exact(p, content) for p in polys]
        k = math.gcd(*(p.integer_content() for p in polys if not p.is_zero()))
        polys = [divide_exact(p, ring.const(k)) for p in polys]
        ratio = None
        for v, c in zip(polys, column):
            if c.is_zero():
                if not v.is_zero():
                    return False
                continue
            here = PolyFraction(v, c)
            if ratio is None:
                ratio = here
            elif ratio != here:
                return False
        if ratio is None or not ratio.is_in_S():
            return False
    return True


def rank1_tail(d1, column):
    return FreeComplex(
        matrices=[d1, [[c] for c in column]],
        labels=["F0", "F1", "S"],
        augmented=False,
    )


def small_poly(rng, ring):
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        e = tuple(rng.randrange(2) for _ in ring.variables)
        terms[e] = terms.get(e, 0) + rng.randrange(-3, 4)
    return Poly(ring, terms)


UNITS = ("1", "-1", "3", "1+2*X", "1-2*Y+4*X*Y")
NON_UNITS = ("2", "X", "2+X", "-Y", "X*Y+2*X")


def test_kernel_saturation_matches_fraction_kernel_reference():
    # Seeded rank-1 tails over Z[X, Y]: the rows of d_1 are S-combinations
    # of the Koszul rows orthogonal to c0 (one row leaves rank 1, so
    # ker(d_1) has rank 2), and the column is c = m * c0 for a unit or
    # non-unit m, sometimes knocked out of the kernel by adding 1 to one
    # entry.  A constant entry of c0 puts the gcd on its constant path.
    rng = random.Random(1407)
    two = RING2.const(2)
    verdicts, kinds = Counter(), Counter()
    for _ in range(240):
        c0 = [small_poly(rng, RING2) for _ in range(3)]
        if rng.random() < 0.3:
            c0[rng.randrange(3)] = rng.choice((two, RING2.one(), RING2.const(-3)))
        if all(c.is_zero() for c in c0):
            continue
        a, b, c = c0
        zero = RING2.zero()
        koszul = [[b, -a, zero], [c, zero, -a], [zero, c, -b]]
        nrows = rng.choice((1, 2, 2, 3, 3))
        d1 = []
        for _ in range(nrows):
            coeffs = [small_poly(rng, RING2) for _ in koszul]
            d1.append([sum((k * row[j] for k, row in zip(coeffs, koszul)), zero)
                       for j in range(3)])
        unit = rng.random() < 0.5
        m = parse_poly(rng.choice(UNITS if unit else NON_UNITS), RING2)
        column = [m * x for x in c0]
        outside = rng.random() < 0.15
        if outside:
            column[rng.randrange(3)] += 1
        cx = rank1_tail(d1, column)
        got = kernel_saturation_check(cx)
        assert got == saturation_reference(d1, column), (d1, column)
        rank_ok = bareiss_rank(d1) == 2
        verdicts[got] += 1
        kinds["saturated by a non-constant unit multiple"] += got and not m.is_constant()
        kinds["rank 1, c in ker, unit multiplier"] += not rank_ok and not outside and unit
        kinds["c outside ker"] += outside
        kinds["non-unit multiplier in ker"] += rank_ok and not outside and not unit
    assert sum(verdicts.values()) >= 200, verdicts
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts
    assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds


def test_kernel_saturation_rejects_degenerate_tails():
    X, Y = RING2.gens()
    zero, one, two = RING2.zero(), RING2.one(), RING2.const(2)
    # ker(d_1) = 0: the check reads False (the fraction-field check,
    # whose kernel basis is empty, read True).
    injective = [[one, zero, zero], [zero, one, zero], [zero, zero, two]]
    assert not kernel_saturation_check(rank1_tail(injective, [zero, zero, zero]))
    assert saturation_reference(injective, [zero, zero, zero])
    # A zero column: ker(d_1) = S * (-Y, X, 2) is not spanned by it.
    koszul = [[X, Y, zero], [two, zero, Y]]
    assert kernel_saturation_check(rank1_tail(koszul, [-Y, X, two]))
    assert not kernel_saturation_check(rank1_tail(koszul, [zero, zero, zero]))
    assert not saturation_reference(koszul, [zero, zero, zero])
    # F_1 = S: d_1 = 0 has rank dim F_1 - 1 = 0 with no minor to show.
    for column, saturated in (([one], True), ([X], False)):
        assert kernel_saturation_check(rank1_tail([[zero]], column)) is saturated
        assert saturation_reference([[zero]], column) is saturated
    # 2 * (-Y, X, 2) lies in the kernel but does not saturate it.
    cx = resolution_of_I(family2_algebra())
    doubled = FreeComplex(
        matrices=[cx.matrices[0], [[row[0].scale(2)] for row in cx.matrices[1]]],
        labels=list(cx.labels),
        augmented=True,
    )
    assert check_composition_zero(doubled)
    assert not kernel_saturation_check(doubled)
    assert not saturation_reference(cx.matrices[0], [r[0] for r in doubled.matrices[1]])
    # Shapes that do not compose raise as check_composition_zero does.
    short = rank1_tail(koszul, [-Y, X])
    with pytest.raises(DimensionMismatchError, match="not composable"):
        check_composition_zero(short)
    with pytest.raises(DimensionMismatchError, match="not composable"):
        kernel_saturation_check(short)


def test_serialize_shape():
    # The report serialises the resolution of I first among the
    # resolutions of the grade-3 family (-X^2+4, -Y^2+4).
    ring, f, g, options = parse_job(
        {"variables": ["X", "Y"], "f": "-X^2+4", "g": "-Y^2+4"}
    )
    data = assemble_report(ring, f, g, options)["resolutions"][0]
    assert data["name"] == "resolution_of_I"
    assert data["augmented"] is True and data["verified"] is True
    assert data["labels"][0].startswith("A = S^4")
    assert data["matrices"][1] == [["-Y"], ["X"], ["2"]]


def test_forced_ranks_match_elimination_and_no_report_eliminates(monkeypatch, tmp_path):
    # Every complex of the golden reports and of the first casegen.generate(1)
    # reports is built and verified with Bareiss elimination patched to
    # raise, and the goldens, regress and the committed sweep come out the
    # same.  Afterwards the ranks the free ranks force equal the ranks
    # elimination gives on every one of those complexes.
    complexes = []

    def recording(verify):
        def record(cx, *args):
            complexes.append(cx)
            return verify(cx, *args)
        return record

    def eliminating(*args):
        raise AssertionError("an elimination ran on a report path")

    rendered = 0
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_fraction_free_rref", eliminating)
        patch.setattr(classifier, "verify_specialised", recording(verify_specialised))
        patch.setattr(report, "verify_column", recording(verify_column))
        for name in GOLDEN_NAMES:
            job = json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
            text = render_json(assemble_report(*parse_job(job)))
            assert text == (GOLDEN_DIR / (name + ".report.json")).read_text(encoding="utf-8")
        for job, _tags in itertools.islice(load_casegen().generate(1), 240):
            try:
                assemble_report(*parse_job(job))
            except RejectedInputError:
                continue
            rendered += 1
        assert cmd_regress() == 0
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(str(SWEEP_DATA / "sweep_family.json"), str(out)) == 0
        assert out.read_bytes() == (SWEEP_DATA / "sweep_family.csv").read_bytes()
    assert rendered >= 200
    shapes = Counter(tuple(cx.differential_ranks) for cx in complexes)
    assert set(shapes) == {(1, 2, 1), (2, 1), (1,)} and sum(shapes.values()) >= 200, shapes
    for cx in complexes:
        assert cx.differential_ranks == [bareiss_rank(m) for m in cx.matrices]


def non_cm_jobs(per_tag):
    """Both non-CM golden jobs, then the first generated pairs of each
    non-CM tag."""
    for name in ("example_4_7_family1", "example_4_7_family2"):
        yield json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    casegen = load_casegen()
    for tag in (casegen.C_GRADE2, casegen.C_GRADE3):
        jobs = (job for job, allowed in casegen.generate(3) if allowed[0] == tag)
        yield from itertools.islice(jobs, per_tag)


def test_closed_form_witnesses_match_the_enumeration():
    # Each job's three complexes, verified from closed forms, carry the
    # witnesses that expanding every minor of the job's own complex gives.
    minors_q, minors_i = classifier.generic_complexes()
    tags = Counter()
    for job in non_cm_jobs(50):
        ring, f, g, _ = parse_job(job)
        alg = make_algebra(ring, f, g)
        pres = classifier.build_R(alg, classifier.classify(alg))
        shape = alg.q_shape
        zce = (shape.z, shape.c, shape.e)
        for verified in (
            verify_specialised(resolution_of_S_mod_Q(*zce), minors_q, zce),
            verify_specialised(resolution_of_I(alg), minors_i, (alg.h1(), alg.h2())),
            verify_column(classifier.presentation_complex(pres)),
        ):
            cx = verified.complex
            reference = standard_grade_certificates(cx)
            assert verified.witnesses == reference, job
            assert check_composition_zero(cx) and be_exactness_check(cx, reference)
            assert (verified.pd_bound, verified.depth) == pd_depth_report(cx)
        tags[pres.case] += 1
    assert tags[classifier.CASE_C_NONCM_GRADE2] >= 50, tags
    assert tags[classifier.CASE_C_NONCM_GRADE3] >= 50, tags


@pytest.mark.parametrize(
    "values,witness",
    [
        # the first 1-minor -h2 of d_2 vanishes, or is even: h1 is picked
        (("X", "0"), "X"),
        (("X+Y", "2*X"), "X+Y"),
        (("1+2*Y", "2*X+4"), "1+2*Y"),
    ],
)
def test_picker_skips_a_vanishing_or_even_first_minor(values, witness):
    _, minors_i = classifier.generic_complexes()
    h1, h2 = (parse_poly(v, RING2) for v in values)
    cx = resolution_of_I_complex(h1, h2)
    verified = verify_specialised(cx, minors_i, (h1, h2))
    assert verified.witnesses == standard_grade_certificates(cx)
    assert verified.witnesses[1] == [RING2.const(4), parse_poly(witness, RING2)]


@pytest.mark.parametrize(
    "zce,odd_minor",
    [
        # e even: 2ZE, ZCE and ZE^2 are even, -ZC^2 is the first odd minor
        (("X", "1", "2*Y"), "-X"),
        # e = 0: those minors vanish, and so does the tail's first entry -E
        (("X", "1", "0"), "-X"),
        (("1", "X", "Y"), "X*Y"),
    ],
)
def test_picker_on_hand_made_s_mod_q(zce, odd_minor):
    minors_q, _ = classifier.generic_complexes()
    values = tuple(parse_poly(v, RING2) for v in zce)
    cx = resolution_of_S_mod_Q(*values)
    verified = verify_specialised(cx, minors_q, values)
    assert verified.witnesses == standard_grade_certificates(cx)
    assert verified.witnesses[1] == [RING2.const(4), parse_poly(odd_minor, RING2)]


@pytest.mark.parametrize("builder", ["resolution_of_S_mod_Q", "resolution_of_I_complex"])
def test_a_sign_flipped_generic_builder_exits_3(monkeypatch, capsys, builder):
    # The generic build reads the builders through classifier: flipping
    # the sign of the tail's first entry breaks the generic composition
    # check, and the report is refused as a bug.
    original = getattr(classifier, builder)
    compositions = []

    def flipped(*args):
        cx = original(*args)
        cx.matrices[-1][0][0] = -cx.matrices[-1][0][0]
        return cx

    def recording(cx):
        compositions.append(check_composition_zero(cx))
        return compositions[-1]

    classifier.generic_complexes.cache_clear()
    monkeypatch.setattr(classifier, builder, flipped)
    monkeypatch.setattr(homology, "check_composition_zero", recording)
    try:
        job = str(GOLDEN_DIR / "example_4_7_family1.job.json")
        assert main(["classify", "--job", job]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "UnverifiedComplexError"
        assert False in compositions
    finally:
        classifier.generic_complexes.cache_clear()
