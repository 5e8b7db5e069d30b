"""Case trichotomy, R construction, conductors, and the small-CM-module
certificate."""

import itertools
import json

import pytest

from test_residue_guard import load_casegen

from cmwitness import classifier, linalg
from cmwitness.algebra import (
    AlgebraDesc,
    IdealGens,
    a_membership,
    in_colon,
    k_mul,
    make_algebra,
)
from cmwitness.classifier import (
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_B,
    CASE_C_CM,
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    CASE_TAGS,
    OUTSIDE_SCOPE,
    build_R,
    build_small_cm_certificate,
    classify,
    conductor,
    example_2_10_identity,
    example_2_10_regression,
    generic_claims,
    generic_complexes,
    ideal_H,
    ideal_I,
    ideal_P,
    presentation_complex,
    prime_dual_gen,
    q_shape,
    residue_mod_P,
)
from cmwitness.cli import GOLDEN_DIR
from cmwitness.errors import (
    CaseConflictError,
    InternalVerificationError,
    UnsupportedError,
    UnverifiedComplexError,
    WrongCaseError,
)
from cmwitness.homology import check_composition_zero, pd_depth_report
from cmwitness.linalg import PolyFraction
from cmwitness.poly import BaseRing, divide_exact, parse_poly
from cmwitness.predicates import S2Witness, decompose_S2
from cmwitness.report import CONDUCTOR_UNIDENTIFIED, parse_job

RING2 = BaseRing(("X", "Y"))
RING3 = BaseRing(("V", "X", "Y"))
RINGU = BaseRing(("U", "Y", "V"))
RING_XYV = BaseRing(("X", "Y", "V"))
# The casegen seed and pair count of the M_contains_eta agreement test.
AGREEMENT_SEED = 3
AGREEMENT_PAIRS_PER_TAG = 50


def alg_of(ring, ftext, gtext):
    return make_algebra(ring, parse_poly(ftext, ring), parse_poly(gtext, ring))


def count_eliminations(monkeypatch):
    """Argument tuples of every Bareiss elimination from now on."""
    calls = []
    original = linalg._fraction_free_rref

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "_fraction_free_rref", counting)
    return calls


def assert_table_recombines(pres):
    """Each mult_table entry holds coefficients in S of its product.

    A coefficient that is not a polynomial is a PolyFraction with unit
    denominator; the check clears the denominators first.
    """
    gens = pres.generators
    assert set(pres.mult_table) == {
        (i, j) for i in range(len(gens)) for j in range(i, len(gens))
    }
    for (i, j), coeffs in pres.mult_table.items():
        fractions = [c for c in coeffs if isinstance(c, PolyFraction)]
        assert all(fr.is_in_S() and not fr.is_polynomial() for fr in fractions)
        common = gens[0].algebra.ring.one()
        for fr in fractions:
            common = common * fr.den
        acc = gens[0].algebra.zero()
        for coeff, gen in zip(coeffs, gens):
            if isinstance(coeff, PolyFraction):
                coeff = coeff.num * divide_exact(common, coeff.den)
            else:
                coeff = coeff * common
            acc = acc + gen.scale_poly(coeff)
        assert acc == k_mul(gens[i], gens[j]).scale_poly(common)


def test_classify_all_tags():
    assert classify(alg_of(RING_XYV, "X*V^2+4", "X*Y^2+4")) == OUTSIDE_SCOPE
    assert classify(alg_of(RINGU, "U^2*V^2+4", "U^2*Y^2+4")) == CASE_A_BOTH
    assert classify(alg_of(RING2, "X^2+4", "Y^2+2")) == CASE_A_ONE
    assert classify(alg_of(RING2, "X^2+2", "Y^2+2")) == CASE_B
    assert classify(alg_of(RING2, "X^2+2", "X^2*Y^2+2*Y^2+4")) == CASE_C_CM
    assert classify(alg_of(RING2, "-X^2+4", "-Y^2+4")) == CASE_C_NONCM_GRADE3
    assert (
        classify(alg_of(RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4"))
        == CASE_C_NONCM_GRADE2
    )
    assert len(CASE_TAGS) == 7


def test_classify_one_factor_in_2S():
    # Exactly one of f, g in 2S: S[sqrt(f)] is integrally closed, so
    # the pair routes through the one-sided normal analysis.
    assert classify(alg_of(RING2, "2*X", "Y^2+4")) == CASE_A_ONE
    assert classify(alg_of(RING2, "2*X", "Y^2+2")) == CASE_B


def test_classify_synthetic_exemplars():
    # Hand-derived inputs exercising each non-CM branch away from the
    # golden corpus polynomials.
    assert classify(alg_of(RING3, "3*V^2+4", "3*X^2+4")) == CASE_C_NONCM_GRADE3
    assert (
        classify(alg_of(RING3, "V^2*X^2+2*X^2+4", "V^2*Y^2+2*Y^2+4"))
        == CASE_C_NONCM_GRADE2
    )


def test_classify_conflict_guard():
    # Both f and g in 2S never reaches classify through make_algebra
    # (A1 rejects), but a hand-built descriptor must still be refused.
    f = parse_poly("2*X", RING2)
    g = parse_poly("2*Y", RING2)
    alg = AlgebraDesc(
        ring=RING2, f=f, g=g, wf=decompose_S2(f), wg=decompose_S2(g)
    )
    with pytest.raises(CaseConflictError):
        classify(alg)


def test_q_shape_values():
    shape = q_shape(alg_of(RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4"))
    assert (str(shape.z), str(shape.c), str(shape.e)) == ("V", "X", "Y")
    assert shape.tag == "Grade2Pd3"
    shape2 = q_shape(alg_of(RING2, "X^2+2", "X^2*Y^2+2*Y^2+4"))
    assert shape2.tag == "TwoGenerated"


def test_build_R_case_a_both():
    alg = alg_of(RINGU, "U^2*V^2+4", "U^2*Y^2+4")
    pres = build_R(alg, CASE_A_BOTH)
    assert pres.sfree
    assert len(pres.generators) == 4
    assert pres.mult_table is not None
    assert_table_recombines(pres)
    # tau_1 = (w + h1)/2 satisfies t^2 = h1 t + a', integral over S.
    t1 = pres.generators[1]
    assert t1.denom_exp == 1


def test_build_R_case_a_one():
    alg = alg_of(RING2, "X^2+4", "Y^2+2")
    pres = build_R(alg, CASE_A_ONE)
    assert pres.sfree and len(pres.generators) == 4
    assert_table_recombines(pres)


def test_build_R_case_b():
    alg = alg_of(RING2, "X^2+2", "Y^2+2")
    pres = build_R(alg, CASE_B)
    assert pres.sfree and len(pres.generators) == 4
    # Generators are 1, w, u, tau with tau fractional.
    assert pres.generators[1] == alg.root_f()
    assert pres.generators[2] == alg.root_g()
    assert pres.generators[3].denom_exp == 1


def test_build_R_case_c_cm_trims():
    alg = alg_of(RING2, "X^2+2", "X^2*Y^2+2*Y^2+4")
    pres = build_R(alg, CASE_C_CM)
    assert pres.sfree
    assert len(pres.generators) == 4
    assert_table_recombines(pres)


def test_build_R_case_c_cm_unit_cofactor_e(monkeypatch):
    # f and g of the test above swapped: now e is the unit cofactor, the
    # basis keeps u, and rho shares u's coordinate; it peels at w's
    # coordinate once tau is solved, so no elimination runs.
    alg = alg_of(RING2, "X^2*Y^2+2*Y^2+4", "X^2+2")
    eliminations = count_eliminations(monkeypatch)
    pres = build_R(alg, CASE_C_CM)
    assert eliminations == []
    assert pres.sfree
    assert pres.generators[1] == alg.root_g()
    assert_table_recombines(pres)


def test_build_R_case_c_cm_nonconstant_unit_cofactor(monkeypatch):
    # c = 1 + Y is a unit of S but not a constant, so rho's pivot is
    # (1 + Y)/2 and some table entries need the denominator 1 + Y; the
    # back-substitution forms them without an elimination.
    alg = alg_of(RING2, "X^2*(1+Y)^2+2*(1+Y)^2+4", "X^2*Y^2+2*Y^2+4")
    eliminations = count_eliminations(monkeypatch)
    pres = build_R(alg, CASE_C_CM)
    assert eliminations == []
    assert pres.sfree
    dens = {
        str(c.den)
        for row in pres.mult_table.values()
        for c in row
        if isinstance(c, PolyFraction)
    }
    assert dens == {"Y+1"}
    assert_table_recombines(pres)


def test_build_R_non_cm_five_generators():
    alg = alg_of(RING2, "-X^2+4", "-Y^2+4")
    pres = build_R(alg, CASE_C_NONCM_GRADE3)
    assert not pres.sfree
    assert len(pres.generators) == 5
    rel = pres.relation
    assert rel[-1] == RING2.const(2)
    # R = S^2 (+) Syz^2(S/Q): two free generators plus the three
    # columns of d2 of the verified resolution of S/Q.
    _, d2, _ = pres.resolution_S_mod_Q.complex.matrices
    assert len(pres.generators) == 2 + len(d2[0])
    # The relation annihilates the generator tuple in K.
    acc = alg.zero()
    for coeff, gen in zip(rel, pres.generators):
        acc = acc + gen.scale_poly(coeff)
    assert acc.is_zero()


@pytest.mark.parametrize(
    "ring,ftext,gtext,case,generator",
    [
        (RING2, "X^2+2", "Y^2+2", CASE_B, 3),  # case_b_synthetic
        # example_4_7_family1
        (RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4", CASE_C_NONCM_GRADE2, 3),
        (RING2, "X^2+2", "X^2*Y^2+2*Y^2+4", CASE_C_CM, 2),  # case_c_cm_synthetic
    ],
)
def test_build_R_rejects_a_wrong_local_factor(ring, ftext, gtext, case, generator):
    # local_factors checks nothing itself: the one claim k1 and k2 feed,
    # tau^2 = k1*k2, is the quadratic build_R verifies for tau.
    alg = alg_of(ring, ftext, gtext)
    k1, k2 = alg.local_factors
    alg.__dict__["local_factors"] = (k1 + alg.one(), k2)
    with pytest.raises(InternalVerificationError, match="generator %d " % generator):
        build_R(alg, case)


def test_build_R_wrong_case_raises():
    # Q here has shape Grade3CI, so asking for the grade-2 branch is a
    # detectable mismatch; the out-of-scope tag is refused outright.
    alg = alg_of(RING2, "X^2+2", "Y^2+2")
    with pytest.raises(WrongCaseError):
        build_R(alg, CASE_C_NONCM_GRADE2)
    alg_out = alg_of(RING_XYV, "X*V^2+4", "X*Y^2+4")
    with pytest.raises(WrongCaseError):
        build_R(alg_out, OUTSIDE_SCOPE)
    # A mismatched tag whose Q-shape happens to agree is only caught
    # by the closure verification, surfacing as an internal failure.
    with pytest.raises(InternalVerificationError):
        build_R(alg, CASE_C_NONCM_GRADE3)


def test_presentation_complex():
    alg = alg_of(RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4")
    pres = build_R(alg, CASE_C_NONCM_GRADE2)
    cx = presentation_complex(pres)
    assert check_composition_zero(cx)
    assert len(cx.matrices) == 1 and len(cx.matrices[0]) == 5
    # pd_S(R) = 1, so depth R = d - 1 = 3 by Auslander-Buchsbaum.
    assert pd_depth_report(cx) == (1, 3)
    sfree_pres = build_R(alg_of(RING2, "X^2+2", "Y^2+2"), CASE_B)
    with pytest.raises(WrongCaseError):
        presentation_complex(sfree_pres)


def test_residue_mod_P():
    alg = alg_of(RING2, "X^2+2", "Y^2+2")
    w = alg.root_f()
    # w == h1 mod P, so w - h1 has residue zero.
    assert residue_mod_P(w - alg.scalar(alg.h1())).is_zero()
    assert residue_mod_P(alg.scalar(2)).is_zero()
    assert not residue_mod_P(alg.one()).is_zero()
    with pytest.raises(ValueError):
        residue_mod_P(w.half())


def test_conductor_case_b():
    alg = alg_of(RING2, "X^2+2", "Y^2+2")
    rep = conductor(build_R(alg, CASE_B))
    assert rep.ideal is not None and rep.ideal.name == "P"
    assert rep.ideal_J is None


def test_conductor_grade3_is_I():
    alg = alg_of(RING2, "-X^2+4", "-Y^2+4")
    rep = conductor(build_R(alg, CASE_C_NONCM_GRADE3))
    assert rep.ideal is not None and rep.ideal.name == "I"
    assert rep.ideal_J.name == "J" and rep.R_in_J_star is True


def test_conductor_grade2_unavailable_with_J_datum():
    alg = alg_of(RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4")
    rep = conductor(build_R(alg, CASE_C_NONCM_GRADE2))
    assert rep.ideal is None
    assert CONDUCTOR_UNIDENTIFIED[CASE_C_NONCM_GRADE2]
    assert rep.ideal_J.name == "J" and rep.R_in_J_star is True


def test_conductor_case_a_unavailable():
    alg = alg_of(RINGU, "U^2*V^2+4", "U^2*Y^2+4")
    rep = conductor(build_R(alg, CASE_A_BOTH))
    assert rep.ideal is None and rep.ideal_J is None
    assert CONDUCTOR_UNIDENTIFIED[CASE_A_BOTH]


def test_certificate_grade3():
    alg = alg_of(RING2, "-X^2+4", "-Y^2+4")
    cert = build_small_cm_certificate(build_R(alg, CASE_C_NONCM_GRADE3))
    assert cert.all_pass()
    for name in ("P_free", "eta_conducts", "H_equals_I", "M_contains_eta"):
        assert cert.checks[name] is True


def test_certificate_grade2():
    alg = alg_of(RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4")
    cert = build_small_cm_certificate(build_R(alg, CASE_C_NONCM_GRADE2))
    assert cert.all_pass()


def test_certificate_synthetic_exemplars():
    cert3 = build_small_cm_certificate(
        build_R(alg_of(RING3, "3*V^2+4", "3*X^2+4"), CASE_C_NONCM_GRADE3)
    )
    assert cert3.all_pass()
    cert2 = build_small_cm_certificate(
        build_R(
            alg_of(RING3, "V^2*X^2+2*X^2+4", "V^2*Y^2+2*Y^2+4"), CASE_C_NONCM_GRADE2
        )
    )
    assert cert2.all_pass()


def product_ideal(a, b):
    # Every pairwise product; IdealGens checks that each lies in A.
    return IdealGens(a.algebra, [k_mul(x, y) for x in a.gens for y in b.gens], "I*P")


def perturbed_P(alg):
    # The second generator w - h1 scaled by the first variable.
    gens = ideal_P(alg).gens
    x = alg.ring.var(alg.ring.variables[0])
    return IdealGens(alg, [gens[0], gens[1].scale_poly(x), gens[2]], "P")


def perturbed_eta(alg):
    # (w + h1)(u + h2)/4 in place of /2.
    return prime_dual_gen(alg).half()


def perturbed_H(alg):
    # The generator (w + h1)(u + h2) with its sign flipped.
    gens = ideal_H(alg).gens
    return IdealGens(alg, [gens[0], alg.zero() - gens[1], gens[2]], "H")


@pytest.mark.parametrize(
    "ring,ftext,gtext,case",
    [
        (RING2, "-X^2+4", "-Y^2+4", CASE_C_NONCM_GRADE3),
        (RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4", CASE_C_NONCM_GRADE2),
        (RING3, "3*V^2+4", "3*X^2+4", CASE_C_NONCM_GRADE3),
    ],
)
def test_certificate_checks_can_fail(monkeypatch, ring, ftext, gtext, case):
    # Each check key reads False under a perturbed input; a new key with
    # no such guard fails the pinned key set.  Every key is decided once
    # per process on the generic algebra, so the generic cache is
    # emptied around each perturbation.
    pres = build_R(alg_of(ring, ftext, gtext), case)
    checks = build_small_cm_certificate(pres).checks
    guarded = {"P_free", "eta_conducts", "M_contains_eta", "H_equals_I"}
    assert set(checks) == guarded
    assert all(checks.values())
    failed = set()
    for name, perturbed, expect in (
        ("ideal_P", perturbed_P, {"P_free"}),
        ("prime_dual_gen", perturbed_eta, {"eta_conducts", "M_contains_eta"}),
        ("ideal_H", perturbed_H, {"H_equals_I"}),
    ):
        generic_claims.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(classifier, name, perturbed)
            checks = build_small_cm_certificate(pres).checks
        generic_claims.cache_clear()
        assert {k for k, ok in checks.items() if not ok} == expect, name
        failed |= expect
    assert failed == guarded


def test_generic_claims_hold():
    generic_claims.cache_clear()
    assert all(generic_claims())


# (identity, summand) of every summand of the three generating identities
SUMMANDS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


@pytest.mark.parametrize("identity,summand", SUMMANDS)
def test_a_wrong_sign_fails_the_generic_check(monkeypatch, identity, summand):
    # The generic algebra satisfies no identity by accident: the sign of
    # any one summand flipped makes the generic check fail, and the
    # certificate then refuses to rely on the resolution of I.
    original = classifier.generating_identities

    def wrong_sign(alg):
        out = original(alg)
        lhs, rhs = out[identity]
        rhs = tuple(alg.zero() - x if k == summand else x for k, x in enumerate(rhs))
        out[identity] = (lhs, rhs)
        return out

    pres = build_R(alg_of(RING2, "-X^2+4", "-Y^2+4"), CASE_C_NONCM_GRADE3)
    generic_claims.cache_clear()
    monkeypatch.setattr(classifier, "generating_identities", wrong_sign)
    try:
        assert generic_claims().resolution_of_I is False
        with pytest.raises(InternalVerificationError, match="generating identity"):
            build_small_cm_certificate(pres)
    finally:
        generic_claims.cache_clear()


def test_certificate_checks_the_job_witnesses():
    # The generic claims carry over only through f = h1^2 + 2a and
    # g = h2^2 + 2b: a witness a moved by 2 (same parity, same case) is
    # refused before any claim is read.
    alg = alg_of(RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4")
    pres = build_R(alg, CASE_C_NONCM_GRADE2)
    assert alg.witnesses_exact
    del alg.__dict__["witnesses_exact"]
    object.__setattr__(alg, "wf", S2Witness(alg.wf.h, alg.wf.a + alg.ring.const(2)))
    with pytest.raises(InternalVerificationError, match="witness identity"):
        build_small_cm_certificate(pres)


def test_certificate_raises_on_unsaturated_resolution(monkeypatch):
    # The resolution of I is no check key: building the certificate
    # raises when d_2 does not saturate ker(d_1).  That is decided on the
    # generic resolution, once per process.
    pres = build_R(alg_of(RING2, "-X^2+4", "-Y^2+4"), CASE_C_NONCM_GRADE3)
    generic_complexes.cache_clear()
    monkeypatch.setattr(classifier, "kernel_saturation_check", lambda cx: False)
    try:
        with pytest.raises(UnverifiedComplexError, match="saturate"):
            build_small_cm_certificate(pres)
    finally:
        generic_complexes.cache_clear()


def test_certificate_wrong_case():
    alg = alg_of(RING2, "X^2+2", "Y^2+2")
    with pytest.raises(WrongCaseError):
        build_small_cm_certificate(build_R(alg, CASE_B))


def test_certificate_module_membership_eta():
    # The certified module M = (IP)^* contains eta and A but eta is
    # genuinely outside A: the birational module is strictly larger.
    alg = alg_of(RING2, "-X^2+4", "-Y^2+4")
    cert = build_small_cm_certificate(build_R(alg, CASE_C_NONCM_GRADE3))
    ip = product_ideal(cert.ideal_I, cert.ideal_P)
    w, u = alg.root_f(), alg.root_g()
    h1, h2 = alg.scalar(alg.h1()), alg.scalar(alg.h2())
    eta = k_mul(w + h1, u + h2).half()
    assert in_colon(eta, ip)
    assert not a_membership(eta)
    assert in_colon(alg.one(), ip)


def agreement_jobs():
    """Both non-CM golden jobs, then the first generated pairs of each
    non-CM tag."""
    for name in ("example_4_7_family1", "example_4_7_family2"):
        yield json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    casegen = load_casegen()
    for tag in (casegen.C_GRADE2, casegen.C_GRADE3):
        jobs = (job for job, allowed in casegen.generate(AGREEMENT_SEED) if allowed[0] == tag)
        yield from itertools.islice(jobs, AGREEMENT_PAIRS_PER_TAG)


def generic_key(monkeypatch, eta_of):
    """generic_claims().M_contains_eta with prime_dual_gen as eta_of."""
    generic_claims.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(classifier, "prime_dual_gen", eta_of)
            return generic_claims().M_contains_eta
    finally:
        generic_claims.cache_clear()


def test_M_contains_eta_agrees_with_the_product_ideal(monkeypatch):
    # The certificate reads M_contains_eta from the generic algebra,
    # where it is decided as eta*i in P^* for each generator i of I.
    # On each job, in_colon against the nine products of I and P, the
    # same per-generator decision and the generic key must agree: true
    # for eta and false for eta/2.
    generic = {eta_of: generic_key(monkeypatch, eta_of)
               for eta_of in (prime_dual_gen, perturbed_eta)}
    for job in agreement_jobs():
        ring, f, g, _ = parse_job(job)
        alg = make_algebra(ring, f, g)
        pres = build_R(alg, classify(alg))
        p = ideal_P(alg)
        ip = product_ideal(pres.ideal_I, p)
        assert build_small_cm_certificate(pres).checks["M_contains_eta"] is True
        for eta_of, expect in ((prime_dual_gen, True), (perturbed_eta, False)):
            eta = eta_of(alg)
            per_generator = all(in_colon(k_mul(eta, i), p) for i in pres.ideal_I.gens)
            assert (
                in_colon(eta, ip) == per_generator == generic[eta_of] == expect
            ), (job, eta_of)


def test_conducts_relation_between_I_and_P():
    # x * P in R iff x * (I P) in A underlies membership in the
    # certified module; spot-check the containment I*P in A it relies on.
    alg = alg_of(RING2, "-X^2+4", "-Y^2+4")
    for gi in ideal_I(alg).gens:
        for gp in ideal_P(alg).gens:
            assert a_membership(k_mul(gi, gp))


def test_example_2_10_checks():
    ring = BaseRing(("X", "Y", "V"))
    assert example_2_10_identity(ring, multiplier=4)
    assert not example_2_10_identity(ring, multiplier=2)
    assert example_2_10_regression(ring) == []
    with pytest.raises(UnsupportedError):
        example_2_10_regression(BaseRing(("A", "B", "C")))


def test_example_2_10_regression_fails_when_a_check_fails(monkeypatch):
    # Each of the regression's two checks can fail on its own and names
    # what failed.
    ring = BaseRing(("X", "Y", "V"))
    with monkeypatch.context() as m:
        m.setattr(classifier, "classify", lambda alg: CASE_B)
        assert example_2_10_regression(ring) == [
            "classify gives %s, not %s" % (CASE_B, OUTSIDE_SCOPE)
        ]
    with monkeypatch.context() as m:
        m.setattr(classifier, "example_2_10_identity", lambda ring, multiplier=4: False)
        assert example_2_10_regression(ring) == ["identity with multiplier 4 does not hold"]
    assert example_2_10_regression(ring) == []


def test_classify_symmetry_spot():
    pairs = [
        ("X^2+2", "Y^2+2"),
        ("X^2+2", "X^2*Y^2+2*Y^2+4"),
        ("-X^2+4", "-Y^2+4"),
        ("X^2+4", "Y^2+2"),
    ]
    for ftext, gtext in pairs:
        a = classify(alg_of(RING2, ftext, gtext))
        b = classify(alg_of(RING2, gtext, ftext))
        assert a == b
