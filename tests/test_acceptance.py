"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test evaluates a list of named sub-checks against a fixed input
pair, prints a single PASS/FAIL line (bypassing capture so the verdict
is visible in the run log), and then asserts that every sub-check held,
listing the failures by name if not.
"""

from colon_oracle import (
    bounded_colon_search,
    in_A_plus_S_eta,
    in_A_plus_S_tau_rho,
)
from test_algebra import min_poly_check

from cmwitness.algebra import (
    a_membership,
    in_colon,
    k_mul,
    make_algebra,
)
from cmwitness.classifier import (
    CASE_A_BOTH,
    CASE_B,
    CASE_C_CM,
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    OUTSIDE_SCOPE,
    build_R,
    build_small_cm_certificate,
    classify,
    cm_verdict,
    conductor,
    example_2_10_identity,
    example_2_10_regression,
    hyper_closure_gen,
    ideal_I,
    ideal_P,
    presentation_complex,
    q_shape,
)
from cmwitness.homology import (
    be_exactness_check,
    check_composition_zero,
    pd_depth_report,
    resolution_of_S_mod_Q,
    standard_grade_certificates,
)
from cmwitness.linalg import bareiss_rank
from cmwitness.poly import BaseRing, is_even, parse_poly
from cmwitness.predicates import (
    decompose_S2,
    in_S2wedge4,
    is_squarefree,
    product_in_S2wedge4,
    satisfies_A1,
)

SEARCH_DEGREE = 6


def _verdict(capsys, number, title, checks):
    ok = all(flag for _, flag in checks)
    with capsys.disabled():
        print("ACCEPTANCE %d (%s): %s" % (number, title, "PASS" if ok else "FAIL"))
    failed = [label for label, flag in checks if not flag]
    assert not failed, "failed sub-checks: %s" % ", ".join(failed)


def _alg(ring, ftext, gtext):
    return make_algebra(ring, parse_poly(ftext, ring), parse_poly(gtext, ring))


def _tau(alg):
    return k_mul(
        alg.root_f() - alg.scalar(alg.h1()),
        alg.root_g() - alg.scalar(alg.h2()),
    ).half()


def _eta(alg):
    return k_mul(
        alg.root_f() + alg.scalar(alg.h1()),
        alg.root_g() + alg.scalar(alg.h2()),
    ).half()


def _rho(alg, shape):
    return (
        (alg.root_f() - alg.scalar(alg.h1())).scale_poly(shape.e)
        + (alg.root_g() - alg.scalar(alg.h2())).scale_poly(shape.c)
    ).half()


def test_acceptance_1_outside_scope(capsys):
    ring = BaseRing(("X", "Y", "V"))
    f = parse_poly("X*V^2+4", ring)
    g = parse_poly("X*Y^2+4", ring)
    alg = make_algebra(ring, f, g)
    v2 = parse_poly("V^2", ring)
    y2 = parse_poly("Y^2", ring)
    shift = parse_poly("4*V^2-4*Y^2", ring)
    psi = [[ring.const(0), parse_poly("Y", ring), parse_poly("-V", ring)]]
    checks = [
        ("f squarefree", is_squarefree(f)),
        ("g squarefree", is_squarefree(g)),
        ("pair satisfies the codimension-one condition", satisfies_A1(f, g)),
        ("f has no mod-2 square witness", decompose_S2(f) is None),
        ("g has no mod-2 square witness", decompose_S2(g) is None),
        ("classified outside scope", classify(alg) == OUTSIDE_SCOPE),
        ("no CM verdict outside scope", cm_verdict(OUTSIDE_SCOPE) is None),
        ("linking identity V^2*g = Y^2*f + 4*(V^2 - Y^2)", v2 * g == y2 * f + shift),
        ("linking identity holds with multiplier 4", example_2_10_identity(ring, multiplier=4)),
        ("linking identity fails with multiplier 2", not example_2_10_identity(ring, multiplier=2)),
        ("packaged regression check", example_2_10_regression(ring) == []),
        ("relation row [0, Y, -V] has rank 1", bareiss_rank(psi) == 1),
    ]
    _verdict(capsys, 1, "outside scope: no square witnesses, exact linking identity", checks)


def test_acceptance_2_both_hypersurfaces_non_normal(capsys):
    ring = BaseRing(("U", "Y", "V"))
    f = parse_poly("U^2*V^2+4", ring)
    g = parse_poly("U^2*Y^2+4", ring)
    wf4, wg4 = in_S2wedge4(decompose_S2(f)), in_S2wedge4(decompose_S2(g))
    alg = make_algebra(ring, f, g)
    case = classify(alg)
    rep = build_R(alg, case)
    t1 = hyper_closure_gen(alg, "f")
    t2 = hyper_closure_gen(alg, "g")
    checks = [
        (
            "f = (U*V)^2 + 4*1",
            wf4 is not None
            and wf4.h == parse_poly("U*V", ring)
            and wf4.a_prime == ring.const(1),
        ),
        (
            "g = (U*Y)^2 + 4*1",
            wg4 is not None
            and wg4.h == parse_poly("U*Y", ring)
            and wg4.a_prime == ring.const(1),
        ),
        ("classified with both roots half-integral", case == CASE_A_BOTH),
        ("closure is S-free on four generators", rep.sfree and len(rep.generators) == 4),
        (
            "generators are 1, tau1, tau2, tau1*tau2",
            rep.generators[0] == alg.one()
            and rep.generators[1] == t1
            and rep.generators[2] == t2
            and rep.generators[3] == k_mul(t1, t2),
        ),
        ("multiplication table recorded and closed", rep.mult_table is not None),
        (
            "tau1^2 = h1*tau1 + a'",
            min_poly_check(t1, alg.scalar(wf4.h), alg.scalar(wf4.a_prime)),
        ),
        (
            "tau2^2 = h2*tau2 + b'",
            min_poly_check(t2, alg.scalar(wg4.h), alg.scalar(wg4.a_prime)),
        ),
        (
            "closure is Cohen-Macaulay",
            rep.sfree is True and cm_verdict(case) is True,
        ),
    ]
    _verdict(capsys, 2, "free closure when both hypersurfaces are non-normal", checks)


def test_acceptance_3_grade2_family(capsys):
    ring = BaseRing(("V", "X", "Y"))
    f = parse_poly("V^2*X^2-2*X^2+4", ring)
    g = parse_poly("V^2*Y^2-2*Y^2+4", ring)
    alg = make_algebra(ring, f, g)
    case = classify(alg)
    shape = q_shape(alg)
    wf, wg = alg.wf, alg.wg
    crit = wf.a * (wg.h * wg.h) + wg.a * (wf.h * wf.h)
    pres = build_R(alg, CASE_C_NONCM_GRADE2)
    cert = build_small_cm_certificate(pres)
    cx = presentation_complex(pres)
    verified = check_composition_zero(cx) and be_exactness_check(
        cx, standard_grade_certificates(cx)
    )
    pd_bound, depth = pd_depth_report(cx)
    checks = [
        (
            "f witness (V*X, 2 - X^2)",
            wf.h == parse_poly("V*X", ring) and wf.a == parse_poly("2-X^2", ring),
        ),
        (
            "g witness (V*Y, 2 - Y^2)",
            wg.h == parse_poly("V*Y", ring) and wg.a == parse_poly("2-Y^2", ring),
        ),
        ("f has no refined square witness", in_S2wedge4(decompose_S2(f)) is None),
        ("g has no refined square witness", in_S2wedge4(decompose_S2(g)) is None),
        ("product criterion a*h2^2 + b*h1^2 is even", product_in_S2wedge4(wf, wg)),
        (
            "criterion value is 2*V^2*(X^2 + Y^2 - X^2*Y^2)",
            crit == parse_poly("2*V^2*X^2+2*V^2*Y^2-2*V^2*X^2*Y^2", ring)
            and is_even(crit),
        ),
        (
            "Q-shape (V, X, Y) of type Grade2Pd3",
            shape.tag == "Grade2Pd3"
            and str(shape.z) == "V"
            and str(shape.c) == "X"
            and str(shape.e) == "Y",
        ),
        (
            "classified non-CM of grade 2",
            case == CASE_C_NONCM_GRADE2 and cm_verdict(case) is False,
        ),
        ("closure reported non-CM", pres.sfree is False),
        ("certificate check P_free", cert.checks["P_free"]),
        ("certificate check eta_conducts", cert.checks["eta_conducts"]),
        ("certificate check H_equals_I", cert.checks["H_equals_I"]),
        ("certificate check M_contains_eta", cert.checks["M_contains_eta"]),
        ("certificate passes in full", cert.all_pass()),
        (
            "closure has projective dimension 1 over S",
            verified and (pd_bound, depth) == (1, 3),
        ),
    ]
    _verdict(capsys, 3, "grade-2 family: non-CM closure, certified small CM module", checks)


def test_acceptance_4_grade3_family(capsys):
    ring = BaseRing(("X", "Y"))
    f = parse_poly("-X^2+4", ring)
    g = parse_poly("-Y^2+4", ring)
    alg = make_algebra(ring, f, g)
    case = classify(alg)
    shape = q_shape(alg)
    pres = build_R(alg, case)
    cond = conductor(pres)
    cert = build_small_cm_certificate(pres)
    q_cx = resolution_of_S_mod_Q(shape.z, shape.c, shape.e)
    q_certs = standard_grade_certificates(q_cx)
    pair_ok = cond.ideal is not None and all(
        in_colon(r, cond.ideal) for r in pres.generators
    )
    checks = [
        (
            "Q-shape (1, X, Y) of type Grade3CI_NotTwoGen",
            shape.tag == "Grade3CI_NotTwoGen"
            and str(shape.z) == "1"
            and str(shape.c) == "X"
            and str(shape.e) == "Y",
        ),
        (
            "classified non-CM of grade 3",
            case == CASE_C_NONCM_GRADE3 and cm_verdict(case) is False,
        ),
        (
            "conductor identified as I and verified",
            cond.ideal is not None
            and cond.ideal.name == "I",
        ),
        ("every closure generator multiplies I into A", pair_ok),
        ("certificate passes in full", cert.all_pass()),
        (
            "depth witness for the length-3 stage is (2, X, Y)",
            [str(p) for p in q_certs[-1]] == ["2", "X", "Y"],
        ),
        ("S/Q resolution composes to zero", check_composition_zero(q_cx)),
        (
            "S/Q resolution exact by the rank-and-grade criterion",
            be_exactness_check(q_cx, q_certs),
        ),
    ]
    _verdict(capsys, 4, "grade-3 complete intersection family: conductor I certified", checks)


def test_acceptance_5_product_criterion_fails(capsys):
    ring = BaseRing(("X", "Y"))
    f = parse_poly("X^2+2", ring)
    g = parse_poly("Y^2+2", ring)
    alg = make_algebra(ring, f, g)
    case = classify(alg)
    pres = build_R(alg, case)
    tau = _tau(alg)
    k1 = alg.scalar(alg.h1() * alg.h1() + alg.wf.a) - alg.root_f().scale_poly(alg.h1())
    k2 = alg.scalar(alg.h2() * alg.h2() + alg.wg.a) - alg.root_g().scale_poly(alg.h2())
    cond = conductor(pres)
    checks = [
        ("f squarefree", is_squarefree(f)),
        ("g squarefree", is_squarefree(g)),
        ("pair satisfies the codimension-one condition", satisfies_A1(f, g)),
        (
            "product criterion fails: a*h2^2 + b*h1^2 is odd",
            not product_in_S2wedge4(alg.wf, alg.wg),
        ),
        ("classified CaseB", case == CASE_B),
        (
            "closure generated by 1, w, u, tau",
            pres.sfree
            and len(pres.generators) == 4
            and pres.generators[0] == alg.one()
            and pres.generators[1] == alg.root_f()
            and pres.generators[2] == alg.root_g()
            and pres.generators[3] == tau,
        ),
        (
            "tau^2 = k1*k2",
            k_mul(tau, tau) == k_mul(k1, k2)
            and min_poly_check(tau, alg.zero(), k_mul(k1, k2)),
        ),
        (
            "recorded quadratics all verify",
            all(
                min_poly_check(pres.generators[i], c1, c0)
                for i, c1, c0 in pres.quadratics
            ),
        ),
        (
            "conductor identified as P and verified",
            cond.ideal is not None
            and cond.ideal.name == "P",
        ),
        (
            "closure is Cohen-Macaulay",
            pres.sfree is True and cm_verdict(case) is True,
        ),
    ]
    _verdict(capsys, 5, "odd product criterion: closure A + S*tau, conductor P", checks)


def test_acceptance_6_two_generated_Q(capsys):
    ring = BaseRing(("X", "Y"))
    f = parse_poly("X^2+2", ring)
    g = parse_poly("X^2*Y^2+2*Y^2+4", ring)
    alg = make_algebra(ring, f, g)
    case = classify(alg)
    shape = q_shape(alg)
    wf, wg = alg.wf, alg.wg
    crit = wf.a * (wg.h * wg.h) + wg.a * (wf.h * wf.h)
    pres = build_R(alg, case)
    checks = [
        ("f squarefree", is_squarefree(f)),
        ("g squarefree", is_squarefree(g)),
        ("pair satisfies the codimension-one condition", satisfies_A1(f, g)),
        ("f witness (X, 1)", wf.h == parse_poly("X", ring) and wf.a == ring.const(1)),
        (
            "g witness (X*Y, Y^2 + 2)",
            wg.h == parse_poly("X*Y", ring) and wg.a == parse_poly("Y^2+2", ring),
        ),
        (
            "product criterion value X^2*(2*Y^2 + 2) is even",
            product_in_S2wedge4(wf, wg)
            and crit == parse_poly("2*X^2*Y^2+2*X^2", ring)
            and is_even(crit),
        ),
        (
            "Q = (2, X, X*Y) is two-generated: shape (X, 1, Y)",
            shape.tag == "TwoGenerated"
            and str(shape.z) == "X"
            and str(shape.c) == "1"
            and str(shape.e) == "Y",
        ),
        (
            "classified CM with two-generated Q",
            case == CASE_C_CM and cm_verdict(case) is True,
        ),
        (
            "closure trims to four free generators",
            pres.sfree and len(pres.generators) == 4,
        ),
    ]
    _verdict(capsys, 6, "two-generated Q: Cohen-Macaulay closure", checks)


def test_acceptance_7_property_suites(capsys):
    import test_properties as props

    suites = [
        ("reduction mod 2 is a ring homomorphism", props.test_reduce_mod2_is_ring_homomorphism),
        ("sqrt of square roundtrip", props.test_sqrt_of_square_roundtrip),
        ("square witness lift independence", props.test_s2wedge4_lift_independence),
        ("classify symmetric in f and g", props.test_classify_symmetric_in_f_and_g),
        ("case tag invariant under unit squares", props.test_case_tag_invariant_under_unit_squares),
        ("k_mul associative and commutative", props.test_k_mul_associative_commutative),
        ("conductor products land in A", props.test_conductor_products_land_in_A),
        ("emitted complexes compose to zero", props.test_emitted_complexes_compose_to_zero),
    ]
    checks = []
    for label, fn in suites:
        try:
            fn()
            ok = True
        except AssertionError:
            ok = False
        checks.append((label, ok))
    _verdict(capsys, 7, "randomized property suites, fixed seeds, zero failures", checks)


def test_acceptance_8_oracle_equivalence(capsys):
    cases = [
        ("grade-2 family", BaseRing(("V", "X", "Y")),
         "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4", True),
        ("grade-3 family", BaseRing(("X", "Y")), "-X^2+4", "-Y^2+4", True),
        ("odd-criterion pair", BaseRing(("X", "Y")), "X^2+2", "Y^2+2", False),
        ("two-generated pair", BaseRing(("X", "Y")),
         "X^2+2", "X^2*Y^2+2*Y^2+4", False),
    ]
    checks = []
    for label, ring, ftext, gtext, has_conductor_i in cases:
        alg = _alg(ring, ftext, gtext)
        eta = _eta(alg)
        p_ideal = ideal_P(alg)
        found_p = bounded_colon_search(p_ideal, 1, SEARCH_DEGREE)
        frac_p = [x for x in found_p if x.denom_exp == 1]
        checks.append(
            ("%s: P-search basis lies in A + S*eta" % label,
             all(in_A_plus_S_eta(x, eta) for x in found_p)),
        )
        checks.append(
            ("%s: eta conducts P into A" % label,
             in_colon(eta, p_ideal)),
        )
        checks.append(
            ("%s: eta is fractional yet recovered from the basis" % label,
             not a_membership(eta)
             and any(
                 a_membership(eta - x) or a_membership(eta + x) for x in frac_p
             )),
        )
        if not has_conductor_i:
            continue
        shape = q_shape(alg)
        tau, rho = _tau(alg), _rho(alg, shape)
        i_ideal = ideal_I(alg)
        found_i = bounded_colon_search(i_ideal, 1, SEARCH_DEGREE)
        rows = [list(x.coords) for x in found_i]
        ident = [
            [ring.const(1 if i == j else 0) for j in range(4)] for i in range(4)
        ]
        constructed = [
            list(alg.one().coords), list(tau.coords), list(rho.coords)
        ]
        pres = build_R(alg, classify(alg))
        pres_rank = len(pres.generators) - 1
        checks.append(
            ("%s: I-search basis lies in A + S*tau + S*rho" % label,
             all(in_A_plus_S_tau_rho(x, alg, shape, tau, rho) for x in found_i)),
        )
        checks.append(
            ("%s: tau and rho conduct I into A" % label,
             in_colon(tau, i_ideal) and in_colon(rho, i_ideal)),
        )
        checks.append(
            ("%s: dual span rank equals presentation rank 4" % label,
             bareiss_rank(rows + ident) == 4 and pres_rank == 4
             and len(pres.relation) == len(pres.generators)),
        )
        checks.append(
            ("%s: fractional layer rank matches 1, tau, rho" % label,
             bareiss_rank(rows) == bareiss_rank(constructed)),
        )
    _verdict(capsys, 8, "bounded dual search matches the constructed closures", checks)
