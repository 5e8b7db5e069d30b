"""Classify the integral closure R of A = S[w, u] and certify the verdict.

The trichotomy is driven entirely by square structure of f, g mod 2 and
mod 4:

* CaseA_*   -- f and/or g is a square mod 4 (witnessed by h, a' with
               f = h^2 + 4a'); the corresponding hypersurface ring is
               non-normal and R splits as a tensor product of the two
               quadratic closures.
* CaseB     -- neither is a square mod 4 and neither is the product:
               a*h2^2 + b*h1^2 is odd somewhere.  R = A + S*tau with
               tau = (w - h1)(u - h2)/2, and R is Cohen-Macaulay with
               conductor P = (2, w - h1, u - h2).
* CaseC_*   -- the product f*g is a square mod 4.  The shape of the
               residue ideal Q = (2, h1, h2) decides everything:
               Q two-generated or a unit ideal gives a free (hence CM)
               closure; otherwise R is not CM and the package builds a
               machine-checkable certificate that M = (IP)^* is a
               birational small CM module.

All claimed identities are verified with exact arithmetic; any failure
raises InternalVerificationError rather than producing an unverified
report.  The certificate's checks and every presentation of R,
identities or power-of-2 divisibilities in the witnesses, are decided
once per process on one generic algebra per tag (_generic_algebra, read
by generic_presentation and generic_claims; the two non-CM tags share
one); each job checks the identities that carry them over to its
values (_witness_images), and every other claim is verified on the job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import prod
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .algebra import (
    AlgebraDesc,
    IdealGens,
    KElement,
    express_in_span,
    generator_products,
    in_colon,
    k_mul,
    make_algebra,
    span_closure_check,
)
from .errors import (
    CaseConflictError,
    InternalVerificationError,
    SpanNotFreeError,
    UnsupportedError,
    UnverifiedComplexError,
    WrongCaseError,
)
from .homology import (
    FreeComplex,
    VerifiedComplex,
    generating_identities,
    kernel_saturation_check,
    resolution_of_I,
    resolution_of_I_complex,
    resolution_of_S_mod_Q,
    verify_complex,
    verify_specialised,
)
from .linalg import PolyFraction, poly_det
from .poly import (
    BaseRing,
    Poly,
    compose,
    divide_exact,
    f2_divide_exact,
    frobenius_mod2,
    half,
    is_even,
    parse_poly,
    poly_dot,
    reduce_mod_2k,
)
from .predicates import QShape, S2Witness

OUTSIDE_SCOPE = "OutsideScope_not_S2"
CASE_A_BOTH = "CaseA_bothHypersurfacesNonNormal"
CASE_A_ONE = "CaseA_oneHypersurfaceNonNormal"
CASE_B = "CaseB_productNotS2w4"
CASE_C_CM = "CaseC_CM_twoGenerated"
CASE_C_NONCM_GRADE3 = "CaseC_NonCM_grade3"
CASE_C_NONCM_GRADE2 = "CaseC_NonCM_grade2"

CASE_TAGS = (
    OUTSIDE_SCOPE,
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_B,
    CASE_C_CM,
    CASE_C_NONCM_GRADE3,
    CASE_C_NONCM_GRADE2,
)

CaseTag = str

_NON_CM_CASES = (CASE_C_NONCM_GRADE3, CASE_C_NONCM_GRADE2)


def cm_verdict(case: CaseTag) -> Optional[bool]:
    """Whether R is Cohen-Macaulay, from the case tag alone: None
    outside the covered scope (the structure theory makes no claim
    there, so the report carries null), False exactly for the two
    non-CM tags.
    """
    if case == OUTSIDE_SCOPE:
        return None
    return case not in _NON_CM_CASES


# ---------------------------------------------------------------------------
# classification


def q_shape(alg: AlgebraDesc) -> QShape:
    """Shape of the residue ideal Q = (2, h1, h2), cached on the algebra."""
    return alg.q_shape


def classify(alg: AlgebraDesc) -> CaseTag:
    """Place the algebra in the case trichotomy.

    OutsideScope when f or g is not a square mod 2 (the toolkit's
    structure theory needs both residues to be squares); otherwise the
    mod-4 structure of f, g and of their product decides the case, and
    in the product-square case the shape of Q = (2, h1, h2) splits
    CaseC into its CM and two non-CM subcases.
    """
    if alg.wf is None or alg.wg is None:
        return OUTSIDE_SCOPE
    if alg.w4f is not None and alg.w4g is not None:
        return CASE_A_BOTH
    if alg.w4f is not None or alg.w4g is not None:
        return CASE_A_ONE
    if is_even(alg.f) and is_even(alg.g):
        # both in 2S is already excluded by the admissibility checks
        raise CaseConflictError(
            "f and g both lie in 2S; the pair should have been rejected"
        )
    if not alg.fg_in_S2wedge4:
        return CASE_B
    return _case_c_tag(alg.q_shape)


def _case_c_tag(shape: QShape) -> CaseTag:
    """The CaseC subcase selected by the shape of Q."""
    if shape.tag in ("TwoGenerated", "UnitIdeal"):
        return CASE_C_CM
    if shape.tag == "Grade3CI_NotTwoGen":
        return CASE_C_NONCM_GRADE3
    return CASE_C_NONCM_GRADE2


# ---------------------------------------------------------------------------
# distinguished elements of K


def hyper_closure_gen(alg: AlgebraDesc, side: str) -> KElement:
    """(root + h)/2 for a side whose polynomial is a square mod 4.

    Integral with minimal quadratic T^2 - h*T - a' where the side's
    polynomial is h^2 + 4a'; generic_presentation verifies it.
    """
    if side not in ("f", "g"):
        raise ValueError("side must be 'f' or 'g'")
    w4 = alg.w4f if side == "f" else alg.w4g  # build_R checks the side is in S^{2,4}
    root = alg.root_f() if side == "f" else alg.root_g()
    return (root + alg.scalar(w4.h)).half()


def product_closure_gen(alg: AlgebraDesc) -> KElement:
    """tau = (w - h1)(u - h2)/2 = (h1h2, -h2, -h1, 1)/2, integral with
    tau^2 = k1*k2 (checked with the presentation)."""
    return alg.root_product(-alg.h1(), -alg.h2()).half()


def prime_dual_gen(alg: AlgebraDesc) -> KElement:
    """eta = (w + h1)(u + h2)/2, the fractional generator of P^*."""
    return alg.dual_product.half()


def mixed_syzygy_gen(alg: AlgebraDesc, c: Poly, e: Poly) -> KElement:
    """rho = (e(w - h1) + c(u - h2))/2 for lifted cofactors c, e.

    Integral because 2*rho and rho^2 = e^2*k1 + c^2*k2 + 2ce*tau lie in
    A + S*tau; membership of rho itself in R is checked by the callers
    with the colon test in_colon.
    """
    left = (alg.root_f() - alg.scalar(alg.h1())).scale_poly(e)
    right = (alg.root_g() - alg.scalar(alg.h2())).scale_poly(c)
    return (left + right).half()


# ---------------------------------------------------------------------------
# distinguished ideals of A


def ideal_P(alg: AlgebraDesc) -> IdealGens:
    """P = (2, w - h1, u - h2), the unique height-one prime over 2."""
    return IdealGens(
        algebra=alg,
        gens=[
            alg.scalar(2),
            alg.root_f() - alg.scalar(alg.h1()),
            alg.root_g() - alg.scalar(alg.h2()),
        ],
        name="P",
    )


def ideal_I(alg: AlgebraDesc) -> IdealGens:
    """I = (2, wu - h1h2, h2w - h1u)."""
    h1, h2 = alg.h1(), alg.h2()
    return IdealGens(
        algebra=alg,
        gens=[
            alg.scalar(2),
            alg.root_fg() - alg.scalar(h1 * h2),
            alg.root_f().scale_poly(h2) - alg.root_g().scale_poly(h1),
        ],
        name="I",
    )


def ideal_J(alg: AlgebraDesc) -> IdealGens:
    """J = (2, wu - h1h2)."""
    return IdealGens(
        algebra=alg,
        gens=[alg.scalar(2), alg.root_fg() - alg.scalar(alg.h1() * alg.h2())],
        name="J",
    )


def ideal_H(alg: AlgebraDesc) -> IdealGens:
    """H = (2, (w + h1)(u + h2), wu - h1h2); equals I by an identity."""
    return IdealGens(
        algebra=alg,
        gens=[
            alg.scalar(2),
            alg.dual_product,
            alg.root_fg() - alg.scalar(alg.h1() * alg.h2()),
        ],
        name="H",
    )


def residue_mod_P(x: KElement) -> Poly:
    """Image of x in A/P = S/2S = F_2[x1..xn] as a 0/1 Poly; requires x in A.

    w and u map to h1 and h2 mod 2, so the image is one poly_dot on
    residues mod 2.
    """
    if x.denom_exp != 0:
        raise ValueError("residue mod P is defined for elements of A only")
    alg = x.algebra
    h1, h2 = reduce_mod_2k(alg.h1(), 1), reduce_mod_2k(alg.h2(), 1)
    n0, n1, n2, n3 = (reduce_mod_2k(c, 1) for c in x.coords)
    pairs = ((n0, alg.ring.one()), (n1, h1), (n2, h2), (n3, h1 * h2))
    return reduce_mod_2k(poly_dot(alg.ring, pairs), 1)


# ---------------------------------------------------------------------------
# ring presentations


@dataclass
class RingPresentation:
    """The integral closure R, either S-free or presented by a relation.

    When ``sfree`` is true, ``generators`` is a free S-basis of R and
    ``mult_table`` holds the verified multiplication table: key (i, j),
    i <= j, maps to the coefficients in S over the generators of the
    product of generators i and j (see span_closure_check).  Otherwise
    ``generators`` is a module generating set with the single
    ``relation`` (its rank-2 free part and the Syz^2 block of the
    verified ``resolution_S_mod_Q`` give R = S^2 (+) Syz^2(S/Q)), and
    ``ideal_I`` is the ideal I, verified to multiply every generator and
    every product of two generators into A.  Each (i, c1, c0) of
    ``quadratics`` is a verified x^2 = c1*x + c0 for generator i.  In
    CaseC, ``R_in_J_star`` says whether every generator multiplies
    J = (2, wu - h1h2) into A.  ``sfree`` is also the CM verdict: by
    Auslander-Buchsbaum over the regular S, R is CM exactly when it is
    S-free.
    """

    case: CaseTag
    sfree: bool
    generators: List[KElement]
    mult_table: Optional[Dict[Tuple[int, int], List[Union[Poly, PolyFraction]]]] = None
    quadratics: List[Tuple[int, KElement, KElement]] = field(default_factory=list)
    relation: Optional[List[Poly]] = None
    resolution_S_mod_Q: Optional[VerifiedComplex] = None
    ideal_I: Optional[IdealGens] = None
    R_in_J_star: Optional[bool] = None


def _root_quadratics(
    alg: AlgebraDesc, squares: List[Poly]
) -> List[Tuple[int, KElement, KElement]]:
    """x^2 = square for the roots (generators 1, ...), one per square,
    then tau^2 = k1*k2 for tau, the generator after them.  k1*k2 is
    formed here, on its own, and _verified_presentation compares it with
    tau's square."""
    k1, k2 = alg.local_factors
    zero = alg.zero()
    roots = [(i, zero, alg.scalar(square)) for i, square in enumerate(squares, 1)]
    return roots + [(len(squares) + 1, zero, k_mul(k1, k2))]


def build_R(alg: AlgebraDesc, case: CaseTag) -> RingPresentation:
    """Generators (and, when finite free, the full table) for R.

    CaseA: tensor product of the one-variable closures.  CaseB: free on
    {1, w, u, tau}.  CaseC with Q two-generated or a unit ideal: free
    on {1, w-or-u, tau, rho}, dropping whichever of w, u the unit
    cofactor makes redundant.  CaseC otherwise: five module generators
    {1, w, u, tau, rho} with the single relation
    (e*h1 + c*h2) - e*w - c*u + 2*rho = 0, so R = S^2 (+) Syz^2(S/Q).
    WrongCase unless case is classify(alg), in scope.  Every tag
    specialises generic_presentation by compose at the job's values
    (_witness_images): the generators, the table (a fraction's numerator
    and denominator composed, then reduced; the denominator must be a
    unit of S), the quadratics, the relation, I and the J datum.  A job
    with the square mod 4 (CaseA_one) or the unit cofactor (CaseC_CM)
    on g reads the presentation built with it on f: A(G, F) is
    isomorphic to A(F, G) by w <-> u, which maps the generic generators,
    in order, onto the job's, so the coordinates of w and u swap.  The
    resolution of S/Q of a non-free R is verified on the job.
    """
    if case == OUTSIDE_SCOPE or case != classify(alg):
        raise WrongCaseError("no closure presentation for %s on this algebra" % (case,))
    images, memo, one = _witness_images(alg, case), {}, alg.ring.one()
    order = (0, 2, 1, 3) if _swapped(alg, case) else (0, 1, 2, 3)
    gen = generic_presentation(_GENERIC_TAG.get(case, case))

    def poly(p: Poly) -> Poly:
        return compose(p, images, memo)

    def image(x: KElement) -> KElement:
        coords = [poly(p) for p in x.coords]
        return alg.element([coords[i] for i in order], x.denom_exp)

    def entry(t: Union[Poly, PolyFraction]) -> Union[Poly, PolyFraction]:
        if isinstance(t, Poly):
            return poly(t)
        num, den = poly(t.num), poly(t.den)
        if den == one:  # c = 1 in CaseC_CM
            return num
        fr = PolyFraction(num, den)
        if not fr.is_in_S():
            raise InternalVerificationError("a table denominator is no unit of S")
        return fr.num if fr.is_polynomial() else fr

    quadratics = [(i, image(c1), image(c0)) for i, c1, c0 in gen.quadratics]
    pres = RingPresentation(case, gen.sfree, [image(x) for x in gen.generators],
                            quadratics=quadratics, R_in_J_star=gen.R_in_J_star)
    if gen.sfree:
        pres.mult_table = {key: [entry(t) for t in sol] for key, sol in gen.mult_table.items()}
    else:
        pres.relation = [poly(p) for p in gen.relation]
        pres.ideal_I = IdealGens(alg, [image(x) for x in gen.ideal_I.gens], name="I")
        zce = (alg.q_shape.z, alg.q_shape.c, alg.q_shape.e)
        res_q = resolution_of_S_mod_Q(*zce)
        pres.resolution_S_mod_Q = verify_specialised(res_q, generic_complexes()[0], zce)
    return pres


def _swapped(alg: AlgebraDesc, case: CaseTag) -> bool:
    """Whether a job reads its generic presentation through w <-> u: g
    the square mod 4 (CaseA_one), e the unit cofactor (CaseC_CM)."""
    if case == CASE_A_ONE:
        return alg.w4f is None
    return case == CASE_C_CM and not alg.q_shape.c.is_unit()


def _witness_images(alg: AlgebraDesc, case: CaseTag) -> Tuple[Poly, ...]:
    """The job's values of the variables of _generic_algebra(case), once
    the identities that make them a ring map A_gen -> A hold exactly
    (InternalVerification otherwise): p = h^2 + 4a' for each side p in
    S^{2,4} (CaseA), then (h, a') per side and the other side's
    polynomial; f = h1^2 + 2a and g = h2^2 + 2b, then (h1, a, h2, b)
    (CaseB); and in CaseC also h1 = zc + 2d1, h2 = ze + 2d2,
    a = c^2U + 2a1, b = e^2U + 2b1 (f and g exchanged when _swapped),
    then _case_c_values, with K = c - 1 for c in CaseC_CM."""
    ring = alg.ring
    if case in (CASE_A_BOTH, CASE_A_ONE):
        pairs = ((alg.f, alg.w4f), (alg.g, alg.w4g))
        sides = [(p, w4.h, w4.a_prime) for p, w4 in pairs if w4 is not None]
        scale, identity = 4, "h^2 + 4a'"
        other = (alg.g if alg.w4f is not None else alg.f,) if case == CASE_A_ONE else ()
    else:
        sides = [(alg.f, alg.h1(), alg.a()), (alg.g, alg.h2(), alg.b())]
        scale, identity, other = 2, "f = h1^2 + 2a or g = h2^2 + 2b", ()
    checks = [(identity, p, h, h, rest, scale) for p, h, rest in sides]
    values = tuple(x for _, h, rest in sides for x in (h, rest)) + other
    if case in (CASE_C_CM, *_NON_CM_CASES):
        swap = _swapped(alg, case)
        (_, h1, a), (_, h2, b) = sides[::-1] if swap else sides
        values = z, c, e, d1, d2, u, a1, b1 = _case_c_values(alg, swap)
        checks += [("h1 = zc + 2d1", h1, z, c, d1, 2), ("h2 = ze + 2d2", h2, z, e, d2, 2),
                   ("a = c^2U + 2a1", a, c * c, u, a1, 2), ("b = e^2U + 2b1", b, e * e, u, b1, 2)]
        if case == CASE_C_CM:
            values = (z, c - ring.one()) + values[2:]
    for name, p, x, y, rest, k in checks:
        if poly_dot(ring, ((x, y), (rest, ring.const(k)))) != p:
            raise InternalVerificationError("witness identity %s fails" % name)
    return values


def _case_c_values(alg: AlgebraDesc, swap: bool) -> Tuple[Poly, ...]:
    """(z, c, e, d1, d2, U, a1, b1) of a CaseC job, f and g exchanged
    when swap: (z, c, e) the shape of Q, d1 = (h1 - zc)/2, d2 =
    (h2 - ze)/2, U = a/c^2 mod 2, a1 = (a - c^2U)/2, b1 = (b - e^2U)/2;
    NotDivisible outside CaseC (see _generic_algebra)."""
    shape = alg.q_shape
    sides = [(alg.h1(), alg.a(), shape.c), (alg.h2(), alg.b(), shape.e)]
    (h1, a, c), (h2, b, e) = sides[::-1] if swap else sides
    z, u = shape.z, f2_divide_exact(a, frobenius_mod2(c))
    return z, c, e, half(h1 - z * c), half(h2 - z * e), u, half(a - c * c * u), half(b - e * e * u)


def _verified_presentation(alg: AlgebraDesc, case: CaseTag) -> Tuple[RingPresentation, dict]:
    """R built and verified on alg, and its generator products (each formed
    once), which the span closure or colon tests and the quadratics read.
    CaseA_one takes f as the square mod 4, CaseC_CM c as the unit
    cofactor, as the generic algebras have them."""
    one = alg.one()
    if case == CASE_A_BOTH:
        t1 = hyper_closure_gen(alg, "f")
        t2 = hyper_closure_gen(alg, "g")
        # t1*t2 = (w + h1)(u + h2)/4, the h's of the S^{2,4} witnesses
        gens = [one, t1, t2, alg.root_product(alg.w4f.h, alg.w4g.h).half().half()]
        quadratics = [
            (i, alg.scalar(w4.h), alg.scalar(w4.a_prime))
            for i, w4 in ((1, alg.w4f), (2, alg.w4g))
        ]
    elif case == CASE_A_ONE:
        t, u, w4 = hyper_closure_gen(alg, "f"), alg.root_g(), alg.w4f
        # u * (w + h)/2 = (wu + h*u)/2
        gens = [one, u, t, (alg.root_fg() + u.scale_poly(w4.h)).half()]
        quadratics = [
            (1, alg.zero(), alg.scalar(alg.g)),
            (2, alg.scalar(w4.h), alg.scalar(w4.a_prime)),
        ]
    elif case == CASE_B:
        gens = [one, alg.root_f(), alg.root_g(), product_closure_gen(alg)]
        quadratics = _root_quadratics(alg, [alg.f, alg.g])
    else:
        shape = alg.q_shape
        tau, rho = product_closure_gen(alg), mixed_syzygy_gen(alg, shape.c, shape.e)
        if case == CASE_C_CM:
            gens, quadratics = [one, alg.root_f(), tau, rho], _root_quadratics(alg, [alg.f])
        else:
            gens = [one, alg.root_f(), alg.root_g(), tau, rho]
            quadratics = _root_quadratics(alg, [alg.f, alg.g])
    products = generator_products(gens)
    if case not in _NON_CM_CASES:
        pres = RingPresentation(case, True, gens, span_closure_check(gens, products), quadratics)
    else:
        # the relation, and every product of two generators (gens[0] = 1,
        # so each generator too) in (A : I)
        c, e = alg.q_shape.c, alg.q_shape.e
        relation = [e * alg.h1() + c * alg.h2(), -e, -c, alg.ring.zero(), alg.ring.const(2)]
        if not sum((x.scale_poly(r) for r, x in zip(relation, gens)), alg.zero()).is_zero():
            raise InternalVerificationError("module relation for R fails")
        i_ideal = ideal_I(alg)
        for (i, j), x in products.items():
            if not in_colon(x, i_ideal):
                raise InternalVerificationError("product of generators %d and %d leaves R" % (i, j))
        pres = RingPresentation(case, False, gens, None, quadratics, relation, ideal_I=i_ideal)
    for idx, c1, c0 in quadratics:
        # every recorded c1 is a scalar of S: zero, or h in CaseA
        rhs = c0 if c1.is_zero() else gens[idx].scale_poly(c1.coords[0]) + c0
        if products[idx, idx] != rhs:
            raise InternalVerificationError("recorded quadratic for generator %d fails" % idx)
    if case in (CASE_C_CM, *_NON_CM_CASES):
        pres.R_in_J_star = all(in_colon(x, ideal_J(alg)) for x in gens)
    return pres, products


# The generic presentation a tag reads: the two non-CM tags share one.
_GENERIC_TAG = {CASE_C_NONCM_GRADE2: CASE_C_NONCM_GRADE3}


@cache
def _generic_algebra(case: CaseTag) -> AlgebraDesc:
    """A_gen of a tag, built from given witnesses, not by make_algebra:
    f = H1^2 + 4A4, g = H2^2 + 4B4 over Z[H1, A4, H2, B4] (CaseA_both);
    f = H^2 + 4A4, g = G over Z[H, A4, G] (CaseA_one); f = H1^2 + 2A,
    g = H2^2 + 2B over Z[H1, A, H2, B] (CaseB, and generic_claims);
    f = h1^2 + 2a, g = h2^2 + 2b with h1 = ZC + 2D1, h2 = ZE + 2D2,
    a = C^2U + 2A1, b = E^2U + 2B1 over Z[Z, C, E, D1, D2, U, A1, B1]
    (the non-CM tags, under CASE_C_NONCM_GRADE3), and the same with
    C = 1 + K over Z[Z, K, E, ...] for CaseC_CM, so that rho's pivot C/2
    and the table's denominators are units of S.  Every CaseC job has
    such values (_case_c_values): CaseC makes a*e^2 + b*c^2 even, and c,
    e are nonzero and coprime mod 2, so a = c^2U and b = e^2U mod 2."""
    names = {CASE_A_BOTH: "H1 A4 H2 B4", CASE_A_ONE: "H A4 G", CASE_B: "H1 A H2 B"}.get(
        case, "Z %s E D1 D2 U A1 B1" % ("K" if case == CASE_C_CM else "C"))
    x = BaseRing(tuple(names.split())).gens()
    if case in (CASE_C_CM, CASE_C_NONCM_GRADE3):
        z, c, e, d1, d2, u, a1, b1 = x
        if case == CASE_C_CM:
            c = c + z.ring.one()
        two = z.ring.const(2)
        h1, h2 = z * c + two * d1, z * e + two * d2
        wits = [S2Witness(h1, c * c * u + two * a1), S2Witness(h2, e * e * u + two * b1)]
    else:
        k = 1 if case == CASE_B else 2
        wits = [S2Witness(x[0], x[1].scale(k)), S2Witness(x[2], x[3].scale(k)) if x[3:] else None]
    f, g = (w.h * w.h + w.a.scale(2) if w else x[2] for w in wits)
    return AlgebraDesc(x[0].ring, f, g, *wits)


@cache
def generic_presentation(case: CaseTag) -> RingPresentation:
    """R of a tag, built by _verified_presentation once per process on
    _generic_algebra(case).  Each table entry, a polynomial or a fraction
    with unit denominator, must recombine to its product once the
    denominators are cleared; in CaseB P must conduct R (in_colon).

    Why a job may read it (the specialisation argument): the job's
    values, checked exactly by _witness_images (H1 -> h1, A -> a, ...;
    Z -> z, C -> c or K -> c - 1, D1 -> d1, ...), give a ring map from
    the generic base ring to Z[x] that sends the generic f, g to the
    job's.  With w -> w, u -> u (swapped for a job that has the square
    mod 4 or the unit cofactor on g, see build_R) it induces a ring map
    A_gen -> A acting on the coordinates over (1, w, u, wu), which sends
    the generic generators (with their denominator exponents: one
    coordinate is +-1), ideals and shape (Z, C, E) of Q to the job's.
    Every identity over A_gen therefore holds over A: the table (a
    fraction's cleared by its denominator, a power of K + 1 whose image,
    a power of c, build_R checks to be a unit), the quadratics and the
    relation.  So does every 2^k-divisibility of numerators ("P conducts
    R", "each product of generators lies in (A : I)", "J^* contains
    R"): each coefficient of the job's numerator is a Z-combination of
    the generic ones.  The shape of Q and the resolution of S/Q are no
    identities; they stay per job."""
    alg = _generic_algebra(case)
    pres, products = _verified_presentation(alg, case)
    for key, sol in (pres.mult_table or {}).items():
        common = prod({t.den for t in sol if isinstance(t, PolyFraction)}, start=alg.ring.one())
        cleared = [t * common if isinstance(t, Poly) else t.num * divide_exact(common, t.den)
                   for t in sol]
        if products[key].scale_poly(common) != sum(
            (y.scale_poly(t) for t, y in zip(cleared, pres.generators)), alg.zero()
        ):
            raise InternalVerificationError("generic table entry %s fails" % (key,))
    if case == CASE_B and not all(in_colon(y, ideal_P(alg)) for y in pres.generators):
        raise InternalVerificationError("P fails to conduct R into A")
    return pres


def presentation_complex(pres: RingPresentation) -> "FreeComplex":
    """0 -> S -> S^5 -> R -> 0 from the single relation of a non-free R.

    The relation column is nonzero (its last entry is 2), so the map
    S -> S^5 is injective over the domain S and the complex is a length-1
    free resolution of R; with all entries in the maximal ideal it is
    minimal, giving pd_S(R) = 1 exactly.
    """
    if pres.relation is None:
        raise WrongCaseError("presentation complex exists only for non-free R")
    return FreeComplex(
        matrices=[[[p] for p in pres.relation]],
        labels=["S^%d (cokernel = R)" % len(pres.relation), "S"],
        augmented=False,
    )


# ---------------------------------------------------------------------------
# conductor


@dataclass
class ConductorReport:
    """The conductor of R into A, when the theory identifies it.

    ``ideal`` is the verified conductor, or None where the theory does
    not identify it.  In CaseC, ``ideal_J`` is J = (2, wu - h1h2) and
    ``R_in_J_star`` says whether every generator of R multiplies J into A.
    """

    ideal: Optional[IdealGens]
    ideal_J: Optional[IdealGens] = None
    R_in_J_star: Optional[bool] = None


def conductor(pres: RingPresentation) -> ConductorReport:
    """Report the conductor of the built R into A where identified.

    The case and the algebra are read from the presentation.  The
    conductor is P in CaseB and I in CaseC with Q a grade-3 complete
    intersection.  Every CaseC report also records the ideal
    J = (2, wu - h1h2) with its dual datum J^* = R, the presentation's
    R_in_J_star.  Each claim is decided on the generic R
    (generic_presentation): an ideal conducts R when every generator x
    of R passes in_colon(x, ideal) there.
    """
    case, alg = pres.case, pres.generators[0].algebra
    out = ConductorReport(ideal=None)
    if case in (CASE_C_CM, CASE_C_NONCM_GRADE3, CASE_C_NONCM_GRADE2):
        out.ideal_J = ideal_J(alg)
        out.R_in_J_star = pres.R_in_J_star
    if case == CASE_B:
        out.ideal = ideal_P(alg)
    elif case == CASE_C_NONCM_GRADE3:
        out.ideal = pres.ideal_I
    return out


# ---------------------------------------------------------------------------
# the small CM module certificate


class GenericClaims(NamedTuple):
    """The four keys of the certificate's checks, all identities or
    power-of-2 divisibilities in (h1, a, h2, b), decided once on the
    generic algebra (generic_claims)."""

    P_free: bool
    eta_conducts: bool
    H_equals_I: bool
    M_contains_eta: bool


@cache
def generic_claims() -> GenericClaims:
    """Decide the claims of the certificate once per process.

    They are decided on the generic algebra A_gen = Z[H1, A, H2, B][w, u]
    / (w^2 - H1^2 - 2A, u^2 - H2^2 - 2B), _generic_algebra(CASE_B), the
    algebra generic_presentation(CASE_B) reads too; no job's data enters.
    First the three generating identities of homology.resolution_of_I
    (generating_identities), summed exactly: InternalVerification when
    one fails, as the other generic builds raise.  Then the keys:

    * P_free: the basis {2, w - H1, u - H2, wu - H1H2} lies in P (its
      residues mod P vanish), its coordinate determinant is +-2, and
      w*b and u*b lie in its S-span with polynomial coefficients (one
      express_in_span; the pivots are the constants 1, 1, 1 and 2, so
      no fraction arises).  Then the span is an ideal between the
      generators of P and P, so it is P, free of rank 4.
    * eta_conducts: eta = (w + H1)(u + H2)/2 multiplies P into A
      (in_colon), so M contains the unit 1 birationally.
    * H_equals_I: (w + H1)(u + H2) = (wu - H1H2) + (H2w - H1u) +
      2H1*u + 2H1H2; H and I share their other generators, 2 and
      wu - H1H2, by construction.
    * M_contains_eta: eta lies in M = (IP)^*: eta * i lies in P^* for
      each generator i of I, since IP is generated by the products of
      the generators.

    A job reads them once f = h1^2 + 2a and g = h2^2 + 2b hold exactly
    (_witness_images(alg, CASE_B)), by the specialisation argument of
    generic_presentation: the ring map H1 -> h1, A -> a, H2 -> h2,
    B -> b sends the generic P, I, H, eta and basis to the job's, so
    every identity, span coefficient (a polynomial) and power-of-2
    divisibility (residues mod P, the constant determinant, the two
    colon tests) carries over.  The parity of a*h2^2 + b*h1^2 and the
    degenerate witnesses are no such identities; they stay per job.
    """
    alg = _generic_algebra(CASE_B)
    ring = alg.ring
    h1, h2 = alg.h1(), alg.h2()
    if not all(lhs == sum(rhs[1:], rhs[0]) for lhs, rhs in generating_identities(alg)):
        raise InternalVerificationError("generating identity for the resolution of I failed")
    p, i_ideal, h_ideal = ideal_P(alg), ideal_I(alg), ideal_H(alg)
    eta = prime_dual_gen(alg)

    basis = p.gens + i_ideal.gens[1:2]
    in_p = all(residue_mod_P(x).is_zero() for x in basis)
    det = poly_det([[x.coords[i] for x in basis] for i in range(4)])
    det_ok = det == ring.const(2) or det == ring.const(-2)
    try:
        sols = express_in_span(
            [k_mul(mult, x) for mult in (alg.root_f(), alg.root_g()) for x in basis],
            basis,
        )
    except SpanNotFreeError:
        # The basis does not peel into triangular form, as no dependent one does.
        sols = [None]
    spans = all(sol is not None and all(isinstance(c, Poly) for c in sol) for sol in sols)

    expansion = (
        i_ideal.gens[1] + i_ideal.gens[2]
        + alg.root_g().scale_poly(h1.scale(2))
        + alg.scalar((h1 * h2).scale(2))
    )
    return GenericClaims(
        P_free=in_p and det_ok and spans,
        eta_conducts=in_colon(eta, p),
        H_equals_I=h_ideal.gens[1] == expansion,
        M_contains_eta=all(in_colon(k_mul(eta, i), p) for i in i_ideal.gens),
    )


@cache
def generic_complexes() -> Tuple[List[List[Poly]], List[List[Poly]]]:
    """The rank minors of the resolutions of S/Q and of I, in closed form.

    resolution_of_S_mod_Q(Z, C, E) and resolution_of_I_complex(H1, H2)
    pass verify_complex, each rank minor is one term c*Z^i*C^j*E^k (or
    zero), and the second saturates its kernel; UnverifiedComplex else.
    A job's complexes come from the same builders, so the ring map
    Z -> z, C -> c, E -> e (H1 -> h1, H2 -> h2) sends these matrices to
    the job's.  Determinants and products commute with it: the job's
    compositions vanish, its minors are the closed forms at its values,
    and minors dividing 4, 2, C or E divide them there too.  No identity,
    so per job: z odd, the checks of resolution_of_I, the witness picks
    and the regularity of (2, c, e) (verify_specialised).  Saturation:
    d_1.c = 0 and the minor 4 are identities, and gcd(-h2, h1, 2) | 2 is
    a unit exactly when h1 or h2 is odd, as resolution_of_I checks.
    """
    res_q = resolution_of_S_mod_Q(*BaseRing(("Z", "C", "E")).gens())
    res_i = resolution_of_I_complex(*BaseRing(("H1", "H2")).gens())
    for cx in (res_q, res_i):
        verify_complex(cx)
        if any(m.num_terms() > 1 for minors in cx.rank_minors for m in minors):
            raise UnverifiedComplexError("a generic minor is not a single term")
    if not kernel_saturation_check(res_i):
        raise UnverifiedComplexError("the resolution of I does not saturate ker(d_1)")
    return res_q.rank_minors, res_i.rank_minors


@dataclass
class CmModuleCertificate:
    """Machine-checked evidence that M = (IP)^* is a small CM module.

    The chain being instantiated: P is S-free of rank 4 (so depth_S
    P = d); eta = (w + h1)(u + h2)/2 conducts P into A, making M
    birational; H = (2, (w+h1)(u+h2), wu - h1h2) equals I exactly; eta
    lies in M; I has an S-free resolution of length 1 (so depth I =
    d - 1 and A/I behaves like S/Q); and the length-3 resolution of S/Q
    is exact, as build_R verified.  ``checks`` records the four steps
    that are identities or power-of-2 divisibilities in (h1, a, h2, b),
    read from generic_claims.  ``resolution_I`` is the verified
    resolution of I; building the certificate raises when it is not
    exact or d_2 does not saturate ker(d_1).
    """

    ideal_P: IdealGens
    ideal_I: IdealGens
    ideal_H: IdealGens
    checks: Dict[str, bool]
    resolution_I: VerifiedComplex

    def all_pass(self) -> bool:
        return all(self.checks.values())


def build_small_cm_certificate(pres: RingPresentation) -> CmModuleCertificate:
    """Assemble and verify the birational small CM module certificate.

    Only meaningful for the R of the two non-CM cases; WrongCase
    otherwise.  The checks come from generic_claims once the job's
    witness identities hold (_witness_images; InternalVerification
    otherwise, and from generic_claims when a generating identity of the
    resolution of I fails).  What depends on the job runs here, once:
    the parity and both-h-even checks of resolution_of_I, its witnesses
    from the closed forms of generic_complexes, and the P, I and H the
    report prints.
    """
    case = pres.case
    if case not in _NON_CM_CASES:
        raise WrongCaseError(
            "the small CM module certificate applies to the non-CM cases only"
        )
    alg = pres.generators[0].algebra
    _witness_images(alg, CASE_B)  # generic_claims reads CaseB's A_gen
    checks = generic_claims()._asdict()
    # I's resolution is exact (pd I <= 1), its d_2 saturates ker(d_1): generic_complexes
    h1h2 = (alg.h1(), alg.h2())
    res_i = verify_specialised(resolution_of_I(alg), generic_complexes()[1], h1h2)
    return CmModuleCertificate(
        ideal_P=ideal_P(alg),
        ideal_I=pres.ideal_I,
        ideal_H=ideal_H(alg),
        checks=checks,
        resolution_I=res_i,
    )


# ---------------------------------------------------------------------------
# the guard-rail regression


def example_2_10_identity(ring: BaseRing, multiplier: int = 4) -> bool:
    """V^2*g = Y^2*f + m*(V^2 - Y^2) for f = X*V^2+4, g = X*Y^2+4.

    Exact for m = 4 and false for perturbed multipliers such as m = 2;
    the perturbed form is the regression's negative control.
    """
    x, y, v = (ring.var(n) for n in ("X", "Y", "V"))
    four = ring.const(4)
    f = x * v * v + four
    g = x * y * y + four
    lhs = v * v * g
    rhs = y * y * f + ring.const(multiplier) * (v * v - y * y)
    return lhs == rhs


def example_2_10_regression(ring: BaseRing) -> List[str]:
    """Guard-rail checks for the pair f = X*V^2 + 4, g = X*Y^2 + 4.

    The pair is outside the covered scope (neither residue is a square
    mod 2).  The regression checks that the linking identity between f
    and g holds exactly and that ``classify`` returns OUTSIDE_SCOPE.
    Returns one line per failed check, so an empty list means both pass.
    """
    if tuple(ring.variables) != ("X", "Y", "V"):
        raise UnsupportedError("the guard-rail example lives in Z[X, Y, V]")
    failed = []
    if not example_2_10_identity(ring, 4):
        failed.append("identity with multiplier 4 does not hold")
    f = parse_poly("X*V^2+4", ring)
    g = parse_poly("X*Y^2+4", ring)
    tag = classify(make_algebra(ring, f, g))
    if tag != OUTSIDE_SCOPE:
        failed.append("classify gives %s, not %s" % (tag, OUTSIDE_SCOPE))
    return failed
