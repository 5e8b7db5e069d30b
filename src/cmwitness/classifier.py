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
report.  The certificate's checks, all identities or power-of-2
divisibilities in the witnesses (h1, a, h2, b), are decided once per
process on the generic algebra (generic_claims), and each job checks
the witness identities f = h1^2 + 2a, g = h2^2 + 2b that carry them
over; every other claim is verified on the job at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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
from .poly import BaseRing, Poly, is_even, parse_poly, poly_dot, reduce_mod_2k
from .predicates import QShape, product_in_S2wedge4

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
    if not product_in_S2wedge4(alg.wf, alg.wg):
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
    polynomial is h^2 + 4a'; build_R records and verifies it.
    """
    if side not in ("f", "g"):
        raise ValueError("side must be 'f' or 'g'")
    w4 = alg.w4f if side == "f" else alg.w4g
    if w4 is None:
        raise WrongCaseError("side %s is not a square mod 4" % side)
    root = alg.root_f() if side == "f" else alg.root_g()
    return (root + alg.scalar(w4.h)).half()


def product_closure_gen(alg: AlgebraDesc) -> KElement:
    """tau = (w - h1)(u - h2)/2 = (h1h2, -h2, -h1, 1)/2, integral with
    tau^2 = k1*k2 (checked by build_R)."""
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
    ``quadratics`` is a verified x^2 = c1*x + c0 for generator i.  Both
    tables and quadratics read one product of each pair of generators
    (generator_products).  ``sfree`` is also the CM verdict: by
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


def _root_quadratics(
    alg: AlgebraDesc, squares: List[Poly]
) -> List[Tuple[int, KElement, KElement]]:
    """x^2 = square for the roots (generators 1, ...), one per square,
    then tau^2 = k1*k2 for tau, the generator after them.  k1*k2 is
    formed here, on its own, and build_R compares it with tau's square."""
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
    Each product of two generators is formed once (generator_products);
    the span closure or the colon tests read it, and so does each
    recorded quadratic x^2 = c1*x + c0, verified here against x's square.
    """
    if case == OUTSIDE_SCOPE:
        raise WrongCaseError("no closure presentation outside the covered scope")
    if case not in CASE_TAGS:
        raise WrongCaseError("unknown case tag %r" % (case,))
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
        if (alg.w4f is None) == (alg.w4g is None):
            raise WrongCaseError("CaseA_one needs exactly one square mod 4")
        if alg.w4f is not None:
            side, w4, other, other_sq = "f", alg.w4f, alg.root_g(), alg.g
        else:
            side, w4, other, other_sq = "g", alg.w4g, alg.root_f(), alg.f
        t = hyper_closure_gen(alg, side)
        # other * (root + h)/2 = (wu + h*other)/2
        gens = [one, other, t, (alg.root_fg() + other.scale_poly(w4.h)).half()]
        quadratics = [
            (1, alg.zero(), alg.scalar(other_sq)),
            (2, alg.scalar(w4.h), alg.scalar(w4.a_prime)),
        ]
    elif case == CASE_B:
        gens = [one, alg.root_f(), alg.root_g(), product_closure_gen(alg)]
        quadratics = _root_quadratics(alg, [alg.f, alg.g])
    else:
        shape = alg.q_shape
        if case != _case_c_tag(shape):
            raise WrongCaseError(
                "case tag %s does not match the shape %s of Q" % (case, shape.tag)
            )
        tau, rho = product_closure_gen(alg), mixed_syzygy_gen(alg, shape.c, shape.e)
        if case != CASE_C_CM:
            gens = [one, alg.root_f(), alg.root_g(), tau, rho]
            quadratics = _root_quadratics(alg, [alg.f, alg.g])
        elif shape.c.is_unit():
            gens, quadratics = [one, alg.root_f(), tau, rho], _root_quadratics(alg, [alg.f])
        elif shape.e.is_unit():
            gens, quadratics = [one, alg.root_g(), tau, rho], _root_quadratics(alg, [alg.g])
        else:
            raise WrongCaseError("two-generated shape without a unit cofactor")
    products = generator_products(gens)
    if case in _NON_CM_CASES:
        pres = _module_presentation(alg, case, gens, products, quadratics)
    else:
        table = span_closure_check(gens, products)
        pres = RingPresentation(case=case, sfree=True, generators=gens, mult_table=table,
                                quadratics=quadratics)
    for idx, c1, c0 in quadratics:
        # every recorded c1 is a scalar of S: zero, or h in CaseA
        rhs = c0 if c1.is_zero() else gens[idx].scale_poly(c1.coords[0]) + c0
        if products[idx, idx] != rhs:
            raise InternalVerificationError(
                "recorded quadratic for generator %d fails" % idx
            )
    return pres


def _module_presentation(
    alg: AlgebraDesc, case: CaseTag, gens: List[KElement],
    products: Dict[Tuple[int, int], KElement], quadratics: list,
) -> RingPresentation:
    """The non-free R: its relation, checked, and every product of two
    generators (gens[0] = 1, so each generator too) in (A : I)."""
    shape = alg.q_shape
    c, e = shape.c, shape.e
    relation = [e * alg.h1() + c * alg.h2(), -e, -c, alg.ring.zero(), alg.ring.const(2)]
    acc = alg.zero()
    for coeff, gen in zip(relation, gens):
        acc = acc + gen.scale_poly(coeff)
    if not acc.is_zero():
        raise InternalVerificationError("module relation for R fails")
    i_ideal = ideal_I(alg)
    for (i, j), x in products.items():
        if not in_colon(x, i_ideal):
            raise InternalVerificationError(
                "product of generators %d and %d leaves R" % (i, j)
            )
    zce = (shape.z, c, e)
    res_q = verify_specialised(resolution_of_S_mod_Q(*zce), generic_complexes()[0], zce)
    return RingPresentation(
        case=case,
        sfree=False,
        generators=gens,
        quadratics=quadratics,
        relation=relation,
        resolution_S_mod_Q=res_q,
        ideal_I=i_ideal,
    )


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

    The case and the algebra are read from the presentation.  CaseB:
    the conductor is P, verified here.  CaseC with Q a grade-3 complete
    intersection: the conductor is I, which build_R already verified to
    multiply R into A.  Every CaseC report also records the ideal
    J = (2, wu - h1h2) with its dual datum J^* = R, checked on the R
    generators.  An ideal conducts R when every generator x of R passes
    in_colon(x, ideal), i.e. multiplies the ideal into A.
    """
    case = pres.case
    alg = pres.generators[0].algebra

    def conducts(ideal: IdealGens) -> bool:
        return all(in_colon(x, ideal) for x in pres.generators)

    out = ConductorReport(ideal=None)
    if case in (CASE_C_CM, CASE_C_NONCM_GRADE3, CASE_C_NONCM_GRADE2):
        out.ideal_J = ideal_J(alg)
        out.R_in_J_star = conducts(out.ideal_J)
    if case == CASE_B:
        out.ideal = ideal_P(alg)
        if not conducts(out.ideal):
            raise InternalVerificationError("P fails to conduct R into A")
    elif case == CASE_C_NONCM_GRADE3:
        out.ideal = pres.ideal_I
    return out


# ---------------------------------------------------------------------------
# the small CM module certificate


class GenericClaims(NamedTuple):
    """The certificate's claims, all identities or power-of-2
    divisibilities in (h1, a, h2, b), decided once on the generic
    algebra (generic_claims).  Every field but resolution_of_I is a
    key of the certificate's checks."""

    resolution_of_I: bool
    P_free: bool
    eta_conducts: bool
    H_equals_I: bool
    M_contains_eta: bool


@cache
def generic_claims() -> GenericClaims:
    """Decide the claims of the certificate once per process.

    They are decided on the generic algebra A_gen = Z[H1, A, H2, B][w, u]
    / (w^2 - H1^2 - 2A, u^2 - H2^2 - 2B), built by make_algebra on
    f = H1^2 + 2A and g = H2^2 + 2B, whose witnesses are (H1, A) and
    (H2, B); the first call builds it, and no job's data enters.

    * resolution_of_I: the three generating identities of
      homology.resolution_of_I (generating_identities), summed exactly.
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

    Why a job may read them (the specialisation argument): a job with
    witnesses f = h1^2 + 2a and g = h2^2 + 2b, checked exactly on the
    job (AlgebraDesc.witnesses_exact), gets the ring map
    Z[H1, A, H2, B] -> Z[x], H1 -> h1, A -> a, H2 -> h2, B -> b.
    Extended by w -> w, u -> u it sends w^2 - H1^2 - 2A to w^2 - f and
    u^2 - H2^2 - 2B to u^2 - g, so it induces a ring map A_gen -> A
    that acts on the coordinates over (1, w, u, wu) and sends the
    generic P, I, H, eta and basis to the job's.  Every identity, every
    span coefficient (a polynomial) and every power-of-2 divisibility
    (residues mod P, the constant determinant) over A_gen therefore
    holds over A.  The two colon tests are such divisibilities: eta has
    denominator exponent 1 on the job as on A_gen, because its wu
    coordinate is 1, and the map sends the numerator of each product
    eta * p and eta * i * p (p in P, i in I) to the job's numerator.
    Each coefficient of the job's numerator is a Z-combination of the
    coefficients over Z[H1, A, H2, B], so a 2^k that divides all of
    those divides it too.  The parity of a*h2^2 + b*h1^2 and the
    degenerate witnesses are no such identities; they stay per job.
    """
    ring = BaseRing(("H1", "A", "H2", "B"))
    h1, a, h2, b = ring.gens()
    alg = make_algebra(ring, h1 * h1 + a.scale(2), h2 * h2 + b.scale(2))
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
        resolution_of_I=all(
            lhs == sum(rhs[1:], rhs[0]) for lhs, rhs in generating_identities(alg)
        ),
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
    that are identities or power-of-2 divisibilities in (h1, a, h2, b):
    they are read from generic_claims, decided once on the generic
    algebra, and carry over to the job because its witnesses satisfy
    f = h1^2 + 2a and g = h2^2 + 2b exactly (checked per job; see
    generic_claims).  ``resolution_I`` is the verified resolution of I;
    building the certificate raises when it is not exact or d_2 does not
    saturate ker(d_1).
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
    witness identities hold (InternalVerification otherwise, and when a
    generating identity of the resolution of I fails).  What depends on
    the job runs here, once: the parity and both-h-even checks of
    resolution_of_I, its witnesses from the closed forms of
    generic_complexes, and the P, I and H the report prints.
    """
    case = pres.case
    if case not in _NON_CM_CASES:
        raise WrongCaseError(
            "the small CM module certificate applies to the non-CM cases only"
        )
    alg = pres.generators[0].algebra
    if not alg.witnesses_exact:
        raise InternalVerificationError(
            "witness identity f = h1^2 + 2a or g = h2^2 + 2b fails"
        )
    claims = generic_claims()
    if not claims.resolution_of_I:
        raise InternalVerificationError(
            "generating identity for the resolution of I failed"
        )
    # I's resolution is exact (pd I <= 1), its d_2 saturates ker(d_1): generic_complexes
    h1h2 = (alg.h1(), alg.h2())
    res_i = verify_specialised(resolution_of_I(alg), generic_complexes()[1], h1h2)
    checks = claims._asdict()
    del checks["resolution_of_I"]
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
