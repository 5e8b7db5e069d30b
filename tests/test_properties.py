"""Randomized property suites with fixed seeds, at least 200 cases each.

Each suite spells out an algebraic law the implementation must satisfy
everywhere, not just on the worked examples: homomorphy of the mod-2
reduction, square-root round-trips, witness-lift independence, symmetry
and unit invariance of the case tag, associativity of the quartic
multiplication, conductor containment, and composition-zero of every
emitted complex.
"""

import random

from poly_terms import sorted_terms

from cmwitness.algebra import (
    AlgebraDesc,
    a_membership,
    k_mul,
    make_algebra,
)
from cmwitness.classifier import (
    CASE_B,
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    build_R,
    classify,
    conductor,
    presentation_complex,
    q_shape,
)
from cmwitness.errors import HypothesisViolationError, ZeroInputError
from cmwitness.homology import (
    check_composition_zero,
    resolution_of_I,
    resolution_of_S_mod_Q,
)
from cmwitness.poly import (
    BaseRing,
    Poly,
    is_even,
    parse_poly,
    reduce_mod_2k,
    sqrt_f2,
)
from cmwitness.predicates import decompose_S2, in_S2wedge4, product_in_S2wedge4

RING = BaseRing(("X", "Y"))
RING3 = BaseRing(("V", "X", "Y"))


def rand_poly(rng, ring, max_terms=4, max_deg=2, max_coeff=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in ring.variables)
        c = rng.randrange(-max_coeff, max_coeff + 1)
        terms[e] = terms.get(e, 0) + c
    return Poly(ring, {e: c for e, c in terms.items() if c})


def rand_nonzero(rng, ring, **kw):
    while True:
        p = rand_poly(rng, ring, **kw)
        if not p.is_zero():
            return p


def rand_algebra(rng, ring):
    """A random admissible (f, g) with both residues square, or None."""
    h1 = rand_poly(rng, ring, max_terms=2, max_deg=2, max_coeff=3)
    h2 = rand_poly(rng, ring, max_terms=2, max_deg=2, max_coeff=3)
    a = rand_poly(rng, ring, max_terms=2, max_deg=1, max_coeff=3)
    b = rand_poly(rng, ring, max_terms=2, max_deg=1, max_coeff=3)
    f = h1 * h1 + a.scale(2)
    g = h2 * h2 + b.scale(2)
    if f.is_zero() or g.is_zero():
        return None
    try:
        return make_algebra(ring, f, g)
    except (HypothesisViolationError, ZeroInputError):
        return None


def test_reduce_mod2_is_ring_homomorphism():
    rng = random.Random(1001)
    for _ in range(250):
        a = rand_poly(rng, RING)
        b = rand_poly(rng, RING)
        ra, rb = reduce_mod_2k(a, 1), reduce_mod_2k(b, 1)
        # Residues add and multiply over Z, so the results reduce again.
        assert reduce_mod_2k(a + b, 1) == reduce_mod_2k(ra + rb, 1)
        assert reduce_mod_2k(a * b, 1) == reduce_mod_2k(ra * rb, 1)
        assert reduce_mod_2k(-a, 1) == ra


def test_sqrt_of_square_roundtrip():
    rng = random.Random(1002)
    for _ in range(250):
        r = reduce_mod_2k(rand_poly(rng, RING), 1)
        # r * r is an integer product; sqrt_f2 reads it mod 2.
        assert sqrt_f2(r * r) == r
        w = decompose_S2(r * r) if not r.is_zero() else None
        if w is not None:
            assert w.h == r


def test_s2wedge4_lift_independence():
    # f = h^2 + 2a is in S^(2 wedge 4) iff a is even, and replacing the
    # lift h by h + 2t moves a to a - 2th - 2t^2: the parity of every
    # coefficient is untouched, so the verdict cannot depend on the lift.
    rng = random.Random(1003)
    for _ in range(200):
        h = rand_poly(rng, RING, max_terms=2, max_deg=2, max_coeff=3)
        a = rand_poly(rng, RING, max_terms=3, max_deg=2, max_coeff=4)
        f = h * h + a.scale(2)
        if f.is_zero():
            continue
        verdict = in_S2wedge4(decompose_S2(f)) is not None
        for _ in range(3):
            t = rand_poly(rng, RING, max_terms=2, max_deg=1, max_coeff=2)
            h_shift = h + t.scale(2)
            rem = f - h_shift * h_shift
            # rem = 2 * a_shift; the shifted verdict reads its parity.
            shifted_verdict = not rem.is_zero() and all(
                c % 4 == 0 for _, c in sorted_terms(rem)
            )
            if f == h_shift * h_shift:
                continue
            assert shifted_verdict == verdict


def test_classify_symmetric_in_f_and_g():
    rng = random.Random(1004)
    done = 0
    while done < 200:
        alg = rand_algebra(rng, RING)
        if alg is None:
            continue
        swapped = make_algebra(RING, alg.g, alg.f)
        assert classify(alg) == classify(swapped)
        done += 1


def test_case_tag_invariant_under_unit_squares():
    # Scaling f by u^2 for a unit u changes nothing the classifier can
    # see: witnesses become (u h1, u^2 a) and every parity/unit test is
    # preserved.  Constant odd units go through the full pipeline;
    # non-constant units (odd constant term) are checked through a
    # hand-built descriptor because squarefreeness over Q is the one
    # predicate that cannot see that u is invertible in S.
    rng = random.Random(1005)
    done = 0
    while done < 200:
        alg = rand_algebra(rng, RING)
        if alg is None:
            continue
        u_const = RING.const(rng.choice([3, 5, -3, 7]))
        scaled = make_algebra(RING, alg.f * u_const * u_const, alg.g)
        assert classify(scaled) == classify(alg)
        u_poly = RING.one() + rand_poly(rng, RING, max_terms=2, max_deg=1, max_coeff=2).scale(2)
        f2 = alg.f * u_poly * u_poly
        hand = AlgebraDesc(
            ring=RING, f=f2, g=alg.g, wf=decompose_S2(f2), wg=decompose_S2(alg.g)
        )
        assert classify(hand) == classify(alg)
        done += 1


def test_k_mul_associative_commutative():
    rng = random.Random(1006)
    alg = make_algebra(RING, parse_poly("X^2+2", RING), parse_poly("Y^2+2", RING))
    for _ in range(200):
        xs = []
        for _ in range(3):
            coords = tuple(rand_poly(rng, RING, max_terms=2) for _ in range(4))
            xs.append(alg.element(coords, denom_exp=rng.randrange(2)))
        x, y, z = xs
        assert k_mul(x, y) == k_mul(y, x)
        assert k_mul(k_mul(x, y), z) == k_mul(x, k_mul(y, z))
        assert k_mul(x, y + z) == k_mul(x, y) + k_mul(x, z)


def test_conductor_products_land_in_A():
    rng = random.Random(1007)
    fixtures = []
    alg_b = make_algebra(RING, parse_poly("X^2+2", RING), parse_poly("Y^2+2", RING))
    fixtures.append((alg_b, CASE_B))
    alg_3 = make_algebra(RING, parse_poly("-X^2+4", RING), parse_poly("-Y^2+4", RING))
    fixtures.append((alg_3, CASE_C_NONCM_GRADE3))
    for alg, case in fixtures:
        pres = build_R(alg, case)
        rep = conductor(pres)
        assert rep.ideal is not None
        for _ in range(100):
            # Random S-combination of conductor generators times a
            # random S-combination of R-generators stays inside A.
            x = alg.zero()
            for gen in rep.ideal.gens:
                x = x + gen.scale_poly(rand_poly(rng, RING, max_terms=2, max_deg=1))
            y = alg.zero()
            for gen in pres.generators:
                y = y + gen.scale_poly(rand_poly(rng, RING, max_terms=2, max_deg=1))
            assert a_membership(k_mul(x, y))


def test_emitted_complexes_compose_to_zero():
    rng = random.Random(1008)
    checked = 0
    while checked < 200:
        h1 = rand_nonzero(rng, RING3, max_terms=2, max_deg=2, max_coeff=3)
        h2 = rand_nonzero(rng, RING3, max_terms=2, max_deg=2, max_coeff=3)
        if is_even(h1) or is_even(h2):
            continue
        a = rand_poly(rng, RING3, max_terms=2, max_deg=1, max_coeff=3)
        b = rand_poly(rng, RING3, max_terms=2, max_deg=1, max_coeff=3)
        if rng.randrange(2):
            # Bias half the stream toward even (a, b) so the product
            # criterion below succeeds often enough to fill the quota.
            a, b = a.scale(2), b.scale(2)
        f = h1 * h1 + a.scale(2)
        g = h2 * h2 + b.scale(2)
        wf, wg = decompose_S2(f), decompose_S2(g)
        if wf is None or wg is None:
            continue
        if not product_in_S2wedge4(wf, wg):
            continue
        alg = AlgebraDesc(ring=RING3, f=f, g=g, wf=wf, wg=wg)
        cx = resolution_of_I(alg)
        assert check_composition_zero(cx)
        shape = q_shape(alg)
        if not shape.z.is_zero():
            q_cx = resolution_of_S_mod_Q(shape.z, shape.c, shape.e)
            assert check_composition_zero(q_cx)
        checked += 1


def test_presentation_complexes_compose_and_verify():
    # Every non-CM presentation complex emitted by the classifier has a
    # single injective relation column; composition-zero is trivial but
    # the column must be the relation, annihilating the generators of R.
    for ring, ftext, gtext, case in [
        (RING, "-X^2+4", "-Y^2+4", CASE_C_NONCM_GRADE3),
        (RING3, "V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4", CASE_C_NONCM_GRADE2),
        (RING3, "3*V^2+4", "3*X^2+4", CASE_C_NONCM_GRADE3),
        (RING3, "V^2*X^2+2*X^2+4", "V^2*Y^2+2*Y^2+4", CASE_C_NONCM_GRADE2),
    ]:
        alg = make_algebra(ring, parse_poly(ftext, ring), parse_poly(gtext, ring))
        pres = build_R(alg, case)
        cx = presentation_complex(pres)
        assert check_composition_zero(cx)
        column = [row[0] for row in cx.matrices[0]]
        assert column == pres.relation and column[-1] == ring.const(2)
        acc = alg.zero()
        for coeff, gen in zip(column, pres.generators):
            acc = acc + gen.scale_poly(coeff)
        assert acc.is_zero()
