"""The rank-4 algebra A = S[w, u], K-elements with 2-power denominators,
span closure, ideals, and the bounded colon-dual search."""

import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from colon_oracle import bounded_colon_search
from poly_terms import sorted_terms

from cmwitness import algebra, poly
from cmwitness.algebra import (
    IdealGens,
    a_membership,
    express_in_span,
    generator_products,
    in_colon,
    k_mul,
    make_algebra,
    span_closure_check,
)
from cmwitness.classifier import ideal_I
from cmwitness.errors import (
    BoundTooLargeError,
    HypothesisViolationError,
    NotClosedError,
    WitnessMismatchError,
)
from cmwitness.linalg import PolyFraction, SpanNotFreeError
from cmwitness.poly import BaseRing, Poly, parse_poly

RING = BaseRing(("X", "Y"))
X, Y = RING.gens()
P = lambda s: parse_poly(s, RING)


def case_b_algebra():
    return make_algebra(RING, P("X^2+2"), P("Y^2+2"))


def min_poly_check(x, c1, c0):
    """Reference check of the quadratic x^2 = c1*x + c0 over K."""
    return (k_mul(x, x) - k_mul(c1, x) - c0).is_zero()


def closure_table(gens):
    return span_closure_check(gens, generator_products(gens))


def tau_of(alg):
    """(w - h1)(u - h2) / 2, the fractional generator eta - (h2 w + h1 u)."""
    w, u = alg.root_f(), alg.root_g()
    h1, h2 = alg.h1(), alg.h2()
    return k_mul(w - alg.scalar(h1), u - alg.scalar(h2)).half()


def test_make_algebra_witnesses():
    alg = case_b_algebra()
    assert alg.h1() == X and alg.a() == RING.one()
    assert alg.h2() == Y and alg.b() == RING.one()
    # The derived facts are cached on the instance without becoming
    # fields: equality and hashing still see only (ring, f, g, wf, wg).
    assert alg.w4f is None and alg.w4g is None
    assert alg.q_shape.tag == "Grade3CI_NotTwoGen"
    assert alg.local_factors is alg.local_factors
    assert alg.fg is alg.fg and alg.fg == alg.f * alg.g
    fresh = case_b_algebra()
    assert alg == fresh and hash(alg) == hash(fresh)


def test_make_algebra_rejects():
    with pytest.raises(HypothesisViolationError) as info:
        make_algebra(RING, P("X^2*Y^2+2*X^2"), P("Y^2+2"))
    assert info.value.predicate == "squarefree_f"
    with pytest.raises(HypothesisViolationError) as info:
        make_algebra(RING, P("2*X"), P("2*Y"))
    assert info.value.predicate == "A1"
    with pytest.raises(HypothesisViolationError):
        make_algebra(RING, P("X^2"), P("Y"))


def test_root_relations():
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    assert k_mul(w, w) == alg.scalar(alg.f)
    assert k_mul(u, u) == alg.scalar(alg.g)
    wu = alg.root_fg()
    assert k_mul(w, u) == wu
    assert k_mul(wu, wu) == alg.scalar(alg.f * alg.g)


def test_k_arithmetic():
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    x = w + u.scale_poly(X) - alg.scalar(3)
    assert x - x == alg.zero()
    assert x + x == x.scale_poly(RING.const(2))
    assert k_mul(x, alg.one()) == x
    assert k_mul(x, alg.zero()) == alg.zero()
    # Denominator normalization: (2w)/2 == w.
    assert w.scale_poly(RING.const(2)).half() == w
    half_w = w.half()
    assert half_w + half_w == w
    assert half_w.denom_exp == 1


def rand_coord(rng):
    """0 to 3 terms of degree <= 2; a third of them zero."""
    if rng.randrange(3) == 0:
        return RING.zero()
    return Poly(
        RING,
        {
            tuple(rng.randrange(3) for _ in RING.variables): rng.randrange(-5, 6)
            for _ in range(rng.randrange(1, 4))
        },
    )


def structure_constant_product(x, y):
    """x*y by the structure constants of (1, w, u, wu), one Poly op at a time."""
    alg = x.algebra
    f, g = alg.f, alg.g
    n0, n1, n2, n3 = x.coords
    m0, m1, m2, m3 = y.coords
    c0 = n0 * m0 + f * (n1 * m1) + g * (n2 * m2) + (f * g) * (n3 * m3)
    c1 = n0 * m1 + n1 * m0 + g * (n2 * m3 + n3 * m2)
    c2 = n0 * m2 + n2 * m0 + f * (n1 * m3 + n3 * m1)
    c3 = n0 * m3 + n3 * m0 + n1 * m2 + n2 * m1
    return alg.element((c0, c1, c2, c3), x.denom_exp + y.denom_exp)


def test_k_mul_matches_the_structure_constants():
    rng = random.Random(1204)
    algebras = [case_b_algebra(), make_algebra(RING, P("X^2*Y+2*X+2"), P("Y^2+2*X*Y+6"))]
    checked = 0
    for alg in algebras:
        for _ in range(60):
            # y's square fills y's tables and the products with y read
            # them; two fresh operands table the one with fewer terms.
            y = alg.element([rand_coord(rng) for _ in range(4)], rng.randrange(3))
            assert k_mul(y, y) == structure_constant_product(y, y)
            assert y._tables is not None
            for _ in range(3):
                x = alg.element([rand_coord(rng) for _ in range(4)], rng.randrange(3))
                assert k_mul(x, y) == structure_constant_product(x, y)
                assert x._tables is None
                z = alg.element([rand_coord(rng) for _ in range(4)], rng.randrange(3))
                assert k_mul(z, x) == structure_constant_product(z, x)
                checked += 2
    assert checked >= 300


def test_basis_products_follow_the_xor_rule():
    # b_i * b_j = c(i & j) * b_(i ^ j) with c = (1, f, g, fg), on fresh
    # basis elements and on the ones the descriptor keeps.
    for alg in (case_b_algebra(), make_algebra(RING, P("X^2*Y+2*X+2"), P("Y^2+2*X*Y+6"))):
        one, zero = RING.one(), RING.zero()
        c = (one, alg.f, alg.g, alg.fg)
        kept = [alg.one(), alg.root_f(), alg.root_g(), alg.root_fg()]
        for i in range(4):
            for j in range(4):
                bi, bj = (alg.element([one if t == s else zero for t in range(4)]) for s in (i, j))
                expected = structure_constant_product(bi, bj)
                assert k_mul(bi, bj) == expected == k_mul(kept[i], kept[j])
                assert expected == kept[i ^ j].scale_poly(c[i & j])


def test_cached_product_tables_leave_equality_and_hash_unchanged():
    alg = case_b_algebra()
    coords = (X + 1, Y.scale(3), RING.zero(), X * Y)
    used, fresh, hashed_first = (alg.element(coords, 1) for _ in range(3))
    before = hash(hashed_first)
    for y in (used, hashed_first):
        k_mul(y, y)
        assert y._tables is not None and y._coords is None
        assert y.coords == coords
    assert fresh._tables is None
    assert hash(hashed_first) == before
    assert used == fresh and fresh == used and used == hashed_first
    assert hash(used) == hash(fresh) == before
    assert len({used, fresh, hashed_first}) == 1
    assert not (used == alg.element(coords, 0))


def test_element_construction_checks_the_ring_of_every_coordinate():
    # A zero coordinate is still an operand: one from another ring is
    # refused in every position, and so is a scale_poly factor.
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    foreign = BaseRing(("X", "Z")).zero()
    for i in range(4):
        coords = [X + 1, Y, X * Y, RING.one()]
        coords[i] = foreign
        for k in (0, 1):
            with pytest.raises(ValueError):
                alg.element(coords, k)
    with pytest.raises(ValueError):
        alg.scalar(BaseRing(("X", "Z")).one())
    with pytest.raises(ValueError):
        w.scale_poly(foreign)
    # An equal ring built separately is the same ring.
    same = BaseRing(("X", "Y"))
    x = alg.element([X + 1, Y, RING.zero(), X * Y], 1)
    twin = alg.element([Poly(same, dict(sorted_terms(c))) for c in x.coords], 1)
    assert twin == x
    y = w + u.scale_poly(Poly(same, {(0, 1): 1}))
    assert y == w + u.scale_poly(Y)
    assert k_mul(twin, y) == k_mul(x, y)
    assert k_mul(y, twin) == k_mul(y, x)
    for gens in ([w + u], [alg.scalar(X), u - alg.scalar(Y)]):
        ideal = IdealGens(alg, gens)
        assert in_colon(twin, ideal) == in_colon(x, ideal)


def test_element_reduces_by_the_valuation_of_the_or():
    # The reduced form divides out 2^t, t = min(k, v2 of the OR of all
    # coefficients); the zero element gets k = 0.
    rng = random.Random(2203)
    alg = case_b_algebra()
    seen = set()
    for n in range(320):
        coords = [rand_coord(rng).scale(rng.choice([1, 2, 4, 8, 16])) for _ in range(4)]
        if n % 40 == 0:
            coords = [RING.zero()] * 4
        k = rng.randrange(5)
        bits = 0
        for c in coords:
            for _, v in sorted_terms(c):
                bits |= v
        t = min(k, (bits & -bits).bit_length() - 1) if bits else k
        x = alg.element(coords, k)
        assert x.denom_exp == k - t
        assert x.coords == tuple(
            Poly(RING, {e: v >> t for e, v in sorted_terms(c)}) for c in coords
        )
        assert x == alg.element(x.coords, x.denom_exp)
        seen.add((t > 0, x.is_zero()))
    assert seen == {(False, False), (True, False), (False, True), (True, True)}


def test_products_past_the_degree_bound_raise():
    # A monomial degree of 2^16 raises; just below it the product lands
    # in the right coordinate, with no carry into the tag or the next field.
    top = 1 << poly.FIELD_BITS
    alg = case_b_algebra()  # f = X^2 + 2, g = Y^2 + 2
    w, u, wu = alg.root_f(), alg.root_g(), alg.root_fg()
    high = Poly(RING, {(top - 3, 0): 1})
    x = wu.scale_poly(high)  # X^(top-3)*wu
    assert k_mul(x, w) == u.scale_poly(high * alg.f)  # wu*w = f*u
    assert k_mul(x, w).coords[2].total_degree() == top - 1
    with pytest.raises(BoundTooLargeError):
        k_mul(x, w.scale_poly(X))  # X^(top-3)*X*f, degree top
    with pytest.raises(BoundTooLargeError):
        k_mul(wu.scale_poly(X), x)  # the tables of either operand
    with pytest.raises(BoundTooLargeError):
        k_mul(x, x.scale_poly(RING.const(3)))
    y = x.scale_poly(X * Y)
    assert y.coords[3] == Poly(RING, {(top - 2, 1): 1})
    with pytest.raises(BoundTooLargeError):
        y.scale_poly(Y)
    with pytest.raises(BoundTooLargeError):
        x.scale_poly(Poly(RING, {(3, 0): 1}))
    # in_colon forms the same products on residues mod 2^k.
    ideal = IdealGens(alg, [w + alg.scalar(Y)])
    assert not in_colon(u.scale_poly(high).half(), ideal)
    with pytest.raises(BoundTooLargeError):
        in_colon(wu.scale_poly(high * X).half(), ideal)
    with pytest.raises(BoundTooLargeError):
        in_colon(alg.root_f().half(), IdealGens(alg, [x.scale_poly(Y)]))


def test_a_membership():
    alg = case_b_algebra()
    w = alg.root_f()
    assert a_membership(w)
    assert a_membership(alg.scalar(P("X*Y-7")))
    assert not a_membership(w.half())
    tau = tau_of(alg)
    assert not a_membership(tau)
    # 2*tau = (w - h1)(u - h2) is back in A.
    assert a_membership(tau + tau)


def test_min_poly_check():
    alg = case_b_algebra()
    w = alg.root_f()
    assert min_poly_check(w, alg.zero(), alg.scalar(alg.f))
    assert not min_poly_check(w, alg.zero(), alg.scalar(alg.g))
    # tau^2 = k1 * k2 with k_i = h_i^2 + (a or b) - h_i * root.
    tau = tau_of(alg)
    k1 = alg.scalar(X * X + alg.a()) - w.scale_poly(X)
    k2 = alg.scalar(Y * Y + alg.b()) - alg.root_g().scale_poly(Y)
    assert min_poly_check(tau, alg.zero(), k_mul(k1, k2))


def test_generator_products_forms_each_product_once(monkeypatch):
    alg = case_b_algebra()
    gens = [alg.one(), alg.root_f(), alg.root_g(), tau_of(alg)]
    products = []
    monkeypatch.setattr(
        algebra, "k_mul", lambda x, y: products.append((x, y)) or k_mul(x, y)
    )
    table = generator_products(gens)
    # gens[0] = 1: the (0, j) entries are the generators, not products.
    assert list(table) == [(i, j) for i in range(4) for j in range(i, 4)]
    assert all(table[0, j] is gens[j] for j in range(4))
    assert products == [(gens[i], gens[j]) for i in range(1, 4) for j in range(i, 4)]
    assert all(table[i, j] == k_mul(gens[i], gens[j]) for i, j in table)


def test_root_product_matches_k_mul():
    # (w + s1)(u + s2) from its coordinates, for the signs of eta and tau.
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    for s1, s2 in ((X, Y), (-X, -Y), (X * Y, RING.zero())):
        expected = k_mul(w + alg.scalar(s1), u + alg.scalar(s2))
        assert alg.root_product(s1, s2) == expected
    assert alg.root_product(-X, -Y).half() == tau_of(alg)
    assert alg.dual_product is alg.dual_product
    assert alg.dual_product == alg.root_product(X, Y)


def test_span_closure_case_b():
    alg = case_b_algebra()
    gens = [alg.one(), alg.root_f(), alg.root_g(), tau_of(alg)]
    table = closure_table(gens)
    assert all(isinstance(c, Poly) for row in table.values() for c in row)
    # Spot-check one entry: w * u = wu = -h1*h2 - h1*u - h2*w + 2*tau
    # ... expressed over (1, w, u, tau); verify by recombination.
    sol = table[(1, 2)]
    acc = alg.zero()
    for coeff, gen in zip(sol, gens):
        acc = acc + gen.scale_poly(coeff)
    assert acc == k_mul(gens[1], gens[2])


def test_span_closure_rejects_non_closed():
    alg = case_b_algebra()
    w = alg.root_f()
    # (w/2)^2 = f/4 which is not an S-combination of (1, w/2).
    with pytest.raises(NotClosedError):
        closure_table([alg.one(), w.half()])
    with pytest.raises(ValueError):
        generator_products([w, alg.one()])
    with pytest.raises(SpanNotFreeError):
        closure_table([alg.one(), w, w + alg.one(), alg.root_g(), tau_of(alg)][:4] + [w])


def test_span_closure_dependent_gens():
    alg = case_b_algebra()
    w = alg.root_f()
    with pytest.raises(SpanNotFreeError):
        closure_table([alg.one(), w, w.scale_poly(X), alg.root_g()])


def test_express_in_span():
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    tau = tau_of(alg)
    eta = k_mul(w + alg.scalar(X), u + alg.scalar(Y)).half()
    # eta - tau = h2*w + h1*u lies in the A-span of (w, u).
    diff = eta - tau
    [sol] = express_in_span([diff], [alg.one(), w, u])
    assert sol is not None
    assert sol[0].is_zero()
    assert sol[1] == Y and sol[2] == X
    # w/2 is not in the span of (1, u).
    assert express_in_span([w.half()], [alg.one(), u]) == [None]


def test_span_over_a_basis_with_a_unit_pivot():
    # (1, (1 + X) w) is S-free, but its pivot 1 + X is not a power of 2:
    # w needs the coefficient 1/(1 + X), a unit of S, and w/2 is outside.
    alg = case_b_algebra()
    w = alg.root_f()
    unit = X + RING.one()
    gens = [alg.one(), w.scale_poly(unit)]
    assert express_in_span([w, w.half()], gens) == [
        [RING.zero(), PolyFraction(RING.one(), unit)],
        None,
    ]
    table = closure_table(gens)
    assert table[(1, 1)] == [unit * unit * alg.f, RING.zero()]


def poly_to_sympy(p):
    sx, sy = sympy.symbols("X Y")
    return sum((k * sx**i * sy**j for (i, j), k in sorted_terms(p)), sympy.Integer(0))


def to_sympy(x):
    """The coordinates of a K-element over (1, w, u, wu) as sympy fractions."""
    return [poly_to_sympy(c) / 2**x.denom_exp for c in x.coords]


def sympy_solution(gens, x):
    """sympy's solution of sum_j c_j * gens[j] = x over Q(X, Y), or None.

    Free unknowns are zero.
    """
    aug = sympy.Matrix([list(row) for row in zip(*map(to_sympy, gens), to_sympy(x))])
    dm = DomainMatrix.from_Matrix(aug).to_field()
    rref, pivots = dm.rref()
    if len(gens) in pivots:
        return None
    want = [sympy.Integer(0)] * len(gens)
    for r, c in enumerate(pivots):
        want[c] = dm.domain.to_sympy(rref[r, len(gens)].element)
    return want


def assert_matches_sympy(sol, want):
    if want is None:
        assert sol is None
        return
    assert sol is not None and len(sol) == len(want)
    for coeff, expected in zip(sol, want):
        assert sympy.cancel(poly_to_sympy(coeff) - expected) == 0


def test_span_and_express_mixed_denominators_vs_sympy():
    # Both hypersurfaces non-normal: t1 = (w + X)/2, t2 = (u + Y)/2 and
    # t1*t2 = (w + X)(u + Y)/4 have denominator exponents 0, 1, 1, 2,
    # and the products and targets mix 0, 1 and 2.  The solver only
    # keeps the solutions when every vector is scaled by one common
    # power of 2; scaling each by its own would rescale the unknowns.
    alg = make_algebra(RING, P("X^2+4"), P("Y^2+4"))
    w, u = alg.root_f(), alg.root_g()
    t1 = (w + alg.scalar(X)).half()
    t2 = (u + alg.scalar(Y)).half()
    gens = [alg.one(), t1, t2, k_mul(t1, t2)]
    assert [g.denom_exp for g in gens] == [0, 1, 1, 2]
    table = closure_table(gens)
    exponents = set()
    for (i, j), sol in table.items():
        product = k_mul(gens[i], gens[j])
        exponents.add(product.denom_exp)
        assert_matches_sympy(sol, sympy_solution(gens, product))
    assert exponents == {0, 1, 2}

    span = [alg.one(), t1, k_mul(t1, t2)]
    xs = [w, k_mul(t1, t1), k_mul(t1, t2).scale_poly(X), u, t2, t1 + t2.half()]
    assert [x.denom_exp for x in xs] == [0, 1, 2, 0, 1, 2]
    sols = express_in_span(xs, span)
    assert [sol is None for sol in sols] == [False, False, False, True, True, True]
    for x, sol in zip(xs, sols):
        assert_matches_sympy(sol, sympy_solution(span, x))


def test_in_colon_tau_conducts_P():
    # tau * P lands in A: the defining property making P the conductor
    # in the product-criterion case.
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    p_ideal = IdealGens(
        algebra=alg,
        gens=[alg.scalar(2), w - alg.scalar(X), u - alg.scalar(Y)],
        name="P",
    )
    assert in_colon(tau_of(alg), p_ideal)
    assert in_colon(alg.one(), p_ideal)
    assert not in_colon(w.half(), p_ideal)


def test_in_colon_of_two():
    alg = case_b_algebra()
    p_ideal = IdealGens(algebra=alg, gens=[alg.scalar(2)], name="P0")
    # x is in (A : (2)) iff 2x is in A.
    assert in_colon(alg.root_f().half(), p_ideal)


def exact_in_colon(x, ideal):
    """The reference colon test: reduce every exact product, read its denominator."""
    return all(a_membership(k_mul(x, g)) for g in ideal.gens)


def test_in_colon_is_membership_of_every_product(monkeypatch):
    # in_colon reads residues mod 2^k; the reference multiplies exactly.
    # Scalar generators p (content valuation 0 to 3, and p = 0) and
    # k = 0 form no product at all, so they make no call of a product
    # loop: algebra._product (every K-product, table and scale_poly) or
    # poly._accumulate (every Poly product).
    products = []
    for module, name in ((algebra, "_product"), (poly, "_accumulate")):
        loop = getattr(module, name)
        monkeypatch.setattr(
            module,
            name,
            lambda *args, loop=loop, name=name: products.append(name) or loop(*args),
        )
    rng = random.Random(1305)
    algebras = [case_b_algebra(), make_algebra(RING, P("X^2*Y+2*X+2"), P("Y^2+2*X*Y+6"))]
    verdicts = {}
    probed = 0  # tests that formed a product: the probe sees the kernel
    for alg in algebras:
        w, u, wu = alg.root_f(), alg.root_g(), alg.root_fg()
        two, four = RING.const(2), RING.const(4)
        scalars = [alg.scalar(P(p)) for p in ("1", "X+3", "2", "6", "4*X+4", "8")]
        scalars.append(alg.zero())
        pool = scalars + [
            w.scale_poly(two),
            (u - alg.scalar(Y)).scale_poly(two),
            (wu + alg.scalar(X)).scale_poly(four),
            w + alg.scalar(X),
            u - alg.scalar(Y),
            wu + alg.scalar(2),
        ]
        for _ in range(150):
            # Numerators whose coordinates are often multiples of 2, 4 or
            # 8, so both verdicts occur for denominators 2, 4 and 8.
            coords = [rand_coord(rng).scale(rng.choice([1, 2, 4, 8])) for _ in range(4)]
            x = alg.element(coords, rng.randrange(4))
            ideals = [[rng.choice(scalars)], rng.sample(pool, rng.randrange(1, 3))]
            ideals.append(ideals[1] + [alg.element([rand_coord(rng) for _ in range(4)])])
            for gens in ideals:
                ideal = IdealGens(alg, gens)
                expected = exact_in_colon(x, ideal)
                products.clear()
                assert in_colon(x, ideal) == expected
                if x.denom_exp == 0 or all(g in scalars for g in gens):
                    assert products == []
                probed += bool(products)
                key = (x.denom_exp, expected)
                verdicts[key] = verdicts.get(key, 0) + 1
    classes = {(0, True)} | {(k, v) for k in (1, 2, 3) for v in (True, False)}
    assert set(verdicts) == classes
    assert min(verdicts.values()) >= 10, verdicts
    assert probed >= 100
    other = make_algebra(RING, P("X^2+2"), P("Y^2+6"))
    with pytest.raises(ValueError):
        in_colon(other.one(), IdealGens(algebras[0], [algebras[0].one()]))
    # k = k_x needs the generators in A, also after the ideal was built.
    ideal = IdealGens(algebras[0], [algebras[0].scalar(2)])
    ideal.gens.append(algebras[0].root_f().half())
    for x in (algebras[0].one(), algebras[0].root_f().half()):
        with pytest.raises(WitnessMismatchError):
            in_colon(x, ideal)


def test_bounded_colon_search_case_b(monkeypatch):
    alg = case_b_algebra()
    w, u = alg.root_f(), alg.root_g()
    p_ideal = IdealGens(
        algebra=alg,
        gens=[alg.scalar(2), w - alg.scalar(X), u - alg.scalar(Y)],
        name="P",
    )

    def residues_unused(*args):
        raise AssertionError("the oracle must not share in_colon's residue code")

    # An independent oracle reads exact k_mul products, never the
    # residues mod 2^k that in_colon decides on.
    with monkeypatch.context() as m:
        m.setattr(algebra, "_residues", residues_unused)
        found = bounded_colon_search(p_ideal, 1, 3)
    assert found[0] == alg.one()
    fractional = [x for x in found if x.denom_exp == 1]
    assert fractional, "the dual of P contains genuinely fractional elements"
    for x in found:
        assert in_colon(x, p_ideal)
    # tau itself is among the solutions up to A-span: check that tau
    # minus some found fractional element lands in A.
    tau = tau_of(alg)
    assert any(a_membership(tau - x) or a_membership(tau + x) for x in fractional)


def test_bounded_colon_search_denominator_4():
    # The mod-4 stage on the grade-2 family's (A : I): its mod-2
    # equations are not trivial, so the q unknowns must sit past the
    # lift multipliers' bits for the solutions to hold.
    ring = BaseRing(("V", "X", "Y"))
    alg = make_algebra(
        ring, parse_poly("V^2*X^2-2*X^2+4", ring), parse_poly("V^2*Y^2-2*Y^2+4", ring)
    )
    ideal = ideal_I(alg)
    for degree in (1, 2):
        found = bounded_colon_search(ideal, 2, degree)
        assert found[0] == alg.one()
        for x in found:
            assert in_colon(x, ideal)
        # The denominator-2 solutions are the q-only solutions of stage 2.
        assert len(found) >= len(bounded_colon_search(ideal, 1, degree))


def test_bounded_colon_search_guards():
    alg = case_b_algebra()
    p_ideal = IdealGens(algebra=alg, gens=[alg.scalar(2)], name="P0")
    with pytest.raises(BoundTooLargeError):
        bounded_colon_search(p_ideal, 3, 3)
    with pytest.raises(BoundTooLargeError):
        bounded_colon_search(p_ideal, 1, 9)
