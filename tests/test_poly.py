"""Polynomial layer: arithmetic, parsing, formatting, GF(2) residues."""

import random

import pytest

from poly_terms import sorted_terms

from cmwitness import poly
from cmwitness.gcd import gcd_many_q, gcd_q, gcd_z, is_ring_square
from cmwitness.poly import (
    _MAX_NESTING,
    BaseRing,
    NotDivisibleError,
    Poly,
    PolyParseError,
    UnknownVariableError,
    compose,
    divide_exact,
    f2_divide_exact,
    format_poly,
    half,
    is_divisible,
    is_even,
    parse_poly,
    partial_derivative,
    poly_dot,
    reduce_mod_2k,
    sqrt_f2,
    substitute_ints,
)

RING = BaseRing(("X", "Y", "V"))
X, Y, V = RING.gens()


def rand_poly(rng, ring, max_terms=5, max_deg=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in ring.variables)
        c = rng.randrange(-max_coeff, max_coeff + 1)
        terms[e] = terms.get(e, 0) + c
    return Poly(ring, {e: c for e, c in terms.items() if c})


def test_ring_constructors():
    assert RING.nvars == 3
    assert str(RING.one()) == "1"
    assert str(RING.const(-5)) == "-5"
    assert RING.zero().is_zero()
    assert RING.var("Y") == Y
    with pytest.raises(ValueError):
        RING.var("Z")
    with pytest.raises(ValueError):
        BaseRing(("X", "X"))
    # The constant monomial's key is 0.  The key layout is built once per
    # ring, outside the fields: rings compare and hash by their variables
    # alone.
    assert RING.pack((0, 0, 0)) == 0 and RING.unpack(0) == (0, 0, 0)
    same = BaseRing(("X", "Y", "V"))
    assert same == RING and hash(same) == hash(RING) and repr(same) == repr(RING)


def test_arithmetic_identities():
    p = X * X * Y - Y.scale(3) + RING.const(7)
    q = V * V + X.scale(2)
    assert p + q - q == p
    assert p * RING.one() == p
    assert p * RING.zero() == RING.zero()
    assert (p + q) * (p - q) == p * p - q * q
    assert (X + Y) ** 2 == X * X + (X * Y).scale(2) + Y * Y
    assert p.scale(4) == p + p + p + p
    assert -(-p) == p
    assert 2 - RING.const(1) == RING.one()


def test_int_coercion():
    assert X + 1 == X + RING.one()
    assert 3 * X == X.scale(3)
    assert (X - 1) * (X + 1) == X * X - 1


def test_degree_and_lead():
    p = X * X * Y - V.scale(5)
    assert p.total_degree() == 3
    assert p.lead() == (RING.pack((2, 1, 0)), 1)
    assert RING.const(4).total_degree() == 0
    assert p.num_terms() == 2
    assert (X.scale(6) + Y.scale(9)).integer_content() == 3


def test_units_have_odd_constant_term():
    # S is local at (2, X, Y, V): a polynomial is a unit exactly when
    # its constant coefficient is odd (it then avoids the maximal ideal).
    assert RING.const(3).is_unit()
    assert RING.const(-1).is_unit()
    assert (X + RING.const(3)).is_unit()
    assert not RING.const(2).is_unit()
    assert not X.is_unit()
    assert not (X + RING.const(2)).is_unit()
    assert not RING.zero().is_unit()


def test_divide_exact():
    p = (X + Y) * (V - RING.const(2))
    assert divide_exact(p, X + Y) == V - RING.const(2)
    assert is_divisible(p, V - RING.const(2))
    assert not is_divisible(p, X - Y)
    with pytest.raises(NotDivisibleError):
        divide_exact(p, X - Y)
    with pytest.raises(NotDivisibleError):
        divide_exact(X, RING.zero())


def test_is_divisible_builds_no_message(monkeypatch):
    # is_divisible answers without an exception, so nothing is formatted;
    # divide_exact still names both operands.
    formatted = []
    monkeypatch.setattr(poly, "format_poly", lambda q: formatted.append(q) or "?")
    p = (X + Y) * (V - RING.const(2))
    for b in (X - Y, X * Y, RING.const(4), RING.zero()):
        assert not is_divisible(p, b)
    assert is_divisible(p, X + Y) and is_divisible(p.scale(4), RING.const(4))
    assert formatted == []
    monkeypatch.undo()
    with pytest.raises(NotDivisibleError, match=r"^X\*V\+Y\*V-2\*X-2\*Y is not divisible by X-Y$"):
        divide_exact(p, X - Y)
    with pytest.raises(ValueError):
        is_divisible(p, BaseRing(("X",)).var("X"))


def test_divide_exact_random_roundtrip():
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        a = rand_poly(rng, RING)
        b = rand_poly(rng, RING)
        if b.is_zero():
            continue
        assert divide_exact(a * b, b) == a
        checked += 1


def naive_product(a, b):
    """a*b term by term, without poly_dot."""
    terms = {}
    for e1, c1 in sorted_terms(a):
        for e2, c2 in sorted_terms(b):
            e = tuple(i + j for i, j in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Poly(a.ring, terms)


def test_poly_dot_is_the_sum_of_products():
    rng = random.Random(1201)
    for _ in range(300):
        pairs = [
            (rand_poly(rng, RING, max_terms=3), rand_poly(rng, RING, max_terms=3))
            for _ in range(rng.randrange(5))
        ]
        if pairs and rng.randrange(3) == 0:
            a, b = pairs[0]
            pairs.append((-a, b))  # cancels the first product exactly
        if rng.randrange(4) == 0:
            pairs.append((RING.zero(), rand_poly(rng, RING)))
        expected = RING.zero()
        for a, b in pairs:
            expected = expected + naive_product(a, b)
        got = poly_dot(RING, pairs)
        assert got == expected
        assert got.num_terms() == expected.num_terms()
        assert all(c != 0 for _, c in sorted_terms(got))
    p = X * Y + V
    assert poly_dot(RING, [(p, X), (-p, X)]).is_zero()
    assert poly_dot(RING, []).is_zero()
    # Poly.__mul__ is the one-pair case.
    assert X * (Y + 1) == poly_dot(RING, [(X, Y + 1)]) == X * Y + X


def test_poly_dot_rejects_an_operand_from_another_ring():
    other = BaseRing(("X", "Y"))
    Xo = other.var("X")
    for pairs in ([(Xo, X)], [(X, Xo)], [(X, Y), (V, Xo)]):
        with pytest.raises(ValueError):
            poly_dot(RING, pairs)
    with pytest.raises(ValueError):
        X * Xo
    for a, b in ((X, Xo), (Xo, X), (X, other.zero()), (RING.zero(), Xo)):
        with pytest.raises(ValueError):
            a + b
    # An equal ring built separately is the same ring.
    same = BaseRing(("X", "Y", "V"))
    assert poly_dot(same, [(X, Y)]) == X * Y
    assert X + same.var("Y") == X + Y


def test_divide_exact_by_a_single_term():
    rng = random.Random(1202)
    for _ in range(300):
        a = rand_poly(rng, RING)
        e = tuple(rng.randrange(3) for _ in RING.variables)
        b = Poly(RING, {e: rng.choice([-6, -3, -2, -1, 1, 2, 4, 5])})
        assert divide_exact(a * b, b) == a
        # b divides a exactly when it divides every term of a.
        divides = all(
            all(i >= j for i, j in zip(ea, e)) and ca % b.lead()[1] == 0
            for ea, ca in sorted_terms(a)
        )
        assert is_divisible(a, b) == divides
        if divides:
            assert divide_exact(a, b) * b == a
    with pytest.raises(NotDivisibleError):
        divide_exact(X.scale(6), RING.const(4))
    with pytest.raises(NotDivisibleError):
        divide_exact(X, Y)
    assert divide_exact(RING.zero(), RING.const(3)).is_zero()
    assert divide_exact(RING.zero(), (X * Y).scale(-2)).is_zero()
    assert divide_exact((X * X * Y).scale(-6) + X.scale(4), X.scale(-2)) == (
        (X * Y).scale(3) - RING.const(2)
    )


def test_divide_exact_by_a_constant():
    rng = random.Random(1303)
    for _ in range(200):
        a = rand_poly(rng, RING)
        b = RING.const(rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 8]))
        c = b.constant_coeff()
        if all(ca % c == 0 for _, ca in sorted_terms(a)):
            q = divide_exact(a, b)
            assert q == Poly(RING, {e: ca // c for e, ca in sorted_terms(a)})
            assert q * b == a
        else:
            with pytest.raises(NotDivisibleError) as info:
                divide_exact(a, b)
            assert str(info.value) == "%s is not divisible by %s" % (
                format_poly(a),
                format_poly(b),
            )
        assert divide_exact(a.scale(c), b) == a


def test_is_even_reads_the_coefficients():
    rng = random.Random(1203)
    for _ in range(300):
        p = rand_poly(rng, RING)
        if rng.randrange(2):
            p = p.scale(2)
        assert is_even(p) == reduce_mod_2k(p, 1).is_zero()
    assert is_even(RING.zero())
    assert not is_even(X.scale(2) + RING.const(-3))


def test_partial_derivative():
    p = X * X * Y + V.scale(3) + RING.const(11)
    assert partial_derivative(p, 0) == (X * Y).scale(2)
    assert partial_derivative(p, 1) == X * X
    assert partial_derivative(p, 2) == RING.const(3)


def test_substitute_ints():
    big = BaseRing(("X", "Y", "s"))
    p = parse_poly("X^2+2*s*Y+s^2", big)
    target = BaseRing(("X", "Y"))
    q = substitute_ints(p, {"s": 3}, target)
    assert q == parse_poly("X^2+6*Y+9", target)
    # Substituting nothing is a ring change only.
    r = substitute_ints(parse_poly("X*Y", big), {"s": 5}, target)
    assert r == parse_poly("X*Y", target)


def test_compose_with_constant_images_is_substitute_ints():
    rng = random.Random(1701)
    target = BaseRing(("Y", "V"))
    for _ in range(200):
        p = rand_poly(rng, RING)
        x, y, v = (rng.randrange(-3, 4) for _ in range(3))
        partial = (target.const(x), target.var("Y"), target.var("V"))
        assert compose(p, partial) == substitute_ints(p, {"X": x}, target)
        constants = tuple(target.const(n) for n in (x, y, v))
        assert compose(p, constants) == substitute_ints(p, {"X": x, "Y": y, "V": v}, target)


def test_compose_is_a_ring_map():
    # Seeded images, one of them zero and often one of them 1; one
    # shared memo per images tuple.
    rng = random.Random(1702)
    target = BaseRing(("S", "T"))
    s, t = target.gens()
    for n in range(200):
        images = [rand_poly(rng, target, max_terms=3, max_deg=2) for _ in range(3)]
        images[rng.randrange(3)] = target.zero()
        if n % 2:
            images[rng.randrange(3)] = target.one()
        p, q = rand_poly(rng, RING), rand_poly(rng, RING)
        memo = {}
        cp, cq = compose(p, images, memo), compose(q, images, memo)
        assert compose(p * q, images, memo) == cp * cq
        assert compose(p + q, images) == cp + cq
        assert all(is_canonical(x) for x in (cp, cq))
    # X -> S, Y -> -S: the images of X*V and Y*V cancel.
    assert compose(X * V + Y * V, (s, -s, t)).is_zero()
    assert compose(X * X - Y * Y + V, (s + t, s - t, t)) == (s * t).scale(4) + t


def test_compose_needs_one_image_per_variable_of_one_ring():
    other = BaseRing(("S",))
    with pytest.raises(ValueError):
        compose(X, (Y, V))
    with pytest.raises(ValueError):
        compose(X, (Y, V, other.var("S")))


def test_parse_basic():
    assert parse_poly("X^2*Y - 3*Y + 7", RING) == X * X * Y - Y.scale(3) + RING.const(7)
    assert parse_poly("-X^2+4", RING) == -(X * X) + RING.const(4)
    assert parse_poly("(X+Y)^2", RING) == (X + Y) ** 2
    assert parse_poly("2*(X - (Y - V))", RING) == (X - Y + V).scale(2)
    assert parse_poly("0", RING).is_zero()
    assert parse_poly("-2^2", RING) == RING.const(-4)


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("X^2+++", RING)
    with pytest.raises(PolyParseError):
        parse_poly("", RING)
    with pytest.raises(PolyParseError):
        parse_poly("(X+Y", RING)
    with pytest.raises(UnknownVariableError):
        parse_poly("X+Z", RING)
    with pytest.raises(PolyParseError):
        parse_poly("X^-1", RING)
    # Nesting is bounded so deep input is a parse error, not a crash.
    n = _MAX_NESTING
    assert parse_poly("(" * n + "X" + ")" * n, RING) == X
    with pytest.raises(PolyParseError):
        parse_poly("(" * (n + 1) + "X" + ")" * (n + 1), RING)


def test_format_roundtrip_random():
    rng = random.Random(202)
    for _ in range(300):
        p = rand_poly(rng, RING)
        assert parse_poly(format_poly(p), RING) == p


def test_format_canonical():
    # Graded lex, explicit '*' and '^', no spaces.
    assert format_poly(X * X * Y - Y.scale(3) + RING.const(7)) == "X^2*Y-3*Y+7"
    assert format_poly(RING.zero()) == "0"
    assert format_poly(-X) == "-X"
    assert format_poly(Y + X) == "X+Y"
    assert str(V * Y * X) == "X*Y*V"


def mod2(p):
    return reduce_mod_2k(p, 1)


def test_reduce_mod2():
    r = mod2(X * X + Y.scale(-3) + RING.const(4))
    assert str(r) == "X^2+Y"
    assert mod2(X.scale(2)).is_zero()
    assert mod2(RING.const(5)) == mod2(RING.const(-1)) == RING.one()
    assert mod2(RING.one()).is_unit() and not mod2(X + RING.const(2)).is_unit()
    assert str(mod2(RING.one())) == "1" and str(mod2(RING.const(2))) == "0"


def test_lift_and_parity():
    # A residue is its own 0/1 lift: reducing it again returns it.
    r = mod2(X * Y + RING.const(-1))
    assert r == X * Y + RING.const(1) and mod2(r) is r
    p = X.scale(5)
    assert reduce_mod_2k(p, 3) is p and reduce_mod_2k(p, 2) == X
    assert is_even(X.scale(2) + RING.const(4))
    assert not is_even(X.scale(2) + RING.const(3))
    assert half(X.scale(2) + RING.const(4)) == X + RING.const(2)
    with pytest.raises(NotDivisibleError):
        half(X + RING.const(2))


def test_sqrt_f2():
    # Operands are read mod 2: (X*Y+V)^2 has the even term 2*X*Y*V.
    assert sqrt_f2((X * Y + V) ** 2) == X * Y + V
    assert sqrt_f2(X * X.scale(-3) + (X * Y).scale(2)) == X
    assert sqrt_f2(X * Y) is None
    assert sqrt_f2(RING.zero()).is_zero()
    assert sqrt_f2(RING.const(7)) == RING.one()


def test_f2_division():
    a = (X + Y) * (X * Y + RING.const(1))
    b = X + Y.scale(3)
    assert f2_divide_exact(a, b) == X * Y + RING.const(1)
    assert f2_divide_exact(a.scale(-1), mod2(b)) == X * Y + RING.const(1)
    with pytest.raises(NotDivisibleError):
        f2_divide_exact(X, Y)
    with pytest.raises(NotDivisibleError):
        f2_divide_exact(X, RING.const(2))


def test_hash_consistency():
    seen = {X + Y: "a"}
    assert seen[Y + X] == "a"


def is_canonical(p):
    """No zero coefficient and only plain ints in the term dict."""
    return all(type(c) is int and c != 0 for c in p._terms.values())


def test_kernels_build_canonical_polynomials(monkeypatch):
    built = []
    from_canonical = Poly._from_canonical.__func__

    def recording(cls, ring, terms):
        p = from_canonical(cls, ring, terms)
        built.append(p)
        return p

    monkeypatch.setattr(Poly, "_from_canonical", classmethod(recording))
    rng = random.Random(1304)
    target = BaseRing(("Y", "V"))
    for _ in range(300):
        a = rand_poly(rng, RING, max_terms=4)
        b = rand_poly(rng, RING, max_terms=4)
        c = X + rand_poly(rng, RING, max_terms=2, max_deg=1).scale(2)  # never zero
        n = rng.choice([-3, -2, -1, 1, 2, 5])
        outputs = [
            a + b,
            a + (-a),  # cancels to zero
            a - b,
            -a,
            a.scale(n),
            a.scale(0),
            a * b,
            poly_dot(RING, [(a, b), (-a, b), (c, b)]),  # the first two cancel
            divide_exact((a * c).scale(n), c),
            divide_exact(a.scale(n), RING.const(n)),
            divide_exact(a * X * Y, X * Y),
            half(a.scale(2)),
            mod2(a),
            sqrt_f2(a * a),
            f2_divide_exact(a * c, c),
            partial_derivative(a, rng.randrange(3)),
            substitute_ints(a, {"X": rng.randrange(-2, 3)}, target),
            # X := 1 turns X*Y - Y into zero.
            substitute_ints(a + X * Y - Y, {"X": 1}, target),
            compose(a + X * Y - Y, (target.one(), target.var("Y"), target.var("V"))),
        ]
        if not (a.is_zero() or b.is_zero()):
            outputs += [gcd_z(a * c, b * c), gcd_q((a * c).scale(n), b * c)]
            outputs.append(gcd_many_q([(a * c).scale(6), (b * c).scale(4)]))
            assert is_ring_square(RING.const(4 * a.constant_coeff() ** 2))
        for p in outputs:
            assert is_canonical(p), p
    assert len(built) > 300 * 15
    assert all(is_canonical(p) for p in built)


def test_public_constructor_canonicalises():
    e, e2 = (1, 0, 0), (0, 1, 0)
    p = Poly(RING, {e: 0, e2: True})
    key = RING.pack(e2)
    assert p._terms == {key: 1} and type(p._terms[key]) is int
    assert p == Y
    assert p.scale(1) is p
    assert p + RING.zero() is p and RING.zero() + p is p
