"""Subresultant gcd layer, cross-checked against sympy as an oracle."""

import random

import pytest
import sympy

from cmwitness.gcd import (
    BothZeroError,
    gcd_f2,
    gcd_many_q,
    gcd_q,
    gcd_z,
    integer_sqrt_exact,
    is_ring_square,
    poly_sqrt_z,
)
from cmwitness.poly import BaseRing, Poly, lift_f2, parse_poly, reduce_mod2

RING = BaseRing(("X", "Y", "V"))
X, Y, V = RING.gens()
SYMS = sympy.symbols("X Y V")


def to_sympy(p):
    expr = sympy.Integer(0)
    for e, c in p.sorted_terms():
        term = sympy.Integer(c)
        for s, k in zip(SYMS, e):
            term *= s**k
        expr += term
    return sympy.expand(expr)


def from_sympy(expr):
    return parse_poly(
        str(sympy.expand(expr)).replace(" ", "").replace("**", "^"), RING
    )


def rand_poly(rng, max_terms=4, max_deg=2, max_coeff=6):
    terms = {}
    for _ in range(1 + rng.randrange(max_terms)):
        e = tuple(rng.randrange(max_deg + 1) for _ in RING.variables)
        c = rng.randrange(-max_coeff, max_coeff + 1)
        terms[e] = terms.get(e, 0) + c
    return Poly(RING, {e: c for e, c in terms.items() if c})


def test_gcd_q_basic():
    assert gcd_q(X * X - Y * Y, X + Y) == X + Y
    assert gcd_q(X, Y) == RING.one()
    assert gcd_q((X + Y).scale(2), (X + Y).scale(4)) == X + Y
    assert gcd_q(RING.zero(), X * Y) == X * Y
    with pytest.raises(BothZeroError):
        gcd_q(RING.zero(), RING.zero())


def test_gcd_q_sign_normalized():
    assert gcd_q(-X - Y, -(X * X) - X * Y) == X + Y
    assert gcd_q(-X, -X) == X


def test_gcd_z_keeps_integer_content():
    assert gcd_z((X * X - Y * Y).scale(2), (X + Y).scale(4)) == (X + Y).scale(2)
    assert gcd_z(RING.const(6), RING.const(10)) == RING.const(2)


def test_gcd_many_q():
    assert gcd_many_q([X * X * Y, X * Y * Y, X * Y]) == X * Y
    assert gcd_many_q([X, Y, V]) == RING.one()
    assert gcd_many_q([RING.zero(), X * Y]) == X * Y
    # Once the running gcd is a unit, later zeros and non-units leave it 1.
    assert gcd_many_q([X, RING.const(-3), RING.zero(), X * Y, RING.zero()]) == RING.one()
    assert gcd_many_q([RING.const(6)]) == RING.one()


def test_gcd_q_vs_sympy_random():
    # The subresultant PRS gcd must agree with sympy's gcd up to a
    # rational constant; both are normalized here so equality is exact.
    rng = random.Random(333)
    agree = 0
    while agree < 200:
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() and b.is_zero():
            continue
        ours = gcd_q(a, b)
        theirs = sympy.gcd(to_sympy(a), to_sympy(b))
        theirs_poly = from_sympy(theirs)
        # sympy returns a primitive gcd over Q up to sign; compare
        # after clearing sign and content on both sides.
        assert ours.num_terms() == theirs_poly.num_terms()
        lead_ratio_ok = (
            ours * theirs_poly.lead()[1] == theirs_poly * ours.lead()[1]
            or ours * theirs_poly.lead()[1] == -(theirs_poly * ours.lead()[1])
        )
        assert lead_ratio_ok
        agree += 1


def test_gcd_q_structured_products():
    rng = random.Random(334)
    for _ in range(100):
        common = rand_poly(rng)
        if common.is_zero():
            continue
        a = common * rand_poly(rng)
        b = common * rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        g = gcd_q(a, b)
        # The common factor must divide the computed gcd over Q: check
        # via sympy's exact division.
        q, rem = sympy.div(to_sympy(g), to_sympy(common), *SYMS)
        assert rem == 0


def test_gcd_f2():
    a = reduce_mod2(X * X + Y * Y)
    b = reduce_mod2(X + Y)
    assert gcd_f2(a, b) == b
    assert gcd_f2(reduce_mod2(X), reduce_mod2(Y)).is_unit()
    z = reduce_mod2(RING.zero())
    assert gcd_f2(z, b) == b


def test_gcd_f2_vs_sympy_random():
    rng = random.Random(335)
    checked = 0
    while checked < 200:
        a, b = rand_poly(rng), rand_poly(rng)
        ra, rb = reduce_mod2(a), reduce_mod2(b)
        if ra.is_zero() and rb.is_zero():
            continue
        ours = gcd_f2(ra, rb)
        theirs = sympy.gcd(
            sympy.Poly(to_sympy(a), *SYMS, modulus=2),
            sympy.Poly(to_sympy(b), *SYMS, modulus=2),
        )
        ours_sympy = sympy.Poly(to_sympy(lift_f2(ours)), *SYMS, modulus=2)
        assert ours_sympy == theirs or ours_sympy == -theirs
        checked += 1


def test_integer_sqrt_exact():
    assert integer_sqrt_exact(0) == 0
    assert integer_sqrt_exact(1) == 1
    assert integer_sqrt_exact(144) == 12
    assert integer_sqrt_exact(2) is None
    assert integer_sqrt_exact(-4) is None
    assert integer_sqrt_exact(10**40) == 10**20


def test_poly_sqrt_z():
    assert poly_sqrt_z((X + Y) ** 2) == X + Y
    assert poly_sqrt_z(X * X + RING.one()) is None
    assert poly_sqrt_z(RING.const(9)) == RING.const(3)
    assert poly_sqrt_z(RING.zero()) == RING.zero()
    # Sign is normalized: (-X-Y)^2 has the same square root.
    assert poly_sqrt_z((-X - Y) ** 2) == X + Y


def test_poly_sqrt_z_random():
    rng = random.Random(336)
    for _ in range(200):
        p = rand_poly(rng)
        sq = p * p
        root = poly_sqrt_z(sq)
        assert root is not None and root * root == sq


def test_is_ring_square():
    assert is_ring_square(RING.const(9)) == RING.const(3)
    assert is_ring_square((X * Y).scale(2) ** 2) == (X * Y).scale(2)
    assert is_ring_square(X) is None
    # Unit multiples: 9*(X+Y)^2 is a square of 3*(X+Y).
    assert is_ring_square((X + Y) ** 2 * RING.const(9)) == (X + Y).scale(3)
