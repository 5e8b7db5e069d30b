"""Hypothesis predicates: squarefreeness, coprimality, S^2 membership,
the mod-4 product criterion, and the shape of Q = (2, h1, h2)."""

import functools
import math
import random

import pytest
import sympy

from poly_terms import sorted_terms

from cmwitness.errors import (
    MalformedSequenceError,
    ZeroInputError,
)
from cmwitness.poly import BaseRing, Poly, half, is_even, parse_poly
from cmwitness.predicates import (
    S2Witness,
    decompose_S2,
    degree_four_check,
    ideal_Q_classify,
    in_S2wedge4,
    is_squarefree,
    product_in_S2wedge4,
    regular_sequence_certificate,
    satisfies_A1,
)

RING = BaseRing(("X", "Y", "V"))
X, Y, V = RING.gens()
P = lambda s: parse_poly(s, RING)


def test_is_squarefree_basic():
    assert is_squarefree(P("X*V^2+4"))
    assert not is_squarefree(P("X^2*Y"))
    assert is_squarefree(P("X"))
    assert is_squarefree(P("2*X"))
    assert not is_squarefree(P("4*X"))
    assert not is_squarefree(P("4"))
    assert is_squarefree(P("2"))
    assert is_squarefree(P("3"))
    with pytest.raises(ZeroInputError):
        is_squarefree(RING.zero())


def test_is_squarefree_two_adic_times_polynomial():
    # 4+2X = 2*(2+X): the 2-adic valuation is 1 and 2+X is squarefree,
    # so the element is squarefree even though its content is even.
    assert is_squarefree(P("2*X+4"))
    # One more factor of the same irreducible breaks it.
    assert not is_squarefree(P("(X+2)^2"))
    # Odd content is invisible to the localized ring.
    assert is_squarefree(P("9*X"))
    assert not is_squarefree(P("9*X^2"))


def test_is_squarefree_q_square_factors():
    assert not is_squarefree(P("(X+Y)^2*V"))
    assert is_squarefree(P("(X+Y)*V"))
    assert not is_squarefree(P("2*(X+Y)^2"))


def test_satisfies_A1():
    assert satisfies_A1(P("X*V^2+4"), P("X*Y^2+4"))
    assert satisfies_A1(P("X^2+2"), P("Y^2*(X^2+2)+4"))
    assert not satisfies_A1(P("2*X"), P("2*Y"))
    assert not satisfies_A1(P("X*Y"), P("X*V"))
    # Sharing a factor only mod 2 is allowed: height-one primes of S
    # other than (2) must divide over Q.
    assert satisfies_A1(P("X^2+2"), P("X^2+4"))
    with pytest.raises(ZeroInputError):
        satisfies_A1(RING.zero(), X)


def test_degree_four_check():
    assert degree_four_check(P("X*V^2+4"), P("X*Y^2+4"))
    assert degree_four_check(P("X^2+2"), P("Y^2+2"))
    # Under the hypotheses only a constant can be a square: f or g ...
    assert not degree_four_check(P("9"), P("Y^2+2"))
    assert not degree_four_check(P("X^2+2"), P("1"))
    # ... or f*g, when both are constant.
    assert not degree_four_check(P("3"), P("3"))
    assert degree_four_check(P("3"), P("5"))
    # A non-constant square, or f*g = X * X*Y^2, is not squarefree, so
    # the squarefree hypothesis rejects it before this check runs.
    assert not is_squarefree(P("X^2"))
    assert not is_squarefree(X * Y * Y)


SYMS = sympy.symbols("X Y V")


@functools.lru_cache(maxsize=None)
def is_q_square(p):
    """sympy's verdict on whether p is a square in Q[X, Y, V].

    p = c * prod f_i^m_i (squarefree decomposition, f_i primitive with
    positive leading coefficient) is a Q-square exactly when the
    integer c is a positive square and every m_i is even.
    """
    c, factors = sympy.Poly.from_dict(dict(sorted_terms(p)), *SYMS).sqf_list()
    c = int(c)
    return c > 0 and math.isqrt(c) ** 2 == c and all(m % 2 == 0 for _, m in factors)


def full_degree_four_check(f, g):
    """The check before the reduction, by sympy: none of f, g, f*g a Q-square."""
    return not any(is_q_square(p) for p in (f, g, f * g))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_degree_four_check_matches_the_full_loop(seed):
    # On pairs that satisfy the hypotheses the reduced check, which
    # tests only constants, agrees with sympy on f, g and f*g.
    rng = random.Random(seed)
    squares = [1, 9, 25, 49]
    constants = squares + [-1, -9, -25, -3, 2, 6, -2, 18, 3, 5, 7, 15]
    mono = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    polys = []
    while len(polys) < 12:
        terms = {e: rng.choice([-3, -2, -1, 1, 2, 3, 4]) for e in rng.sample(mono, 3)}
        p = Poly(RING, terms).scale(rng.choice([1, 1, 9, 25, -1]))
        if not p.is_constant() and is_squarefree(p):
            polys.append(p)
    inputs = [RING.const(c) for c in constants] + polys
    pairs = [(f, g) for f in inputs for g in inputs]
    rng.shuffle(pairs)
    false = checked = 0
    for f, g in pairs:
        if not (is_squarefree(f) and is_squarefree(g) and satisfies_A1(f, g)):
            continue
        verdict = degree_four_check(f, g)
        assert verdict == full_degree_four_check(f, g), (f, g)
        checked += 1
        false += not verdict
    assert false >= 30 and checked - false >= 30


def test_decompose_S2():
    w = decompose_S2(P("X^2+2"))
    assert w is not None and w.h == X and w.a == RING.one()
    assert decompose_S2(P("X*V^2+4")) is None
    w0 = decompose_S2(P("2*Y"))
    assert w0 is not None and w0.h.is_zero() and w0.a == Y
    # Soundness: h^2 + 2a re-expands to the input.
    for text in ("X^2+2", "2*Y", "V^2*X^2-2*X^2+4", "-X^2+4"):
        f = P(text)
        wit = decompose_S2(f)
        assert wit is not None
        assert wit.h * wit.h + wit.a.scale(2) == f


def test_in_S2wedge4():
    w = in_S2wedge4(decompose_S2(P("V^2*X^2+4")))
    assert w is not None and w.h == V * X and w.a_prime == RING.one()
    assert in_S2wedge4(decompose_S2(P("V^2*X^2-2*X^2+4"))) is None
    assert in_S2wedge4(decompose_S2(P("2*Y"))) is None
    assert in_S2wedge4(decompose_S2(P("X*V^2+4"))) is None
    # Soundness: h^2 + 4*a_prime re-expands to the input.
    for text in ("V^2*X^2+4", "X^2+4", "X^2*Y^2+4*Y^2+4*X+8"):
        f = P(text)
        wit = in_S2wedge4(decompose_S2(f))
        assert wit is not None
        assert wit.h * wit.h + wit.a_prime.scale(4) == f


def test_in_S2wedge4_lift_independence():
    # Replacing the canonical lift h by h + 2t changes a = (f - h^2)/2 by
    # -2(th + t^2), never its parity: for every shifted lift, a_t is even
    # exactly when f lies in S^{2,4}.  One f inside, one outside.
    rng = random.Random(77)
    for text, inside in (("V^2*X^2+4", True), ("V^2*X^2-2*X^2+4", False)):
        f = P(text)
        assert (in_S2wedge4(decompose_S2(f)) is not None) == inside
        h = decompose_S2(f).h
        for _ in range(10):
            t = Poly(
                RING,
                {
                    tuple(rng.randrange(2) for _ in RING.variables): rng.randrange(-3, 4)
                    for _ in range(2)
                },
            )
            h_shift = h + t.scale(2)
            a_t = half(f - h_shift * h_shift)
            assert is_even(a_t) == inside


def test_lift_identity_avoids_existing_variable_names():
    # Variables named like a fresh lift variable ("T", "T_") are
    # ordinary ring variables to the S^{2,4} test.
    ring = BaseRing(("X", "T", "T_"))
    Xr, T, T_ = ring.gens()
    inside = (Xr * T + T_) ** 2 + ring.const(4)
    outside = (Xr * T + T_) ** 2 + T.scale(2) + ring.const(4)
    w = in_S2wedge4(decompose_S2(inside))
    assert w is not None and w.h * w.h + w.a_prime.scale(4) == inside
    assert in_S2wedge4(decompose_S2(outside)) is None


def test_product_in_S2wedge4():
    wf = decompose_S2(P("V^2*X^2-2*X^2+4"))
    wg = decompose_S2(P("V^2*Y^2-2*Y^2+4"))
    assert wf is not None and wg is not None
    assert product_in_S2wedge4(wf, wg)
    wf2 = decompose_S2(P("X^2+2"))
    wg2 = decompose_S2(P("Y^2+2"))
    assert not product_in_S2wedge4(wf2, wg2)


def exact_product_in_S2wedge4(wf, wg):
    """The reference criterion: form a*h2^2 + b*h1^2 exactly."""
    return is_even(wf.a * wg.h * wg.h + wg.a * wf.h * wf.h)


def test_product_in_S2wedge4_matches_exact_parity():
    # The residue criterion squares h by doubling exponents mod 2; the
    # witnesses here have negative and even coefficients in h and a.
    rng = random.Random(2103)

    def rand_poly():
        return Poly(
            RING,
            {
                tuple(rng.randrange(3) for _ in RING.variables): rng.randrange(-6, 7)
                for _ in range(rng.randrange(4))
            },
        )

    verdicts = {True: 0, False: 0}
    for _ in range(400):
        wf = S2Witness(h=rand_poly(), a=rand_poly())
        wg = S2Witness(h=rand_poly(), a=rand_poly())
        expected = exact_product_in_S2wedge4(wf, wg)
        assert product_in_S2wedge4(wf, wg) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_product_criterion_matches_direct_membership():
    # Whenever f*g lands in S^2, the witness criterion a*h2^2 + b*h1^2
    # being even must agree with the S^{2,4} test of f*g itself.
    pairs = [
        ("X^2+2", "Y^2+2"),
        ("X^2+2", "X^2*Y^2+2*Y^2+4"),
        ("V^2*X^2-2*X^2+4", "V^2*Y^2-2*Y^2+4"),
        ("-X^2+4", "-Y^2+4"),
        ("X^2+4", "Y^2+2"),
    ]
    for ftext, gtext in pairs:
        f, g = P(ftext), P(gtext)
        wf, wg = decompose_S2(f), decompose_S2(g)
        assert wf is not None and wg is not None
        direct = in_S2wedge4(decompose_S2(f * g)) is not None
        assert product_in_S2wedge4(wf, wg) == direct


def test_ideal_Q_classify():
    assert ideal_Q_classify(V * X, V * Y).tag == "Grade2Pd3"
    assert ideal_Q_classify(X, Y).tag == "Grade3CI_NotTwoGen"
    assert ideal_Q_classify(X, X * Y).tag == "TwoGenerated"
    assert ideal_Q_classify(RING.one() + X.scale(2), Y).tag == "UnitIdeal"
    shape = ideal_Q_classify(V * X.scale(3), V * Y + X.scale(2))
    assert str(shape.z) == "V" and str(shape.c) == "X" and str(shape.e) == "Y"
    # Factorization invariant: z*c and z*e are the reductions mod 2,
    # and each field is a 0/1 Poly, its own lift.
    assert shape.z * shape.c == V * X and shape.z * shape.e == V * Y
    assert (shape.z, shape.c, shape.e) == (V, X, Y)


def test_ideal_Q_classify_symmetry():
    rng = random.Random(88)
    for _ in range(50):
        h1 = Poly(
            RING,
            {
                tuple(rng.randrange(3) for _ in RING.variables): rng.randrange(-4, 5)
                for _ in range(1 + rng.randrange(3))
            },
        )
        h2 = Poly(
            RING,
            {
                tuple(rng.randrange(3) for _ in RING.variables): rng.randrange(-4, 5)
                for _ in range(1 + rng.randrange(3))
            },
        )
        if is_even(h1) and is_even(h2):
            continue
        assert ideal_Q_classify(h1, h2).tag == ideal_Q_classify(h2, h1).tag


def test_ideal_Q_shape_from_f_and_g_matches_shape_from_h1_and_h2():
    # f = h1^2 + 2a and g = h2^2 + 2b reduce to the squares of h1 and h2,
    # and squaring is injective on F2[x]: the gcd, the cofactors and
    # every unit test of (fbar, gbar) are the squares of those of
    # (h1bar, h2bar), so Q's shape is the same from either pair.
    rng = random.Random(119)

    def rand_poly():
        return Poly(
            RING,
            {
                tuple(rng.randrange(3) for _ in RING.variables): rng.randrange(-4, 5)
                for _ in range(rng.randrange(3))
            },
        )

    def rand_factor():
        # A sum of one or two variables, plus 1 (a unit) 40% of the time.
        acc = sum(rng.sample((X, Y, V), rng.randrange(1, 3)), RING.zero())
        return acc + 1 if rng.random() < 0.4 else acc

    tags = {}
    for _ in range(300):
        z, c, e = rand_factor(), rand_factor(), rand_factor()
        h1 = z * c + rand_poly().scale(2)
        h2 = z * e + rand_poly().scale(2)
        f = h1 * h1 + rand_poly().scale(2)
        g = h2 * h2 + rand_poly().scale(2)
        tag = ideal_Q_classify(h1, h2).tag
        assert ideal_Q_classify(f, g).tag == tag
        tags[tag] = tags.get(tag, 0) + 1
    assert len(tags) == 4 and min(tags.values()) >= 25, tags


def test_ideal_Q_classify_degenerate():
    assert ideal_Q_classify(RING.zero(), RING.zero()).tag == "TwoGenerated"
    assert ideal_Q_classify(X.scale(2), Y.scale(2)).tag == "TwoGenerated"
    # One side even: shape degenerates to (2, h2).
    assert ideal_Q_classify(RING.zero(), X).tag == "TwoGenerated"


def test_regular_sequence_certificate():
    two = RING.const(2)
    assert regular_sequence_certificate([two, X, Y])
    assert not regular_sequence_certificate([two, V * X, V * Y])
    assert not regular_sequence_certificate([two, X, X])
    assert not regular_sequence_certificate([two, X.scale(2), Y])
    with pytest.raises(MalformedSequenceError):
        regular_sequence_certificate([two, X])
