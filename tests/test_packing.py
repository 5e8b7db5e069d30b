"""Packed monomial keys against a tuple reference, and the width bound.

poly.py stores each monomial as one int key (degree and exponents in
FIELD_BITS-bit fields).  The reference here works on exponent tuples as
the package did before packing: graded lex is (sum(e), e), a product
adds componentwise, a quotient subtracts componentwise when no entry
goes negative.  Random vectors in 1 to 16 variables, with degrees up
to the width bound, must give the same order, products, quotients,
monomial gcds, coefficients in one variable, occurring variables,
Frobenius squares and square roots mod 2, and canonical text.
"""

import json
import random
import time

import pytest

from poly_terms import sorted_terms

from cmwitness.cli import main
from cmwitness.errors import BoundTooLargeError, PolyParseError
from cmwitness.poly import (
    FIELD_BITS,
    BaseRing,
    NotDivisibleError,
    Poly,
    coefficients_in,
    divide_exact,
    format_poly,
    frobenius_mod2,
    occurring_variables,
    parse_poly,
    sqrt_f2,
)

TOP = (1 << FIELD_BITS) - 1  # the largest degree that packs


def ring_of(n):
    return BaseRing(tuple("x%d" % i for i in range(n)))


def rand_exponent(rng, n, degree=None):
    """A vector of total degree ``degree`` (random, up to TOP, if None)."""
    if degree is None:
        degree = rng.choice([rng.randrange(6), rng.randrange(TOP + 1)])
    cuts = sorted(rng.randrange(degree + 1) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def grlex(e):
    return (sum(e), e)


def ref_quotient(e1, e2):
    d = tuple(a - b for a, b in zip(e1, e2))
    return None if min(d) < 0 else d


def ref_product(a, b):
    """Term dicts keyed by tuples: the product, zeros dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_format(ring, terms):
    chunks = []
    for e in sorted(terms, key=grlex, reverse=True):
        c = terms[e]
        mono = "*".join(
            v if k == 1 else "%s^%d" % (v, k) for v, k in zip(ring.variables, e) if k
        )
        chunks.append(str(c) if not mono else mono if c == 1 else
                      "-" + mono if c == -1 else "%d*%s" % (c, mono))
    if not chunks:
        return "0"
    return chunks[0] + "".join(s if s[0] == "-" else "+" + s for s in chunks[1:])


def rand_terms(rng, n, count, max_degree):
    terms = {}
    for _ in range(count):
        e = rand_exponent(rng, n, rng.randrange(max_degree + 1))
        terms[e] = rng.choice([-3, -2, -1, 1, 1, 2, 5])
    return terms


def test_pack_unpack_and_order():
    rng = random.Random(2501)
    for n in range(1, 17):
        ring = ring_of(n)
        vectors = [rand_exponent(rng, n) for _ in range(60)]
        vectors += [tuple(rng.randrange(3) for _ in range(n)) for _ in range(20)]
        keys = [ring.pack(e) for e in vectors]
        assert [ring.unpack(k) for k in keys] == vectors
        for _ in range(200):
            i, j = rng.randrange(len(keys)), rng.randrange(len(keys))
            assert (keys[i] < keys[j]) == (grlex(vectors[i]) < grlex(vectors[j]))
            assert (keys[i] == keys[j]) == (vectors[i] == vectors[j])
        assert [ring.unpack(k) for k in sorted(keys)] == sorted(vectors, key=grlex)


def test_products_add_keys():
    rng = random.Random(2502)
    for n in range(1, 17):
        ring = ring_of(n)
        for _ in range(100):
            e1 = rand_exponent(rng, n)
            e2 = rand_exponent(rng, n, rng.randrange(TOP - sum(e1) + 1))
            product = tuple(a + b for a, b in zip(e1, e2))
            assert ring.pack(e1) + ring.pack(e2) == ring.pack(product)
        for _ in range(20):
            a = rand_terms(rng, n, rng.randrange(4), 40)
            b = rand_terms(rng, n, rng.randrange(4), 40)
            got = Poly(ring, a) * Poly(ring, b)
            assert dict(sorted_terms(got)) == ref_product(a, b)


def test_monomial_divisibility_and_quotient():
    rng = random.Random(2503)
    for n in range(1, 17):
        ring = ring_of(n)
        for _ in range(150):
            e1 = rand_exponent(rng, n)
            kind = rng.randrange(3)
            if kind == 0:  # a divisor
                e2 = tuple(rng.randrange(k + 1) for k in e1)
            elif kind == 1:  # one entry past e1's: a borrow in one field
                i = rng.randrange(n)
                e2 = tuple(k + (j == i) for j, k in enumerate(e1))
                if sum(e2) > TOP:
                    continue
            else:
                e2 = rand_exponent(rng, n)
            want = ref_quotient(e1, e2)
            got = ring.monomial_quotient(ring.pack(e1), ring.pack(e2))
            assert got == (None if want is None else ring.pack(want)), (e1, e2)
            # divide_exact on single terms agrees.
            a, b = Poly(ring, {e1: 6}), Poly(ring, {e2: -3})
            if want is None:
                assert not divide_exact_ok(a, b)
            else:
                assert divide_exact(a, b) == Poly(ring, {want: -2})


def divide_exact_ok(a, b):
    try:
        divide_exact(a, b)
    except NotDivisibleError:
        return False
    return True


def test_coefficients_in_one_variable_and_monomial_gcd():
    rng = random.Random(2505)
    for n in range(1, 17):
        ring = ring_of(n)
        assert coefficients_in(ring.zero(), n - 1) == {}
        for _ in range(40):
            terms = rand_terms(rng, n, 1 + rng.randrange(5), TOP)
            i = rng.randrange(n)
            want = {}
            for e, c in terms.items():
                rest = tuple(0 if j == i else k for j, k in enumerate(e))
                want.setdefault(e[i], {})[rest] = c
            got = coefficients_in(Poly(ring, terms), i)
            assert {d: dict(sorted_terms(c)) for d, c in got.items()} == want
            least = tuple(map(min, zip(*terms)))
            assert ring.monomial_gcd([ring.pack(e) for e in terms]) == ring.pack(least)


def test_occurring_variables():
    rng = random.Random(2506)
    for n in range(1, 17):
        ring = ring_of(n)
        assert occurring_variables(ring.zero()) == occurring_variables(ring.one()) == []
        for _ in range(40):
            terms = rand_terms(rng, n, 1 + rng.randrange(5), rng.choice((4, TOP)))
            want = [j for j in range(n) if any(e[j] for e in terms)]
            assert occurring_variables(Poly(ring, terms)) == want


def test_frobenius_and_sqrt_mod2():
    rng = random.Random(2504)
    for n in range(1, 17):
        ring = ring_of(n)
        for _ in range(40):
            terms = rand_terms(rng, n, rng.randrange(5), TOP // 2)
            p = Poly(ring, terms)
            odd = {e: 1 for e, c in terms.items() if c % 2}
            square = {tuple(2 * k for k in e): 1 for e in odd}
            assert dict(sorted_terms(frobenius_mod2(p))) == square
            assert dict(sorted_terms(sqrt_f2(Poly(ring, square)))) == odd
            # One odd exponent in one odd monomial: no root mod 2.
            if odd:
                e = rng.choice(sorted(odd))
                i = rng.randrange(n)
                bent = tuple(2 * k + (j == i) for j, k in enumerate(e))
                if sum(bent) <= TOP:
                    assert sqrt_f2(Poly(ring, {**square, bent: 3})) is None


def test_parse_of_format_and_canonical_text():
    rng = random.Random(2505)
    for n in range(1, 17):
        ring = ring_of(n)
        for _ in range(30):
            terms = rand_terms(rng, n, rng.randrange(6), 12)
            p = Poly(ring, terms)
            text = format_poly(p)
            assert text == ref_format(ring, {e: c for e, c in terms.items() if c})
            assert format_poly(p) is text  # built once
            assert parse_poly(text, ring) == p


def test_degree_bound_at_the_field_width():
    ring = ring_of(3)
    # Degree 2^B - 1 packs in any field; 2^B does not.
    for e in ((TOP, 0, 0), (0, 0, TOP), (1, TOP - 2, 1)):
        assert ring.unpack(ring.pack(e)) == e
    for e in ((TOP + 1, 0, 0), (0, 0, TOP + 1), (1, TOP - 1, 1)):
        with pytest.raises(BoundTooLargeError):
            ring.pack(e)
    with pytest.raises(ValueError):
        ring.pack((1, 2))
    with pytest.raises(ValueError):
        Poly(ring, {(1, -1, 0): 1})
    # A product one past the bound raises instead of carrying.
    x, y, z = ring.gens()
    high = Poly(ring, {(TOP - 1, 0, 0): 1})
    assert (high * z).total_degree() == TOP
    with pytest.raises(BoundTooLargeError):
        high * z * y
    with pytest.raises(BoundTooLargeError):
        (high + x) * (x * x + 1)
    # Squaring mod 2 doubles every exponent.
    half_top = Poly(ring, {(0, (TOP + 1) // 2 - 1, 0): 1})
    assert frobenius_mod2(half_top).total_degree() == TOP - 1
    with pytest.raises(BoundTooLargeError):
        frobenius_mod2(half_top * y)
    # Only odd terms are squared: an even one past half the bound is not.
    assert frobenius_mod2((half_top * y).scale(2) + x) == x * x


def product_text(degree):
    """x0^64*x0^64*...: a product of bounded powers of total ``degree``."""
    full, rest = divmod(degree, 64)
    return "*".join(["x0^64"] * full + (["x0^%d" % rest] if rest else []))


def test_parse_rejects_a_product_past_the_width():
    ring = ring_of(2)
    assert parse_poly(product_text(TOP), ring).total_degree() == TOP
    with pytest.raises(PolyParseError):
        parse_poly(product_text(TOP + 1), ring)


def test_cli_job_past_the_width_exits_2(tmp_path, capsys):
    job = {"variables": ["x0", "x1"], "f": product_text(TOP + 1) + "+2", "g": "x1^2+2"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    start = time.perf_counter()
    assert main(["classify", "--job", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().err)["error"] == "PolyParseError"
