"""Subresultant gcd layer, cross-checked against sympy as an oracle."""

import random

import pytest
import sympy

from poly_terms import sorted_terms

from cmwitness import gcd, predicates
from cmwitness.gcd import (
    BothZeroError,
    _coprime_by_images,
    _gcd,
    _normalize_sign,
    gcd_f2,
    gcd_many_q,
    gcd_q,
    gcd_z,
    is_ring_square,
    squarefree_by_images,
)
from cmwitness.poly import (
    BaseRing,
    NotDivisibleError,
    Poly,
    f2_divide_exact,
    is_even,
    monomial_gcd,
    monomial_split,
    parse_poly,
    partial_derivative,
    primitive,
    reduce_mod_2k,
    sqrt_f2,
)
from cmwitness.predicates import is_squarefree

RING = BaseRing(("X", "Y", "V"))
X, Y, V = RING.gens()
SYMS = sympy.symbols("X Y V")
# The certificate's evaluation points for X, Y and V.
X_POINT, Y_POINT, V_POINT = 1000003, 1007922, 1015841


def to_sympy(p):
    expr = sympy.Integer(0)
    for e, c in sorted_terms(p):
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


def prs_gcd_z(a, b):
    """gcd_z computed by the subresultant recursion alone, over Z."""
    return _normalize_sign(_gcd(a, b, RING.nvars - 1, False))


def sympy_gcd_q(a, b):
    """sympy's gcd, made primitive with a positive leading coefficient."""
    g = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
    c = g.integer_content()
    g = Poly(RING, {e: v // c for e, v in sorted_terms(g)})
    return -g if g.lead()[1] < 0 else g


def test_gcd_z_constant_operand():
    assert gcd_z(RING.zero(), X) == X
    assert gcd_z(X.scale(6), RING.const(-4)) == RING.const(2)
    assert gcd_z(RING.const(-4), RING.zero()) == RING.const(4)
    assert gcd_z(RING.const(-3), X + Y) == RING.one()
    rng = random.Random(337)
    checked = 0
    while checked < 100:
        a = rand_poly(rng)
        c = RING.const(rng.choice([-12, -6, -4, -1, 1, 2, 3, 8, 30]))
        if a.is_zero():
            continue
        assert gcd_z(a, c) == prs_gcd_z(a, c)
        assert gcd_z(c, a) == prs_gcd_z(c, a)
        checked += 1


def test_certificate_never_claims_a_shared_factor():
    # Seeded products c*u, c*v with a nonconstant common factor c.
    rng = random.Random(338)
    checked = 0
    while checked < 60:
        common = rand_poly(rng)
        a = common * rand_poly(rng)
        b = common * rand_poly(rng)
        if common.is_constant() or a.is_zero() or b.is_zero():
            continue
        assert not _coprime_by_images(a, b)
        assert gcd_q(a, b) == sympy_gcd_q(a, b)
        checked += 1


def test_certificate_agrees_with_sympy_random():
    # Whenever the certificate fires, the true gcd over Q is 1; on these
    # seeded pairs it also fires for every coprime pair.
    rng = random.Random(339)
    fired = coprime = 0
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            continue
        proved = _coprime_by_images(a, b)
        if sympy_gcd_q(a, b) == RING.one():
            coprime += 1
        else:
            assert not proved
        fired += proved
    assert fired == coprime > 100


def test_certificate_with_vanishing_leading_coefficients():
    # c's X-leading coefficient Y - Y_POINT and its Y-leading coefficient
    # X - X_POINT both vanish at the fixed point, where c's images are 1.
    c = (Y - Y_POINT) * (X - X_POINT) + RING.one()
    a = c * (X + Y + RING.one())
    b = c * (X + Y + RING.const(2))
    # Both inputs drop degree in X and in Y; the images alone would look
    # coprime, so the certificate must fall through to the PRS.
    assert not _coprime_by_images(a, b)
    assert gcd_q(a, b) == c
    # One input keeps its degree in each variable: proved coprime.
    d = (Y - Y_POINT) * X + RING.one()
    assert _coprime_by_images(d, X + Y)
    assert gcd_q(d, X + Y) == RING.one()
    # Neither input keeps its X-degree: not proved, though coprime.
    e = (Y - Y_POINT) * X + Y
    assert not _coprime_by_images(d, e)
    assert gcd_q(d, e) == RING.one()


def test_certificate_integer_common_divisor_and_degenerate_inputs():
    # Only an integer divides both: gcd_q is still 1, gcd_z keeps it.
    assert _coprime_by_images(X.scale(6), Y.scale(4))
    assert gcd_q(X.scale(6), Y.scale(4)) == RING.one()
    assert gcd_z(X.scale(6), Y.scale(4)) == RING.const(2)
    # Zero operands and rings without variables are never certified.
    assert not _coprime_by_images(RING.zero(), X)
    assert gcd_q(RING.zero(), X.scale(-3)) == X
    ring0 = BaseRing(())
    assert not _coprime_by_images(ring0.const(2), ring0.const(3))
    assert gcd_q(ring0.const(2), ring0.const(3)) == ring0.one()


def test_coprime_pair_skips_the_subresultant_prs(monkeypatch):
    calls = []
    prs = gcd._subresultant_last

    def counting(*args):
        calls.append(args)
        return prs(*args)

    monkeypatch.setattr(gcd, "_subresultant_last", counting)
    assert gcd_q(X * X + Y.scale(4) - RING.const(12), X * Y + RING.const(2)) == RING.one()
    assert gcd_many_q([X * Y + V, X + RING.one(), Y * V]) == RING.one()
    assert calls == []
    assert gcd_q(X * X - Y * Y, X + Y) == X + Y
    assert calls


def test_one_gcd_call_is_one_public_call(monkeypatch):
    # The tracer counts gcd.gcd_z calls and their unit results, so the
    # PRS recursion, contents included, calls no public gcd function.
    calls = []

    def counted(name):
        original = getattr(gcd, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("gcd_z", "gcd_q", "gcd_many_q", "gcd_f2", "_subresultant_last"):
        monkeypatch.setattr(gcd, name, counted(name))
    # The V-contents X + Y and (X + Y)(X - Y) have a gcd of their own.
    a = (X + Y) * (X * V + Y + RING.one())
    b = (X + Y) * (X - Y) * (Y * V + X)
    assert gcd.gcd_z(a, b) == X + Y
    assert calls.count("gcd_z") == 1 and calls.count("_subresultant_last") >= 2
    assert not {"gcd_q", "gcd_many_q", "gcd_f2"} & set(calls)
    calls.clear()
    a = (X + Y + RING.one()) * (X * Y + RING.one())
    b = (X + Y + RING.one()) * (X + RING.one())
    assert gcd.gcd_f2(a, b) == X + Y + RING.one()
    assert calls.count("gcd_f2") == 1 and "_subresultant_last" in calls
    assert not {"gcd_z", "gcd_q", "gcd_many_q"} & set(calls)


def subresultant_squarefree(f):
    """is_squarefree by the joint gcd with the partials alone."""
    content, pp = primitive(f)
    if content % 4 == 0:
        return False
    if pp.is_constant():
        return True
    partials = [partial_derivative(pp, i) for i in range(RING.nvars)]
    return gcd_many_q([pp] + partials).is_constant()


def sympy_squarefree_over_q(f):
    _, factors = sympy.Poly(to_sympy(f), *SYMS).sqf_list()
    return all(m == 1 for _, m in factors)


def planted_square_factors(rng):
    """Five nonconstant h to plant as h^2: one in each variable alone,
    one whose leading coefficient vanishes at the fixed point, one random."""
    univariate = []
    for x in (X, Y, V):
        # h in x alone, of degree 1 or 2, with a nonzero constant term
        # at times and none at others.
        h = x.scale(rng.choice([1, -1, 2, 3])) + RING.const(rng.randrange(-3, 4))
        if rng.random() < 0.5:
            h = h * x + RING.const(rng.randrange(-2, 3))
        univariate.append(h)
    vanishing = [
        # Leading coefficients that vanish at the fixed point, in X, Y or
        # V; the last h has the image 1 in every variable, so only the
        # degree test keeps the certificate from accepting h^2 * q.
        (Y - Y_POINT) * X + RING.one(),
        (V - V_POINT) * Y + X,
        (X - X_POINT) * V + Y + RING.const(2),
        (Y - Y_POINT) * (X - X_POINT) + V,
        (Y - Y_POINT) * (X - X_POINT) + RING.one(),
    ]
    while True:
        general = rand_poly(rng, max_terms=3, max_deg=1)
        if not general.is_constant():
            break
    return univariate + [rng.choice(vanishing), general]


def test_squarefree_certificate_on_planted_squares(monkeypatch):
    # f = c * h^2 * q with h nonconstant is never squarefree; the image
    # certificate must never say it is, and is_squarefree must agree
    # with the subresultant path on every input, planted or not (and
    # with sympy where the content is not divisible by 4).  Contents 2
    # and 4 exercise the 2-adic half of the test.
    fallbacks = []
    original = predicates.gcd_many_q

    def counting(polys):
        result = original(polys)
        fallbacks.append(result.is_constant())
        return result

    monkeypatch.setattr(predicates, "gcd_many_q", counting)
    rng = random.Random(340)
    planted = proved = 0
    for _ in range(60):
        for h in planted_square_factors(rng):
            q = rand_poly(rng, max_terms=2, max_deg=1)
            if q.is_zero():
                q = RING.one()
            content = RING.const(rng.choice([1, 2, 4, -1, 3, 6]))
            for f, square in ((content * h * h * q, True), (content * h * q, False)):
                verdict = is_squarefree(f)
                assert verdict == subresultant_squarefree(f)
                if square:
                    planted += 1
                    assert not squarefree_by_images(f)
                    assert not verdict
                elif primitive(f)[0] % 4:
                    assert verdict == sympy_squarefree_over_q(f)
                proved += squarefree_by_images(f)
    assert planted >= 300 and proved > 50
    # The fallback ran, and at least once on a squarefree input whose
    # images lost degree (the vanishing leading coefficients).
    assert False in fallbacks and True in fallbacks


def test_squarefree_certificate_vanishing_leading_coefficient():
    # c's X-leading coefficient Y - Y_POINT vanishes at the fixed point:
    # c is squarefree, but its X-image loses degree, so only the
    # fallback can say so.
    c = (Y - Y_POINT) * X + RING.one()
    assert not squarefree_by_images(c)
    assert is_squarefree(c)
    assert squarefree_by_images(X * Y + RING.one())
    # A content divisible by the prime zeroes every image.
    big = (X + Y).scale(2**31 - 1)
    assert not squarefree_by_images(big)
    assert is_squarefree(big)
    assert not squarefree_by_images(RING.zero())
    # A constant has no nonconstant factor; its 2-adic content is for
    # is_squarefree to judge.
    assert squarefree_by_images(BaseRing(()).const(4))


P = 2**31 - 1


def euclid_coprime(a, b):
    """Reference: gcd(a, b) in GF(P)[t] is a nonzero constant, by a
    remainder sequence on trimmed coefficient lists, lowest first."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, P)
        while len(a) >= len(b):
            q = a[-1] * inv % P
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % P
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def umul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % P
    return out


def rand_image(rng, deg):
    """A trimmed image of degree deg over GF(P); deg -1 is the zero image."""
    if deg < 0:
        return []
    return [rng.randrange(P) for _ in range(deg)] + [rng.randrange(1, P)]


def test_ucoprime_agrees_with_euclid(monkeypatch):
    # Seeded images of degree 0 to 4 on each side, half of them with a
    # planted common factor of degree 1 or 2, and the edge cases below.
    rems = []
    urem = gcd._urem
    monkeypatch.setattr(gcd, "_urem", lambda a, b: rems.append(1) or urem(a, b))
    rng = random.Random(341)
    cases = []
    for _ in range(400):
        da, db = rng.randrange(5), rng.randrange(5)
        a, b = rand_image(rng, da), rand_image(rng, db)
        if rng.random() < 0.5:
            common = rand_image(rng, rng.choice([1, 2]))
            a, b = umul(common, a), umul(common, b)
        cases.append((a, b))
    r = rng.randrange(P)
    root = [-r % P, 1]  # t - r
    cases += [
        # A shared linear factor, with the linear one on either side.
        (umul(root, [3, 0, 1]), umul(root, [5])),
        (umul(root, [7]), umul(root, [1, 2, 3, 4])),
        # Two linear images with the same root; with different roots.
        (umul(root, [3]), umul(root, [P - 5])),
        (umul(root, [3]), [r + 1, P - 1]),
        # A constant side, against zero, linear and quadratic images.
        ([4], []),
        ([], [P - 1]),
        ([4], root),
        ([2, 1, 1], [9]),
        # Zero images: gcd(a, 0) = a.
        ([], []),
        ([], root),
        (umul(root, root), []),
    ]
    verdicts = []
    for a, b in cases:
        want = euclid_coprime(a, b)
        assert gcd._ucoprime(a, b) == want
        assert gcd._ucoprime(b, a) == want
        verdicts.append(want)
    assert verdicts.count(True) > 150 and verdicts.count(False) > 150
    assert gcd._ucoprime(umul(root, [3]), umul(root, [P - 5])) is False
    assert gcd._ucoprime([4], []) is True and gcd._ucoprime([], []) is False
    # Only two images of degree 2 or more need the remainder sequence.
    rems.clear()
    for a, b in cases:
        if min(len(a), len(b)) <= 2:
            gcd._ucoprime(a, b)
    assert rems == []


def test_squarefree_certificate_double_linear_root():
    # (X + 2)^2: the X-image has a double root, its derivative is linear.
    assert not squarefree_by_images((X + RING.const(2)) * (X + RING.const(2)) * (Y + V))
    assert not squarefree_by_images((X + Y) * (X + Y))
    # X^2 + Y - Y_POINT is squarefree, but its X-image t^2 is not: not
    # proved, and the fallback decides.
    f = X * X + Y - RING.const(Y_POINT)
    assert not squarefree_by_images(f)
    assert is_squarefree(f)


def test_images_are_computed_once_per_polynomial(monkeypatch):
    computed = []
    original = gcd._univariate_images

    def counting(p):
        computed.append(p)
        return original(p)

    monkeypatch.setattr(gcd, "_univariate_images", counting)
    f = parse_poly("X^2+2*X*Y+4", RING)
    g = parse_poly("Y^2+2*V+4", RING)
    assert squarefree_by_images(f) and squarefree_by_images(g)
    assert _coprime_by_images(f, g) and _coprime_by_images(g, f)
    assert computed == [f, g]
    # An equal polynomial built again has its own images; equality and
    # hashing ignore the cached slot.
    f_again = parse_poly("X^2+2*X*Y+4", RING)
    assert f_again == f and hash(f_again) == hash(f)
    assert _coprime_by_images(f_again, g)
    assert len(computed) == 3


def is_01(p):
    """Every coefficient is 1: p is a residue mod 2, its own lift."""
    return all(c == 1 for c in p._terms.values())


def mod2_sympy(p):
    return sympy.Poly(to_sympy(p), *SYMS, modulus=2)


def test_gcd_f2():
    a = X * X + Y.scale(3) * Y
    b = X.scale(-1) + Y
    assert gcd_f2(a, b) == X + Y
    assert gcd_f2(X, Y.scale(5)).is_unit()
    assert gcd_f2(RING.const(2), b) == X + Y


def test_gcd_f2_vs_sympy_random():
    # The operands are unreduced; every result must be a 0/1 residue.
    rng = random.Random(335)
    checked = 0
    while checked < 200:
        a, b = rand_poly(rng), rand_poly(rng)
        if is_even(a) and is_even(b):
            continue
        ours = gcd_f2(a, b)
        theirs = sympy.gcd(mod2_sympy(a), mod2_sympy(b))
        ours_sympy = mod2_sympy(ours)
        assert ours_sympy == theirs or ours_sympy == -theirs
        ca, cb = f2_divide_exact(a, ours), f2_divide_exact(b, ours)
        assert mod2_sympy(ca) * theirs == mod2_sympy(a)
        assert mod2_sympy(cb) * theirs == mod2_sympy(b)
        root = sqrt_f2(a * a)
        assert mod2_sympy(root) == mod2_sympy(a)
        if sqrt_f2(a) is not None:
            assert mod2_sympy(sqrt_f2(a)) ** 2 == mod2_sympy(a)
        shape = predicates.ideal_Q_classify(a, b)
        assert (shape.z, shape.c, shape.e) == (ours, ca, cb)
        assert all(is_01(p) for p in (ours, ca, cb, root))
        checked += 1


def test_gcd_f2_monomial_split_vs_sympy():
    # Random pairs times planted monomials, including pairs where a whole
    # operand is a monomial and the recursion is skipped.
    rng = random.Random(341)
    checked = skipped = 0
    while checked < 200:
        a, b = rand_poly(rng), rand_poly(rng)
        if rng.random() < 0.25:
            a = RING.one()
        ma = Poly(RING, {tuple(rng.randrange(3) for _ in SYMS): 1})
        mb = Poly(RING, {tuple(rng.randrange(3) for _ in SYMS): 1})
        ra, rb = reduce_mod_2k(a * ma, 1), reduce_mod_2k(b * mb, 1)
        if ra.is_zero() or rb.is_zero():
            continue
        parts = (monomial_split(ra)[1], monomial_split(rb)[1])
        skipped += any(part.num_terms() == 1 for part in parts)
        ours = gcd_f2(a * ma, b * mb)
        theirs = sympy.gcd(mod2_sympy(ra), mod2_sympy(rb))
        ours_sympy = mod2_sympy(ours)
        assert ours_sympy == theirs or ours_sympy == -theirs
        assert gcd_f2(rb, ra) == ours and is_01(ours)
        checked += 1
    assert skipped > 20


def test_split_monomial_and_division_by_one():
    r = X * X * Y + X * Y * V
    assert monomial_split(r) == (X * Y, X + V)
    assert monomial_split(X * Y) == (X * Y, RING.one())
    assert monomial_split(r + RING.one()) == (RING.one(), r + RING.one())
    assert monomial_gcd((X * X * Y, X * Y * V)) == X * Y
    assert monomial_gcd((X, V)) == RING.one()
    assert gcd_f2(r, X * X * V) == X
    assert gcd_f2(r, X * Y * (X + V)) == r
    # Division by 1 returns a reduced operand itself, and an unreduced
    # one mod 2.
    assert f2_divide_exact(r, RING.one()) is r
    assert f2_divide_exact(r, RING.const(-3)) is r
    assert f2_divide_exact(r.scale(3), RING.one()) == r
    assert f2_divide_exact(r, X * Y) == X + V
    with pytest.raises(NotDivisibleError):
        f2_divide_exact(r, X + Y)
    with pytest.raises(NotDivisibleError):
        f2_divide_exact(RING.one(), RING.const(2))


def test_is_ring_square():
    for n in (0, 1, 9, 144, 10**40):
        assert is_ring_square(RING.const(n))
    for n in (2, -1, -4, 10**40 + 1):
        assert not is_ring_square(RING.const(n))
    # Only constants are decided.
    for p in (X, (X + Y) ** 2, (X * Y).scale(2) ** 2):
        with pytest.raises(ValueError):
            is_ring_square(p)
