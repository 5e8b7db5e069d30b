"""Multivariate polynomial gcd, and the square test on integer constants.

The gcd kernel works on the package's one polynomial type, Poly, in the
operands' own ring.  Gcds are computed by the classical primitive-part
recursion on a main variable x_j, from the last variable down: split
off the content with respect to x_j (poly.coefficients_in gives the
coefficients, polynomials in x_0, ..., x_{j-1}), recurse on contents,
and run Brown's subresultant polynomial remainder sequence on the
primitive parts.  Every division along the way is exact, so the
coefficient arithmetic is that of Poly: poly_dot, ** and divide_exact.
Each PRS intermediate is a Poly, so one whose monomial degree reaches
2^16 raises BoundTooLargeError like any other product (poly.py).

The same kernel runs over Z and over GF(2), where it reduces each
product with reduce_mod_2k(., 1) and divides with f2_divide_exact; the
GF(2) gcd is genuinely a separate computation, not a reduction of the
integer one, since gcds do not commute with reduction mod 2.  The
recursion calls no public gcd function, so one gcd_z or gcd_f2 call is
one call however deep it recurses.

Most gcds the hypothesis checks ask for are 1, so ``gcd_q`` first tries
an exact coprimality certificate from modular images (after Brown 1971
and Zippel 1979).  For each variable x_j, every other variable is set to
a fixed point mod the prime p = 2^31 - 1, giving univariate images in
GF(p)[x_j].  The certificate needs one input whose image keeps its full
x_j-degree, and the gcd of the images in GF(p)[x_j] must be a nonzero
constant.  That proves deg_xj G = 0 for the true gcd G: G divides the
input that kept its degree, so the leading coefficient of G survives
too and G's image keeps G's x_j-degree; and G's image divides the gcd
of the images.  When this holds for every variable, G is a constant
over Q.  Any other outcome proves nothing, and ``gcd_q`` runs the
subresultant PRS as before.  The points are constants, so every result
is deterministic.

The gcd of two images a, b is decided exactly, and mostly without a
remainder sequence (``_ucoprime``).  The units of GF(p)[t] are the
nonzero constants, so a nonzero constant image is coprime to anything,
and gcd(a, 0) = a.  A linear image b = b1*t + b0 (b1 != 0) is
irreducible: its only divisors are the units and the associates of b,
so gcd(a, b) is 1 or b.  By the factor theorem b divides a exactly when
a(r) = 0 at its one root r = -b0/b1, and a zero a is no exception.  So
one inverse of b1 and a Horner pass over a decide the pair; only two
images of degree 2 or more run the Euclid.  The squarefree test of a
quadratic image always takes the root path, since its derivative is
linear, and so does the coprimality test of any image against a linear
or constant one.

Each polynomial's images are computed once: ``_univariate_images``
gives, per variable x_j, the polynomial's x_j-degree and its image in
GF(p)[x_j], and the result is kept in a lazily filled slot of the Poly,
so the squarefree tests of f and g and the coprimality test of the
pair (f, g) read the same images of f and g.

The same images certify squarefreeness (``squarefree_by_images``): for
every variable x_j with deg_xj f > 0, the image f_j must keep its
x_j-degree and gcd(f_j, f_j') must be 1 over GF(p).  Proof: if h^2
divides f over Q with h nonconstant, take h primitive in Z[x], so
f = h^2 * q in Z[x] by Gauss's lemma, and pick x_j in h.  The leading
x_j-coefficient of f is lc(h)^2 * lc(q), so the image keeping its degree
means h_j keeps deg_xj h > 0.  Then f_j = h_j^2 * q_j, and the formal
derivative f_j' = h_j * (2 h_j' q_j + h_j q_j') is divisible by h_j too,
in any characteristic: gcd(f_j, f_j') is not constant.  ``is_squarefree``
reads the images of f itself, not of its primitive part: the content is
a unit mod p unless p divides it, and then every image of f is 0, the
degree test fails and the subresultant path decides.

``gcd_f2`` first writes each operand as its largest monomial factor
times a part that no variable divides (poly.monomial_split).  The
variables are irreducible and divide neither part, so
gcd(m_a * r_a, m_b * r_b) = gcd(m_a, m_b) * gcd(r_a, r_b), where
gcd(m_a, m_b) takes the smaller exponent of each variable
(poly.monomial_gcd).  When either part is 1 the gcd is that
monomial and no recursion runs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BothZeroError
from .poly import (
    Poly,
    coefficients_in,
    divide_exact,
    exponent_terms,
    f2_divide_exact,
    monomial_gcd,
    monomial_split,
    poly_dot,
    primitive,
    reduce_mod_2k,
)


# Per variable x_j: (deg_xj p, the trimmed image of p in GF(_P)[x_j]).
Images = Tuple[Tuple[int, Tuple[int, ...]], ...]


# ---------------------------------------------------------------------------
# Subresultant gcd over Z and over GF(2)


def _reduced(p: Poly, f2: bool) -> Poly:
    """p, or over GF(2) its 0/1 residue."""
    return reduce_mod_2k(p, 1) if f2 else p


def _divide(a: Poly, b: Poly, f2: bool) -> Poly:
    return f2_divide_exact(a, b) if f2 else divide_exact(a, b)


def _lead(p: Poly, j: int) -> Tuple[int, Optional[Poly]]:
    """(deg_xj p, the leading coefficient of p in x_j); (-1, None) for zero."""
    coeffs = coefficients_in(p, j)
    if not coeffs:
        return -1, None
    d = max(coeffs)
    return d, coeffs[d]


def _content(coeffs: Dict[int, Poly], j: int, f2: bool) -> Poly:
    """The gcd of the coefficients of a polynomial in x_j (by degree)."""
    g = None
    for d in sorted(coeffs):
        g = coeffs[d] if g is None else _gcd(g, coeffs[d], j - 1, f2)
    return g


def _gcd(a: Poly, b: Poly, j: int, f2: bool) -> Poly:
    """A gcd of a and b, polynomials in x_0, ..., x_j, up to a unit.

    For j = -1 both are constants: their integer gcd, or 1 over GF(2).
    Otherwise gcd(a, b) = gcd(cont a, cont b) * gcd(prim a, prim b),
    the contents taken in x_j and their gcd one variable down.  An
    operand free of x_j has primitive part 1, and the gcd of two
    primitive parts is the primitive part of the last element of their
    subresultant PRS, or 1 when that has x_j-degree 0.
    """
    if not a:
        return b
    if not b:
        return a
    if j < 0:
        return a.ring.const(1 if f2 else math.gcd(a.constant_coeff(), b.constant_coeff()))
    ka, kb = coefficients_in(a, j), coefficients_in(b, j)
    ca, cb = _content(ka, j, f2), _content(kb, j, f2)
    cg = _gcd(ca, cb, j - 1, f2)
    if max(ka) == 0 or max(kb) == 0:
        return cg
    h = _subresultant_last(_divide(a, ca, f2), _divide(b, cb, f2), j, f2)
    kh = coefficients_in(h, j)
    if max(kh) == 0:
        return cg
    return _reduced(_divide(h, _content(kh, j, f2), f2) * cg, f2)


def _prem(f: Poly, g: Poly, j: int, f2: bool) -> Poly:
    """Pseudo-remainder of f by g in x_j.

    Classical prem: lc(g)^(deg f - deg g + 1) * f = q*g + prem(f, g),
    so every subtraction step stays inside the coefficient ring.
    """
    (df, _), (dg, lg) = _lead(f, j), _lead(g, j)
    if df < dg:
        return f
    x = g.ring.gens()[j]
    n = df - dg + 1
    r = f
    while True:
        dr, lr = _lead(r, j)
        if dr < dg:
            break
        n -= 1
        r = _reduced(poly_dot(r.ring, ((r, lg), (g, -lr * x ** (dr - dg)))), f2)
    return _reduced(r * lg**n, f2) if n else r


def _subresultant_last(f: Poly, g: Poly, j: int, f2: bool) -> Poly:
    """Last nonzero element of the subresultant PRS of f and g in x_j.

    Brown's subresultant sequence: each pseudo-remainder is divided by a
    predicted factor free of x_j, keeping coefficient growth polynomial
    while using only exact divisions.  The bookkeeping of the running
    factors b and c follows Brown's algorithm with c stored negated.
    """
    if _lead(f, j)[0] < _lead(g, j)[0]:
        f, g = g, f
    m, lc = _lead(g, j)
    d = _lead(f, j)[0] - m
    h = _prem(f, g, j, f2)
    if d % 2 == 0:
        h = _reduced(-h, f2)
    c = _reduced(-(lc**d), f2)
    while h:
        dh = _lead(h, j)[0]
        f, g, m, d = g, h, dh, m - dh
        b = -lc * c**d
        h = _divide(_prem(f, g, j, f2), b, f2)
        lc = _lead(g, j)[1]
        c = _divide((-lc) ** d, c ** (d - 1), f2) if d > 1 else _reduced(-lc, f2)
    return g


# ---------------------------------------------------------------------------
# Coprimality certificate from modular images

_P = 2**31 - 1
# Variable x_i is evaluated at _POINT_BASE + _POINT_STEP * i.
_POINT_BASE = 1000003
_POINT_STEP = 7919


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _urem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Remainder of a by a nonzero b in GF(_P)[t]; coefficients lowest first."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, _P)
    while len(a) > db:
        q = a[-1] * inv % _P
        shift = len(a) - 1 - db
        for i in range(db):
            a[shift + i] = (a[shift + i] - q * b[i]) % _P
        a.pop()
        _trim(a)
    return a


def _ucoprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether trimmed a, b have a nonzero constant gcd in GF(_P)[t].

    Let b be the shorter image.  A nonzero constant b is coprime to
    anything; a zero b leaves gcd(a, 0) = a.  A linear b = b1*t + b0 is
    irreducible with the one root r = -b0/b1, so gcd(a, b) is b or 1 as
    a(r) is 0 or not (a zero a included): one inverse and a Horner pass.
    Only two images of degree 2 or more run the Euclid on _urem.  The
    module docstring says why each rule is exact.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 2:
        r = -b[0] * pow(b[1], -1, _P) % _P
        v = 0
        for c in reversed(a):
            v = (v * r + c) % _P
        return v != 0
    if len(b) < 2:
        return len(b) == 1 or len(a) == 1
    while b:
        a, b = b, _urem(a, b)
    return len(a) == 1


def _univariate_images(p: Poly) -> Images:
    """Per variable x_j: (deg_xj p, the trimmed image of p in GF(_P)[x_j]).

    The image sets every other variable x_i to its fixed point.  It kept
    its x_j-degree exactly when its length is deg_xj p + 1.
    """
    points = [_POINT_BASE + _POINT_STEP * i for i in range(p.ring.nvars)]
    # Per term: its exponents, coefficient and the powers of every point.
    terms = [
        (e, c, [pow(x, d, _P) for x, d in zip(points, e)]) for e, c in exponent_terms(p)
    ]
    out = []
    for j in range(len(points)):
        img = [0] * (1 + max((t[0][j] for t in terms), default=-1))
        for e, c, powers in terms:
            v = c
            for i, w in enumerate(powers):
                if i != j:
                    v = v * w % _P
            img[e[j]] += v
        out.append((len(img) - 1, tuple(_trim([v % _P for v in img]))))
    return tuple(out)


def _images(p: Poly) -> Images:
    """_univariate_images(p), computed once and kept on p."""
    if p._images is None:
        p._images = _univariate_images(p)
    return p._images


def _coprime_by_images(a: Poly, b: Poly) -> bool:
    """True only when gcd(a, b) over Q is a constant; see the module docstring.

    False means "not proved": a zero operand, a ring without variables,
    or images that lose degree or share a factor at the fixed point.
    """
    if a.ring.nvars == 0 or a.ring != b.ring or a.is_zero() or b.is_zero():
        return False
    for (da, ia), (db, ib) in zip(_images(a), _images(b)):
        kept = len(ia) == da + 1 or len(ib) == db + 1
        if not (kept and _ucoprime(ia, ib)):
            return False
    return True


def squarefree_by_images(p: Poly) -> bool:
    """True only when p has no repeated nonconstant factor over Q.

    See the module docstring.  False means "not proved": a zero
    operand, or an image that loses degree or shares a factor with its
    derivative.
    """
    if p.is_zero():
        return False
    for deg, img in _images(p):
        if deg == 0:
            continue
        if len(img) != deg + 1:
            return False
        derivative = [i * c % _P for i, c in enumerate(img)][1:]
        if not _ucoprime(img, _trim(derivative)):
            return False
    return True


def _normalize_sign(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, c = p.lead()
    return p.scale(-1) if c < 0 else p


def gcd_z(a: Poly, b: Poly) -> Poly:
    """Gcd in Z[variables], including the integer content.

    Normalized so the graded-lex leading coefficient is positive.
    """
    if a.ring != b.ring:
        raise ValueError("operands belong to different rings")
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    if (not a.is_zero() and a.is_constant()) or (not b.is_zero() and b.is_constant()):
        # A nonzero constant operand leaves only the integer contents.
        return a.ring.const(math.gcd(a.integer_content(), b.integer_content()))
    return _normalize_sign(_gcd(a, b, a.ring.nvars - 1, False))


def gcd_q(a: Poly, b: Poly) -> Poly:
    """Primitive-part gcd over Q: the gcd in Q[variables], returned as a
    primitive integer polynomial with positive leading coefficient."""
    if _coprime_by_images(a, b):
        return a.ring.one()
    return primitive(gcd_z(a, b))[1]


def gcd_many_q(polys) -> Poly:
    """Iterated gcd_q over a nonempty sequence, skipping leading zeros.

    Stops at the first unit: the gcd is then 1 whatever follows.
    """
    acc = None
    for p in polys:
        if acc is None:
            acc = p
        elif acc.is_zero() and p.is_zero():
            continue
        else:
            acc = gcd_q(acc, p)
        if acc.is_constant() and not acc.is_zero():
            # A nonzero constant is a unit of Q[variables].
            return acc.ring.one()
    if acc is None:
        raise BothZeroError("gcd of an empty sequence")
    if acc.is_zero():
        raise BothZeroError("gcd(0, ..., 0) is undefined")
    return _normalize_sign(primitive(acc)[1])


def gcd_f2(a: Poly, b: Poly) -> Poly:
    """Gcd of a and b mod 2 in GF(2)[variables] as a 0/1 Poly, computed
    directly in characteristic two.

    The largest monomial factor of each operand is split off first, and
    only the two remaining parts go through the recursion; see the
    module docstring.
    """
    if a.ring != b.ring:
        raise ValueError("operands belong to different rings")
    a, b = reduce_mod_2k(a, 1), reduce_mod_2k(b, 1)
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    ma, pa = monomial_split(a)
    mb, pb = monomial_split(b)
    m = monomial_gcd((ma, mb))
    if pa.num_terms() == 1 or pb.num_terms() == 1:
        # One part is 1, so the gcd is the common monomial factor.
        return m
    g = _gcd(pa, pb, a.ring.nvars - 1, True)
    # x^m times a divisor of both parts: no degree beyond either operand's.
    return g * m


# ---------------------------------------------------------------------------
# Exact squares


def is_ring_square(p: Poly) -> bool:
    """Whether the constant p = n is the square of an element of S.

    n is a square in S exactly when it is the square of an integer,
    n >= 0 and isqrt(n)^2 = n: from n*q^2 = r^2 in the UFD Z[variables]
    (r/q a root in S) every prime occurs in n to even multiplicity, and
    the leading coefficients of q^2 and r^2 are positive.  A
    non-constant p raises ValueError; degree_four_check asks about
    constants alone.
    """
    if not p.is_constant():
        raise ValueError("is_ring_square decides constants only")
    n = p.constant_coeff()
    return n >= 0 and math.isqrt(n) ** 2 == n
