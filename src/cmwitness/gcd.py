"""Multivariate polynomial gcd, and the square test on integer constants.

The gcd kernel works on a recursive dense representation: a polynomial
in k variables is a dict {degree in the last variable: polynomial in the
first k-1 variables}, bottoming out at integers; each level peels the
lowest field off the monomial keys (poly.py).  Gcds are computed by
the classical primitive-part recursion: split off the content with
respect to the last variable, recurse on contents, and run a
subresultant polynomial remainder sequence on the primitive parts.  All
divisions along the way are exact.

The same kernel runs over Z (mod=None) and over GF(2) (mod=2); the GF(2)
gcd is genuinely a separate computation, not a reduction of the integer
one, since gcds do not commute with reduction mod 2.

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
times a part that no variable divides.  The variables are irreducible
and divide neither part, so gcd(m_a * r_a, m_b * r_b) =
gcd(m_a, m_b) * gcd(r_a, r_b), where gcd(m_a, m_b) takes the smaller
exponent of each variable.  When either part is 1 the gcd is that
monomial and no recursion runs.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BothZeroError, NotDivisibleError
from .poly import FIELD_BITS, BaseRing, Poly, primitive, reduce_mod_2k


Rec = Union[int, Dict[int, "Rec"]]
_FIELD_MASK = (1 << FIELD_BITS) - 1
# Per variable x_j: (deg_xj p, the trimmed image of p in GF(_P)[x_j]).
Images = Tuple[Tuple[int, Tuple[int, ...]], ...]


def _rzero(k: int) -> Rec:
    return 0 if k == 0 else {}


def _ris_zero(a: Rec, k: int) -> bool:
    return a == 0 if k == 0 else not a


def _rnormal(d: Dict[int, Rec], k: int) -> Rec:
    # k >= 1; drop zero coefficients.
    return {i: c for i, c in d.items() if not _ris_zero(c, k - 1)}


def _to_rec(p_terms: Dict[int, int], k: int, mod: Optional[int]) -> Rec:
    if k == 0:
        c = sum(p_terms.values())  # at most one key is left at level 0
        return c % mod if mod else c
    buckets: Dict[int, Dict[int, int]] = {}
    for e, c in p_terms.items():
        buckets.setdefault(e & _FIELD_MASK, {})[e >> FIELD_BITS] = c
    out = {i: _to_rec(sub, k - 1, mod) for i, sub in buckets.items()}
    return _rnormal(out, k)


def _from_rec(a: Rec, k: int) -> Dict[int, int]:
    if k == 0:
        return {0: a} if a else {}
    unit = 1 | 1 << FIELD_BITS * k  # the lowest field and the degree field
    out: Dict[int, int] = {}
    for i, c in a.items():
        for e, v in _from_rec(c, k - 1).items():
            out[(e << FIELD_BITS) + i * unit] = v
    return out


def _radd(a: Rec, b: Rec, k: int, mod: Optional[int]) -> Rec:
    if k == 0:
        s = a + b
        return s % mod if mod else s
    out = dict(a)
    for i, c in b.items():
        if i in out:
            out[i] = _radd(out[i], c, k - 1, mod)
        else:
            out[i] = c
    return _rnormal(out, k)


def _rneg(a: Rec, k: int, mod: Optional[int]) -> Rec:
    if k == 0:
        return (-a) % mod if mod else -a
    return {i: _rneg(c, k - 1, mod) for i, c in a.items()}


def _rsub(a: Rec, b: Rec, k: int, mod: Optional[int]) -> Rec:
    return _radd(a, _rneg(b, k, mod), k, mod)


def _rmul(a: Rec, b: Rec, k: int, mod: Optional[int]) -> Rec:
    if k == 0:
        p = a * b
        return p % mod if mod else p
    out: Dict[int, Rec] = {}
    for i, c in a.items():
        for j, d in b.items():
            t = _rmul(c, d, k - 1, mod)
            if i + j in out:
                out[i + j] = _radd(out[i + j], t, k - 1, mod)
            else:
                out[i + j] = t
    return _rnormal(out, k)


def _rdeg(a: Rec, k: int) -> int:
    # Degree in the main (last) variable; -1 for zero.
    if _ris_zero(a, k):
        return -1
    return max(a)


def _rlc(a: Rec, k: int) -> Rec:
    return a[max(a)]


def _rmul_ground(a: Rec, c: Rec, k: int, mod: Optional[int]) -> Rec:
    # Multiply a (level k) by a ground element c (level k-1).
    if _ris_zero(c, k - 1):
        return _rzero(k)
    out = {i: _rmul(coeff, c, k - 1, mod) for i, coeff in a.items()}
    return _rnormal(out, k)


def _rshift_mul(a: Rec, c: Rec, j: int, k: int, mod: Optional[int]) -> Rec:
    # a * c * x_k^j with c a ground element.
    out = {i + j: _rmul(coeff, c, k - 1, mod) for i, coeff in a.items()}
    return _rnormal(out, k)


def _rdivexact(a: Rec, b: Rec, k: int, mod: Optional[int]) -> Rec:
    """Exact division at level k; raises NotDivisibleError on failure."""
    if k == 0:
        if mod:
            if b % mod == 0:
                raise NotDivisibleError("division by zero mod 2")
            return a % mod
        if b == 0 or a % b != 0:
            raise NotDivisibleError("inexact integer division")
        return a // b
    if _ris_zero(b, k):
        raise NotDivisibleError("division by zero polynomial")
    quot: Dict[int, Rec] = {}
    rem = a
    db = _rdeg(b, k)
    lb = _rlc(b, k)
    while not _ris_zero(rem, k):
        dr = _rdeg(rem, k)
        if dr < db:
            raise NotDivisibleError("inexact polynomial division")
        qc = _rdivexact(_rlc(rem, k), lb, k - 1, mod)
        quot[dr - db] = qc
        rem = _rsub(rem, _rshift_mul(b, qc, dr - db, k, mod), k, mod)
    return _rnormal(quot, k)


def _rdiv_ground(a: Rec, c: Rec, k: int, mod: Optional[int]) -> Rec:
    out = {i: _rdivexact(coeff, c, k - 1, mod) for i, coeff in a.items()}
    return _rnormal(out, k)


def _rcontent(a: Rec, k: int, mod: Optional[int]) -> Rec:
    # Gcd of the coefficients of a with respect to the last variable.
    g = _rzero(k - 1)
    for i in sorted(a):
        g = _rgcd(g, a[i], k - 1, mod)
    return g


def _rprem(f: Rec, g: Rec, k: int, mod: Optional[int]) -> Rec:
    """Pseudo-remainder of f by g in the last variable.

    Classical prem: lc(g)^(deg f - deg g + 1) * f = q*g + prem(f, g),
    so every subtraction step stays inside the ground ring.
    """
    df, dg = _rdeg(f, k), _rdeg(g, k)
    if df < dg:
        return f
    lg = _rlc(g, k)
    n = df - dg + 1
    r = f
    while True:
        dr = _rdeg(r, k)
        if dr < dg or _ris_zero(r, k):
            break
        n -= 1
        lr = _rlc(r, k)
        r = _rsub(
            _rmul_ground(r, lg, k, mod),
            _rshift_mul(g, lr, dr - dg, k, mod),
            k,
            mod,
        )
    for _ in range(n):
        r = _rmul_ground(r, lg, k, mod)
    return r


def _rpow(a: Rec, n: int, k: int, mod: Optional[int]) -> Rec:
    out = _rone(k)
    for _ in range(n):
        out = _rmul(out, a, k, mod)
    return out


def _rone(k: int) -> Rec:
    return 1 if k == 0 else {0: _rone(k - 1)}


def _rgcd(a: Rec, b: Rec, k: int, mod: Optional[int]) -> Rec:
    if k == 0:
        if mod:
            return 1 if (a % mod or b % mod) else 0
        return math.gcd(a, b)
    if _ris_zero(a, k):
        return b
    if _ris_zero(b, k):
        return a
    ca = _rcontent(a, k, mod)
    cb = _rcontent(b, k, mod)
    pa = _rdiv_ground(a, ca, k, mod)
    pb = _rdiv_ground(b, cb, k, mod)
    cg = _rgcd(ca, cb, k - 1, mod)
    h = _subresultant_last(pa, pb, k, mod)
    if _rdeg(h, k) == 0:
        # Coprime primitive parts: the whole gcd is the content gcd.
        pg = {0: _rone(k - 1)}
    else:
        pg = _rdiv_ground(h, _rcontent(h, k, mod), k, mod)
    return _rmul_ground(pg, cg, k, mod)


def _subresultant_last(f: Rec, g: Rec, k: int, mod: Optional[int]) -> Rec:
    """Last nonzero element of the subresultant PRS of f and g.

    Brown's subresultant sequence: each pseudo-remainder is divided by a
    predicted ground factor, keeping coefficient growth polynomial while
    using only exact ground divisions.  The bookkeeping of the running
    factors b and c follows Brown's algorithm with c stored negated.
    """
    if _rdeg(f, k) < _rdeg(g, k):
        f, g = g, f
    m = _rdeg(g, k)
    d = _rdeg(f, k) - m
    sign = _rone(k - 1) if (d + 1) % 2 == 0 else _rneg(_rone(k - 1), k - 1, mod)
    h = _rmul_ground(_rprem(f, g, k, mod), sign, k, mod)
    lc = _rlc(g, k)
    c = _rneg(_rpow(lc, d, k - 1, mod), k - 1, mod)
    while not _ris_zero(h, k):
        dh = _rdeg(h, k)
        f, g, m, d = g, h, dh, m - dh
        b = _rneg(_rmul(lc, _rpow(c, d, k - 1, mod), k - 1, mod), k - 1, mod)
        h = _rprem(f, g, k, mod)
        h = _rdiv_ground(h, b, k, mod)
        lc = _rlc(g, k)
        if d > 1:
            c = _rdivexact(
                _rpow(_rneg(lc, k - 1, mod), d, k - 1, mod),
                _rpow(c, d - 1, k - 1, mod),
                k - 1,
                mod,
            )
        else:
            c = _rneg(lc, k - 1, mod)
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
    terms = [(p.ring.unpack(e), c) for e, c in p._terms.items()]
    terms = [(e, c, [pow(x, d, _P) for x, d in zip(points, e)]) for e, c in terms]
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
    k = a.ring.nvars
    ra = _to_rec(a._terms, k, None)
    rb = _to_rec(b._terms, k, None)
    g = _rgcd(ra, rb, k, None)
    return _normalize_sign(Poly._from_canonical(a.ring, _from_rec(g, k)))


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


def _monomial_gcd(ring: BaseRing, keys) -> int:
    """The key of the gcd of the monomials: each variable's least exponent."""
    if 0 in keys:  # the constant monomial 1
        return 0
    return sum(map(mul, map(min, zip(*map(ring.unpack, keys))), ring._var_keys))


def _split_monomial(r: Poly) -> Tuple[int, Dict[int, int]]:
    """(m, part) with r = x^m * part and part divisible by no variable.

    ``r`` is a nonzero 0/1 Poly; m is a key, ``part`` a term dict
    with coefficients 1.
    """
    m = _monomial_gcd(r.ring, r._terms)
    return m, {e - m: 1 for e in r._terms} if m else r._terms


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
    ma, pa = _split_monomial(a)
    mb, pb = _split_monomial(b)
    m = _monomial_gcd(a.ring, (ma, mb))
    if len(pa) == 1 or len(pb) == 1:
        # One part is 1, so the gcd is the common monomial factor.
        return Poly._from_canonical(a.ring, {m: 1})
    k = a.ring.nvars
    g = _rgcd(_to_rec(pa, k, 2), _to_rec(pb, k, 2), k, 2)
    # x^m times a divisor of both parts: no degree beyond either operand's.
    return Poly._from_canonical(a.ring, {e + m: 1 for e in _from_rec(g, k)})


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
