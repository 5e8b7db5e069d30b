"""Sparse exact polynomial arithmetic over Z and over GF(2).

The ambient coefficient ring everywhere in this package is

    S = Z[x1, ..., xn] localized at the maximal ideal (2, x1, ..., xn),

an unramified regular local ring of mixed characteristic two.  An element
of S is represented by an integer polynomial; a polynomial is a unit of S
exactly when its constant coefficient is odd, so no fractions are needed
until linear algebra over the fraction field (see linalg.py).

A polynomial is stored as a dict mapping monomial keys to nonzero
integer coefficients.  The key of x1^e1 ... xn^en is one int holding
(d, e1, ..., en), d the total degree, in fields of B = FIELD_BITS bits
with d in the top one: key = d*2^(B*n) + e1*2^(B*(n-1)) + ... + en.
Every field is below 2^B, so int order on keys is the graded lex order
(degree first, then e1, e2, ...) and the leading term is max(terms).
The key of a product of monomials is the sum of their keys: every
exponent is at most the degree, so no field carries while the degree
stays below 2^B, and a degree of 2^B or more carries out of the top
field, giving a key of at least the ring's limit 2^(B*(n+1)).
_accumulate and frobenius_mod2 compare each key they form with that
limit and raise BoundTooLargeError; the parser rejects such a product
first (PolyParseError).  The gcd kernel (gcd.py) multiplies Polys too,
so a subresultant PRS intermediate whose degree reaches 2^B raises the
same error.  An exact division forms no key beyond the dividend's
degree.  x^e2 divides x^e1 when e1 - e2 borrows across no field
(BaseRing.monomial_quotient), and BaseRing.monomial_gcd takes the least
exponent of each variable.  BaseRing.pack and unpack convert keys and
exponent tuples for Poly(ring, terms) and format_poly; the key layout
stays in this module.  For the gcd kernel, coefficients_in splits a
Poly by its degree in one variable, exponent_terms gives its terms'
exponent vectors (the modular images) and monomial_split and
monomial_gcd split off and combine monomial factors (gcd_f2).

That canonical form (no zero coefficient, only plain ints) is an
invariant of every Poly, and no code mutates a term dict once it is
built, so polynomials can be shared: scale(1) and adding zero return
the operand itself.  The public constructor Poly(ring, terms) filters
and converts whatever dict it is given.  The kernels that build a dict
already in canonical form (addition, subtraction, negation, scale,
poly_dot after dropping cancelled terms, divide_exact, half,
reduce_mod_2k, frobenius_mod2, primitive (the one integer-content division,
used by gcd.py and predicates.py), sqrt_f2, f2_divide_exact,
partial_derivative, coefficients_in, substitute_ints, monomial_split
and monomial_gcd, and the coordinates that algebra.KElement
splits from its tagged term dict) hand it to the private
Poly._from_canonical, which takes it unchecked and uncopied.  No other
code may call it.

Every product of integer polynomials goes through one monomial loop,
_accumulate, called by poly_dot(ring, pairs) = sum of a*b.  The
operands in this package are small (most have zero to three terms), so
the cost of arithmetic is the calls and objects per product, not the
monomial loop: a fused sum builds no Poly per product or partial sum,
a pair with a zero operand costs one truth test, a monomial product is
one int addition, and a claim mod 2^k runs on residues (reduce_mod_2k).
K-elements (algebra.py) keep their four coordinates in one dict of
these keys shifted left by two bits, and multiply in loops of their
own against the same key limit.

A residue mod 2^k is a Poly with every coefficient in [0, 2^k), so an
element of GF(2)[x1, ..., xn] is a 0/1 Poly, its own canonical lift.
The GF(2) kernels (sqrt_f2, f2_divide_exact, gcd.gcd_f2) take any Poly,
read it mod 2 and return 0/1 Polys.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from operator import mul
from struct import Struct
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    BoundTooLargeError,
    MalformedInputError,
    NotDivisibleError,
    PolyParseError,
    UnknownVariableError,
)

Exponent = Tuple[int, ...]

# Bits per field of a monomial key; a degree below 2^FIELD_BITS packs.
# BaseRing.unpack reads each field as a big-endian unsigned short ("H").
FIELD_BITS = 16
_FIELD_MASK = (1 << FIELD_BITS) - 1


@dataclass(frozen=True)
class BaseRing:
    """The ring S = Z[variables] localized at (2, variables).

    Only the ambient polynomial variables are recorded; the residual
    characteristic is always two.  The key layout is built once, outside
    the fields, so equality and hashing read the variables alone; so
    does the memo of monomial texts that format_poly fills.
    """

    variables: Tuple[str, ...]

    def __post_init__(self):
        for v in self.variables:
            if not (isinstance(v, str) and v.isidentifier()):
                raise MalformedInputError(f"invalid variable name: {v!r}")
        if len(set(self.variables)) != len(self.variables):
            raise MalformedInputError("duplicate variable names")
        top = FIELD_BITS * len(self.variables)  # the degree field's shift
        shifts = tuple(range(top - FIELD_BITS, -1, -FIELD_BITS))
        for name, value in (
            ("_shifts", shifts),
            ("_var_keys", tuple(1 << top | 1 << s for s in shifts)),  # x_i: d = e_i = 1
            ("_degree_shift", top),
            ("_key_limit", 1 << top + FIELD_BITS),
            ("_borrow_bits", sum(1 << s + FIELD_BITS for s in shifts)),  # field boundaries
            ("_fields", Struct(">2x%dH" % len(shifts))),  # the degree field skipped
            ("_monomial_texts", {}),  # key -> text, filled by format_poly
        ):
            object.__setattr__(self, name, value)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def pack(self, e: Sequence[int]) -> int:
        """The key of the exponent vector e; ValueError unless it holds one
        int >= 0 per variable, BoundTooLargeError if its degree is too large."""
        e = tuple(e)
        if len(e) != self.nvars or not all(isinstance(k, int) and k >= 0 for k in e):
            raise ValueError(f"invalid exponent vector {e!r} for {self.variables}")
        key = sum(map(mul, e, self._var_keys))
        if key >= self._key_limit:
            raise _overflow(self, key)
        return key

    def unpack(self, key: int) -> Exponent:
        """The exponent vector of a key."""
        return self._fields.unpack(key.to_bytes(self._fields.size, "big"))

    def monomial_quotient(self, e1: int, e2: int) -> Optional[int]:
        """The key of x^e1 / x^e2 when x^e2 divides x^e1, else None: no field
        of e1 - e2 borrows (a set bit of (e1 - e2) ^ e1 ^ e2 at a field
        boundary), nor the top field (a negative difference)."""
        d = e1 - e2
        if d < 0 or (d ^ e1 ^ e2) & self._borrow_bits:
            return None
        return d

    def monomial_gcd(self, keys: Collection[int]) -> int:
        """The key of the gcd of the monomials x^e, e in keys (nonempty):
        each variable's least exponent."""
        if 0 in keys:  # the constant monomial 1
            return 0
        return sum(map(mul, map(min, zip(*map(self.unpack, keys))), self._var_keys))

    def monomial_sqrt(self, e: int) -> Optional[int]:
        """The key of x^(e/2) when every exponent of x^e is even (the lowest
        bit of every field is 0, and one shift halves them all), else None."""
        if e & (1 | self._borrow_bits):
            return None
        return e >> 1

    def zero(self) -> "Poly":
        return Poly._from_canonical(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, n: int) -> "Poly":
        return Poly._from_canonical(self, {0: int(n)} if n else {})

    def var(self, name: str) -> "Poly":
        return Poly._from_canonical(self, {self._var_keys[self.variables.index(name)]: 1})

    def gens(self) -> Tuple["Poly", ...]:
        return tuple(self.var(v) for v in self.variables)


def _overflow(ring: BaseRing, key: int) -> BoundTooLargeError:
    degree = key >> ring._degree_shift
    return BoundTooLargeError("monomial degree %d reaches 2^%d" % (degree, FIELD_BITS))


def _check_same_ring(ring, *operands):
    """ValueError unless every operand belongs to ``ring`` (identity first)."""
    for p in operands:
        if p.ring is not ring and p.ring != ring:
            raise ValueError("operands belong to different rings")


class Poly:
    """An element of Z[variables], viewed inside the local ring S.

    _images holds gcd.py's modular images once a gcd has asked for them,
    _text the canonical string once format_poly has built it; like _hash
    they are filled lazily, and equality and hashing ignore them.
    """

    __slots__ = ("ring", "_terms", "_hash", "_images", "_text")

    def __init__(self, ring: BaseRing, terms: Dict[Exponent, int]):
        self.ring = ring
        # Canonical form: packed keys, no zero coefficients, plain ints.
        self._terms = {ring.pack(e): int(c) for e, c in terms.items() if c != 0}
        self._hash: Optional[int] = None
        self._images = None
        self._text: Optional[str] = None

    @classmethod
    def _from_canonical(cls, ring: BaseRing, terms: Dict[int, int]) -> "Poly":
        """A Poly that takes ``terms`` as its term dict, unchecked and uncopied.

        Only this package's kernels call it, on a dict of keys they have
        just built with no zero and only int coefficients and keep no
        reference to; every other caller goes through Poly(ring, terms).
        """
        p = cls.__new__(cls)
        p.ring = ring
        p._terms = terms
        p._hash = None
        p._images = None
        p._text = None
        return p

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant_coeff(self) -> int:
        return self._terms.get(0, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.ring._degree_shift

    def lead(self) -> Tuple[int, int]:
        """Leading (key, coefficient) under graded lex."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms)
        return e, self._terms[e]

    def num_terms(self) -> int:
        return len(self._terms)

    def integer_content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero poly)."""
        g = 0
        for c in self._terms.values():
            g = gcd(g, c)
        return g

    def is_unit(self) -> bool:
        """Unit of the local ring S: odd constant coefficient."""
        return self.constant_coeff() % 2 != 0

    def is_constant(self) -> bool:
        return not any(self._terms)  # the constant monomial's key is 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._from_canonical(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(other, self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return poly_dot(self.ring, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, n: int) -> "Poly":
        if n == 0:
            return self.ring.zero()
        if n == 1:
            # No kernel mutates a term dict, so a Poly can be shared.
            return self
        terms = {e: c * n for e, c in self._terms.items()}
        return Poly._from_canonical(self.ring, terms)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def __str__(self):
        return format_poly(self)


def _plus(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign*q, sign = 1 or -1, in one copy of p's term dict."""
    if q.ring is not p.ring:
        _check_same_ring(p.ring, q)
    if not q._terms:
        return p
    if not p._terms and sign == 1:
        return q
    terms = dict(p._terms)
    for e, c in q._terms.items():
        s = terms.get(e, 0) + sign * c
        if s:
            terms[e] = s
        else:
            del terms[e]
    return Poly._from_canonical(p.ring, terms)


def poly_dot(ring: BaseRing, pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """The sum of a*b over the pairs, accumulated in one term dict.

    Poly.__mul__ is the case of a single pair; the gcd pseudo-remainder
    step passes two, and the span back-substitution and homology's
    matrix products one per entry of a row.  On residues (reduce_mod_2k) it
    serves classifier.residue_mod_P and predicates.product_in_S2wedge4.
    Every operand must belong to ``ring``.
    """
    terms: Dict[int, int] = {}
    for a, b in pairs:
        if a.ring is not ring:
            _check_same_ring(ring, a)
        if b.ring is not ring:
            _check_same_ring(ring, b)
        if a._terms and b._terms:
            _accumulate(terms, a._terms, b._terms, ring)
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    return Poly._from_canonical(ring, terms)


def _accumulate(terms: Dict[int, int], a: Dict[int, int], b: Dict[int, int], ring):
    """Add the product of the term dicts a and b of ``ring`` into terms:
    the one monomial-product loop of Polys (BoundTooLargeError when a key
    carries).  Callers drop cancelled terms once, at the end."""
    get = terms.get
    limit = ring._key_limit
    b_terms = b.items()
    for e1, c1 in a.items():
        for e2, c2 in b_terms:
            e = e1 + e2
            if e >= limit:
                raise _overflow(ring, e)
            terms[e] = get(e, 0) + c1 * c2


def divide_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a / b in Z[variables]; NotDivisibleError otherwise."""
    _check_same_ring(a.ring, b)
    if b.is_zero():
        raise NotDivisibleError("division by zero polynomial")
    quot = _quotient(a, b)
    if quot is None:
        raise NotDivisibleError(f"{format_poly(a)} is not divisible by {format_poly(b)}")
    return Poly._from_canonical(a.ring, quot)


def is_divisible(a: Poly, b: Poly) -> bool:
    """Whether b divides a in Z[variables]; a zero b divides nothing."""
    _check_same_ring(a.ring, b)
    return not b.is_zero() and _quotient(a, b) is not None


def _quotient(a: Poly, b: Poly) -> Optional[Dict[int, int]]:
    """The terms of a / b for a nonzero b, or None when b does not divide a.

    Leading-term division under graded lex: when a = q*b the leading
    term of a is the product of the leading terms of q and b, so each
    round strips one term of q and the leading term of the remainder
    strictly decreases in a well-order.  A single-term divisor divides
    term by term, and a constant one divides each coefficient with the
    keys left as they are.
    """
    quot: Dict[int, int] = {}
    eb, cb = b.lead()
    if len(b._terms) == 1:
        if not eb:
            for er, cr in a._terms.items():
                if cr % cb != 0:
                    return None
                quot[er] = cr // cb
            return quot
        for er, cr in a._terms.items():
            e = a.ring.monomial_quotient(er, eb)
            if e is None or cr % cb != 0:
                return None
            quot[e] = cr // cb
        return quot
    rem = a
    while not rem.is_zero():
        er, cr = rem.lead()
        e = a.ring.monomial_quotient(er, eb)
        if e is None or cr % cb != 0:
            return None
        q = cr // cb
        quot[e] = q
        rem = rem - Poly._from_canonical(a.ring, {e: q}) * b
    return quot


def partial_derivative(p: Poly, index: int) -> Poly:
    """Formal partial derivative with respect to variables[index]."""
    shift = p.ring._shifts[index]
    unit = p.ring._var_keys[index]
    terms = {e - unit: c * k for e, c in p._terms.items() if (k := e >> shift & _FIELD_MASK)}
    return Poly._from_canonical(p.ring, terms)


def occurring_variables(p: Poly) -> List[int]:
    """The indices of the variables that occur in p, in increasing order:
    a variable occurs when its field of the OR of all keys is nonzero."""
    bits = 0
    for e in p._terms:
        bits |= e
    return [i for i, k in enumerate(p.ring.unpack(bits)) if k]


def exponent_terms(p: Poly) -> List[Tuple[Exponent, int]]:
    """(exponent vector, coefficient) of each term of p."""
    unpack = p.ring.unpack
    return [(unpack(e), c) for e, c in p._terms.items()]


def monomial_split(p: Poly) -> Tuple[Poly, Poly]:
    """(x^m, q) with p = x^m * q for a nonzero p: x^m is the largest
    monomial that divides p, so no variable divides q.  When m = 0, x^m
    is 1 and q is p itself."""
    ring = p.ring
    m = ring.monomial_gcd(p._terms)
    if not m:
        return ring.one(), p
    part = {e - m: c for e, c in p._terms.items()}
    return Poly._from_canonical(ring, {m: 1}), Poly._from_canonical(ring, part)


def monomial_gcd(monomials: Sequence[Poly]) -> Poly:
    """The gcd x^m of nonzero single-term Polys of one ring: each
    variable's least exponent."""
    ring = monomials[0].ring
    return Poly._from_canonical(ring, {ring.monomial_gcd([p.lead()[0] for p in monomials]): 1})


def coefficients_in(p: Poly, index: int) -> Dict[int, Poly]:
    """{d: c_d} with p = sum of c_d * x^d, x = variables[index], every c_d
    nonzero and free of x: the degree of p in x is the largest key, and
    the zero polynomial has no key."""
    shift = p.ring._shifts[index]
    unit = p.ring._var_keys[index]
    split: Dict[int, Dict[int, int]] = {}
    for e, c in p._terms.items():
        d = e >> shift & _FIELD_MASK
        split.setdefault(d, {})[e - d * unit] = c
    return {d: Poly._from_canonical(p.ring, terms) for d, terms in split.items()}


def substitute_ints(p: Poly, assignment: Dict[str, int], target: BaseRing) -> Poly:
    """Evaluate some variables at integers, landing in the target ring.

    Every variable of p's ring must either appear in the assignment or
    be a variable of the target ring.
    """
    values = []  # (position, integer value)
    keys = []  # (position, key of the same variable in the target ring)
    for i, v in enumerate(p.ring.variables):
        if v in assignment:
            values.append((i, int(assignment[v])))
        else:
            keys.append((i, target._var_keys[target.variables.index(v)]))
    terms: Dict[int, int] = {}
    unpack = p.ring.unpack
    for e, coeff in p._terms.items():
        exps = unpack(e)
        for i, value in values:
            coeff *= value ** exps[i]
        key = sum([exps[i] * k for i, k in keys])
        s = terms.get(key, 0) + coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return Poly._from_canonical(target, terms)


# ---------------------------------------------------------------------------
# Residues mod 2^k


def is_even(p: Poly) -> bool:
    """Membership in 2S: all coefficients even."""
    return not any(c % 2 for c in p._terms.values())


def reduce_mod_2k(p: Poly, k: int) -> Poly:
    """p with each coefficient in [0, 2^k); zero exactly when 2^k | p.

    & reads a negative int as an infinite two's complement, so the
    residue is right for negative coefficients too.  A p already
    reduced is returned itself: reducing a residue again copies nothing.
    """
    mask = (1 << k) - 1
    for c in p._terms.values():
        if c & mask != c:
            break
    else:
        return p
    return Poly._from_canonical(
        p.ring, {e: c & mask for e, c in p._terms.items() if c & mask}
    )


def frobenius_mod2(p: Poly) -> Poly:
    """p^2 mod 2 as a 0/1 lift: p's odd monomials with doubled exponents."""
    square = {e << 1: 1 for e, c in p._terms.items() if c & 1}
    if square and max(square) >= p.ring._key_limit:
        raise _overflow(p.ring, max(square))
    return Poly._from_canonical(p.ring, square)


def half(p: Poly) -> Poly:
    """Exact division by 2; NotDivisibleError when p has an odd coefficient."""
    if not is_even(p):
        raise NotDivisibleError("polynomial is not divisible by 2")
    return Poly._from_canonical(p.ring, {e: c // 2 for e, c in p._terms.items()})


def primitive(p: Poly) -> Tuple[int, Poly]:
    """(content, part) with p = content * part; the part is p itself
    when the content is 0 or 1."""
    content = p.integer_content()
    if content <= 1:
        return content, p
    return content, Poly._from_canonical(
        p.ring, {e: c // content for e, c in p._terms.items()}
    )


def sqrt_f2(p: Poly) -> Optional[Poly]:
    """Square root of p mod 2 in GF(2)[variables] as a 0/1 Poly, or None.

    Squaring mod 2 is the Frobenius endomorphism (frobenius_mod2), so p
    is a square mod 2 exactly when every exponent of every monomial
    with an odd coefficient is even (BaseRing.monomial_sqrt).
    """
    root = {}
    for e, c in p._terms.items():
        if c & 1:
            r = p.ring.monomial_sqrt(e)
            if r is None:
                return None
            root[r] = 1
    return Poly._from_canonical(p.ring, root)


def f2_divide_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient of a by b mod 2 as a 0/1 Poly; NotDivisibleError
    otherwise.  Division by 1 returns a mod 2, which is ``a`` itself
    when a is already reduced (see reduce_mod_2k).
    """
    _check_same_ring(a.ring, b)
    a, b = reduce_mod_2k(a, 1), reduce_mod_2k(b, 1)
    if b.is_zero():
        raise NotDivisibleError("division by zero polynomial")
    if b._terms.keys() == {0}:  # b is 1
        return a
    quot: Dict[int, int] = {}
    rem = set(a._terms)
    eb = max(b._terms)
    while rem:
        e = a.ring.monomial_quotient(max(rem), eb)
        if e is None:
            raise NotDivisibleError(f"{a} is not divisible by {b} mod 2")
        quot[e] = 1
        rem ^= {e + m for m in b._terms}
    return Poly._from_canonical(a.ring, quot)


# ---------------------------------------------------------------------------
# Parsing


# Four Python frames per level keeps parsing far below the recursion limit.
_MAX_NESTING = 100

# Each power and product is bounded before it is expanded: its term count,
# for a power base^n its degree n*deg(base) (n for a constant), and its
# coefficient bits through the norm |p| = sum of |coefficients|, as
# |p*q| <= |p|*|q|.  Literals and the f, g a sweep substitutes obey the
# same bit bound, far below the 4300 digits str(int) prints.  Every input
# this package is built for uses exponents <= 4, small coefficients and
# a few dozen terms.  A product's degree must also stay below
# 2^FIELD_BITS, so that its monomials pack.
_MAX_EXPONENT = 64
_MAX_TERMS = 10_000
_MAX_COEFF_BITS = 1024


def _norm_bits(p: Poly) -> int:
    return sum(abs(c) for c in p._terms.values()).bit_length()


def check_coeff_bound(p: Poly, name: str) -> None:
    """BoundTooLargeError when a coefficient of p exceeds _MAX_COEFF_BITS."""
    bits = max((abs(c).bit_length() for c in p._terms.values()), default=0)
    if bits > _MAX_COEFF_BITS:
        raise BoundTooLargeError(
            "%s has a %d-bit coefficient; limit is %d" % (name, bits, _MAX_COEFF_BITS)
        )


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # a digit int() cannot read, or too many digits
                raise PolyParseError(f"invalid integer {text[i:j]!r}", i) from None
            if value.bit_length() > _MAX_COEFF_BITS:
                raise PolyParseError("integer literal too large", i)
            tokens.append(("INT", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial expression grammar.

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' INT)?
    base   := INT | NAME | '(' expr ')'
    """

    def __init__(self, text: str, ring: BaseRing):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, p = self.peek()
        if kind != "OP" or val != op:
            raise PolyParseError(f"expected {op!r}", p)
        return self.advance()

    def parse(self) -> Poly:
        p = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "END":
            raise PolyParseError(f"unexpected token {val!r}", pos)
        return p

    def parse_expr(self) -> Poly:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "OP" and val in "+-":
            self.advance()
            if val == "-":
                sign = -1
        acc = self.parse_term().scale(sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.advance()
                t = self.parse_term()
                acc = acc + t if val == "+" else acc - t
            else:
                return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "OP" and val == "*":
                self.advance()
                factor = self.parse_factor()
                if (
                    acc.num_terms() * factor.num_terms() > _MAX_TERMS
                    or _norm_bits(acc) + _norm_bits(factor) > _MAX_COEFF_BITS
                    or acc.total_degree() + factor.total_degree() >= 1 << FIELD_BITS
                ):
                    raise PolyParseError("product too large to expand", pos)
                acc = acc * factor
            else:
                return acc

    def parse_factor(self) -> Poly:
        base = self.parse_base()
        kind, val, _ = self.peek()
        if kind == "OP" and val == "^":
            self.advance()
            k, n, p = self.peek()
            if k != "INT":
                raise PolyParseError("expected integer exponent", p)
            self.advance()
            if (
                n * max(base.total_degree(), 1) > _MAX_EXPONENT
                # base^n has at most one term per degree-n monomial in
                # the terms of base.
                or comb(max(base.num_terms(), 1) + n - 1, n) > _MAX_TERMS
                or n * _norm_bits(base) > _MAX_COEFF_BITS
            ):
                raise PolyParseError("power too large to expand", p)
            return base ** n
        return base

    def parse_base(self) -> Poly:
        kind, val, pos = self.advance()
        if kind == "INT":
            return self.ring.const(val)
        if kind == "NAME":
            if val not in self.ring.variables:
                raise UnknownVariableError(f"unknown variable {val!r}", pos)
            return self.ring.var(val)
        if kind == "OP" and val == "(":
            if self.depth == _MAX_NESTING:
                raise PolyParseError("parentheses nested too deeply", pos)
            self.depth += 1
            p = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise PolyParseError(f"unexpected token {val!r}", pos)


def parse_poly(text: str, ring: BaseRing) -> Poly:
    """Parse a polynomial expression over the given ring."""
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# Canonical printing


def _format_monomial(ring: BaseRing, e: Exponent) -> str:
    parts = []
    for name, k in zip(ring.variables, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical string: descending graded lex, explicit '*' and '^'.
    Built once per Poly and kept in its _text slot; each monomial's text
    is built once per ring and kept in the ring's _monomial_texts."""
    if p._text is not None:
        return p._text
    ring, terms = p.ring, p._terms
    texts = ring._monomial_texts
    out = ""
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mono = texts.get(e)
        if mono is None:
            mono = texts[e] = _format_monomial(ring, ring.unpack(e))
        if not mono:
            s = str(c)
        elif c == 1 or c == -1:
            s = mono if c == 1 else f"-{mono}"
        else:
            s = f"{c}*{mono}"
        out += s if not out or s.startswith("-") else "+" + s
    p._text = out or "0"
    return p._text

