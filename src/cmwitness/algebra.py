"""The rank-4 free S-algebra A = S[w, u] with w^2 = f, u^2 = g.

A is free over S on the basis (b0, b1, b2, b3) = (1, w, u, wu), and
b_i*b_j = c(i & j)*b_(i ^ j) with c = (1, f, g, fg): A is a twisted
group algebra of (Z/2)^2.  Its total fraction field K is a degree-4
extension of Frac(S).  Every element this package needs lives in
(1/2^k)A, so a K-element is (n0*b0 + n1*b1 + n2*b2 + n3*b3) / 2^k,
held as one term dict: the term c*x^e of n_i has the key (e << 2) | i,
e the packed monomial key of poly.BaseRing, and k is kept reduced
(k = 0 or some coefficient odd).  coords splits the dict into the four
coordinate Polys once, for the report, the span solves and the
certificate determinant.

k_mul is one loop over the terms of one operand against the four
tables of the other, T_i = sum over j of m_j*c(i & j) tagged i ^ j
(m_j the coordinates of that operand): a term c*x^e*b_i contributes
c*x^e*T_i, a key addition per product term.  A monomial degree of
2^FIELD_BITS reaches the key limit and raises BoundTooLargeError; it
never carries into the tag or the next field.  The tables are kept on
their operand, since a report multiplies by the same element more than
once (a golden report forms at most 14 exact products, and 5 to 9 of
them find tables already kept), and K is commutative, so k_mul reads
them from whichever operand has them, else builds them for the one
with fewer terms.

The colon test in_colon(x, J) forms no exact product.  Generators g of
J lie in A, so x*g lies in A exactly when 2^k, k = k_x, divides its
numerators, which depends only on the operands mod 2^k: the test runs
k_mul's loop on the residues of x's coefficients against g's tables
mod 2^k (built from f, g and f*g mod 2^k, cached per k on g and on the
descriptor), then masks the result with 2^k - 1.  k = 0 needs no
product (A is a ring), nor does a scalar generator (p, 0, 0, 0): x is
kept reduced, so for k > 0 some coordinate n_i of x has an odd
coefficient, and by Gauss's lemma for the prime 2 in Z[x] (v2 of the
content is additive) 2^k divides every n_i*p exactly when it divides
every coefficient of p, which p = 0 passes.

The standing hypotheses split by what they read.  Squarefreeness and
the S^2 decomposition of f depend on f alone (admit_input), so a sweep
whose rows share an f or a g checks each distinct input once; A1 and
the degree-four condition read the pair (admit_pair).  make_algebra
runs admit_input on f, admit_input on g, then admit_pair, so the first
failing predicate is still squarefree_f, squarefree_g, A1, degree_four
in that order (decompose_S2 in admit_input raises nothing: f - h^2 is
even by construction).

The module provides exact multiplication, the table of products of a
generating set (generator_products, each product formed once),
membership in A (denominator clearance in reduced form), span-closure
certification of such a table for claimed module generating sets of
overrings and the colon test in_colon (x in (A : J), i.e. x * J
inside A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    HypothesisViolationError,
    NotClosedError,
    WitnessMismatchError,
)
from .linalg import PolyFraction, solve_in_S
from .poly import BaseRing, Poly, _check_same_ring, _overflow, poly_dot, reduce_mod_2k
from .predicates import (
    QShape,
    S2w4Witness,
    S2Witness,
    decompose_S2,
    degree_four_check,
    ideal_Q_classify,
    in_S2wedge4,
    is_squarefree,
    satisfies_A1,
)

Terms = Tuple[Tuple[int, int], ...]  # (key, coefficient) pairs
Constants = Tuple[Optional[Terms], ...]  # c = (1, f, g, fg), 1 as None
Tables = Tuple[Terms, ...]  # T_0 .. T_3 of an element (module docstring)


@dataclass(frozen=True)
class AlgebraDesc:
    """Descriptor of A = S[w, u]/(w^2 - f, u^2 - g).

    wf and wg are the decompositions f = h1^2 + 2a, g = h2^2 + 2b; they
    are present exactly when the mod-2 reduction of f resp. g is a
    square (which includes every case the classifier handles beyond the
    out-of-scope tag).

    Derived facts are computed with their checks on first use and cached
    outside the fields, so equality and hashing are unchanged: fg (the
    product f*g that the tables read), w4f, w4g (the S^{2,4} witnesses
    of f, g, or None), q_shape (the shape of Q = (2, h1, h2)),
    dual_product ((w + h1)(u + h2), which ideal_H and prime_dual_gen
    share, built by root_product from its coordinates), local_factors
    ((k1, k2) with (w - h1)^2 = 2*k1, (u - h2)^2 = 2*k2) and
    witnesses_exact (f = h1^2 + 2a and
    g = h2^2 + 2b, which the certificate's generic claims need).
    constants(k) keeps the structure constants, exact and mod 2^k per
    k, in the form the tables read.  zero(), one(),
    root_f(), root_g() and root_fg() return the same element on every
    call, so each builds its tables (k_mul) at most once per algebra.
    """

    ring: BaseRing
    f: Poly
    g: Poly
    wf: Optional[S2Witness]
    wg: Optional[S2Witness]

    # -- element factories -------------------------------------------

    def element(self, coords: Sequence[Poly], denom_exp: int = 0) -> "KElement":
        """(n0 + n1*w + n2*u + n3*w*u) / 2^denom_exp, reduced; ValueError
        unless there are 4 coordinates of this ring and denom_exp >= 0."""
        coords = tuple(coords)
        if len(coords) != 4:
            raise ValueError("a K-element has exactly 4 coordinates")
        if denom_exp < 0:
            raise ValueError("negative denominator exponent")
        _check_same_ring(self.ring, *coords)
        terms = {e << 2 | i: c for i, p in enumerate(coords) for e, c in p._terms.items()}
        return KElement(self, terms, denom_exp)

    @cached_property
    def _basis(self) -> Tuple["KElement", ...]:
        """0, 1, w, u and wu, built once: each keeps its tables."""
        z, o = self.ring.zero(), self.ring.one()
        coords = ((z, z, z, z), (o, z, z, z), (z, o, z, z), (z, z, o, z), (z, z, z, o))
        return tuple(self.element(c) for c in coords)

    def zero(self) -> "KElement":
        return self._basis[0]

    def one(self) -> "KElement":
        return self._basis[1]

    def scalar(self, p: Union[Poly, int]) -> "KElement":
        if isinstance(p, int):
            p = self.ring.const(p)
        z = self.ring.zero()
        return self.element((p, z, z, z))

    def root_f(self) -> "KElement":
        return self._basis[2]

    def root_g(self) -> "KElement":
        return self._basis[3]

    def root_fg(self) -> "KElement":
        return self._basis[4]

    def root_product(self, s1: Poly, s2: Poly) -> "KElement":
        """(w + s1)(u + s2) = s1*s2 + s2*w + s1*u + wu, built from these
        coordinates: no product in K."""
        return self.element((s1 * s2, s2, s1, self.ring.one()))

    # -- witness accessors -------------------------------------------

    def h1(self) -> Poly:
        self._need_witnesses()
        return self.wf.h

    def a(self) -> Poly:
        self._need_witnesses()
        return self.wf.a

    def h2(self) -> Poly:
        self._need_witnesses()
        return self.wg.h

    def b(self) -> Poly:
        # The S2Witness field is named "a"; for g it plays the role of b.
        self._need_witnesses()
        return self.wg.a

    def _need_witnesses(self):
        if self.wf is None or self.wg is None:
            raise WitnessMismatchError("f or g has no S^2 decomposition")

    @cached_property
    def w4f(self) -> Optional[S2w4Witness]:
        return in_S2wedge4(self.wf)

    @cached_property
    def w4g(self) -> Optional[S2w4Witness]:
        return in_S2wedge4(self.wg)

    @cached_property
    def fg(self) -> Poly:
        return self.f * self.g

    @cached_property
    def _constants(self) -> Dict[Optional[int], Constants]:
        return {}

    def constants(self, k: Optional[int] = None) -> Constants:
        """The structure constants c = (1, f, g, fg) as the tables read
        them: None for 1, else (key << 2, coefficient) pairs.  With k, the
        residues mod 2^k of f, g and fg (fg from the residues of f, g)."""
        if k not in self._constants:
            if k is None:
                polys = (self.f, self.g, self.fg)
            else:
                fk, gk = reduce_mod_2k(self.f, k), reduce_mod_2k(self.g, k)
                polys = (fk, gk, reduce_mod_2k(fk * gk, k))
            self._constants[k] = (None,) + tuple(
                tuple((e << 2, c) for e, c in p._terms.items()) for p in polys
            )
        return self._constants[k]

    @cached_property
    def witnesses_exact(self) -> bool:
        """Whether f = h1^2 + 2a and g = h2^2 + 2b hold exactly.

        decompose_S2 makes them true by construction; the certificate
        checks them once per job because its identity claims are
        decided on the generic algebra and carry over to this one
        through them (classifier.generic_claims).
        """
        two = self.ring.const(2)
        return all(
            poly_dot(self.ring, ((h, h), (half_p, two))) == p
            for p, h, half_p in ((self.f, self.h1(), self.a()), (self.g, self.h2(), self.b()))
        )

    @cached_property
    def q_shape(self) -> QShape:
        return ideal_Q_classify(self.h1(), self.h2())

    @cached_property
    def dual_product(self) -> "KElement":
        return self.root_product(self.h1(), self.h2())

    @cached_property
    def local_factors(self) -> Tuple["KElement", "KElement"]:
        """(k1, k2) = (h1^2 + a - h1*w, h2^2 + b - h2*u).

        (w - h1)^2 = 2*k1 by construction (decompose_S2 builds a =
        (f - h1^2)/2), and likewise for k2; the one claim they feed,
        tau^2 = k1*k2, is verified in build_R, where tau's square is
        read from the product table and k1*k2 is formed on its own.
        """
        h1, h2 = self.h1(), self.h2()
        k1 = self.scalar(h1 * h1 + self.a()) - self.root_f().scale_poly(h1)
        k2 = self.scalar(h2 * h2 + self.b()) - self.root_g().scale_poly(h2)
        return k1, k2


def admit_input(p: Poly, side: str) -> Optional[S2Witness]:
    """The per-input hypothesis: p squarefree, then its S^2 decomposition.

    Raises HypothesisViolationError("squarefree_<side>") when p is not
    squarefree (ZeroInputError when p is zero); otherwise returns
    decompose_S2(p), None when p is not in S^2.  It depends on p alone,
    so a sweep runs it once per distinct f and g.
    """
    if not is_squarefree(p):
        raise HypothesisViolationError(
            "squarefree_" + side, f"{side} = {p} is not squarefree"
        )
    return decompose_S2(p)


def admit_pair(
    ring: BaseRing,
    f: Poly,
    g: Poly,
    wf: Optional[S2Witness],
    wg: Optional[S2Witness],
) -> AlgebraDesc:
    """The pair hypotheses on admitted inputs, then the descriptor.

    wf and wg are admit_input(f, "f") and admit_input(g, "g").  Checks,
    in order, the no-common-height-one-prime condition and the
    degree-four condition (none of f, g, f*g a square in S), which the
    squarefree inputs let degree_four_check decide on constants alone.
    """
    if not satisfies_A1(f, g):
        raise HypothesisViolationError(
            "A1", "f and g share a height-one prime of S"
        )
    if not degree_four_check(f, g):
        raise HypothesisViolationError(
            "degree_four", "one of f, g, f*g is a square in S"
        )
    return AlgebraDesc(ring=ring, f=f, g=g, wf=wf, wg=wg)


def make_algebra(ring: BaseRing, f: Poly, g: Poly) -> AlgebraDesc:
    """Validate the standing hypotheses and build the descriptor.

    admit_input on f, then on g, then admit_pair, so the checks run in
    the order f squarefree, g squarefree, A1, degree-four.  Raises
    HypothesisViolationError naming the first predicate that fails.
    """
    wf = admit_input(f, "f")
    wg = admit_input(g, "g")
    return admit_pair(ring, f, g, wf, wg)


class KElement:
    """(n0 + n1*w + n2*u + n3*w*u) / 2^k in reduced form (k = 0 or some
    coefficient odd), held as one term dict: the term c*x^e of n_i has
    the key (e << 2) | i, e the packed monomial key (poly.BaseRing).

    The constructor divides out the largest power of 2 that k allows in
    one pass: t = min(k, v2 of the OR of all coefficients), two's
    complement keeping each one's lowest set bit; the zero element gets
    k = 0.  coords splits the dict into the four coordinate Polys on
    first use.  _tables holds the element's product tables once it has
    been the table operand of k_mul, _residues maps k to those tables
    mod 2^k; equality and hashing read the term dict and k only.  +, -
    and * take K-elements of one algebra; AlgebraDesc.element and
    AlgebraDesc.scalar build one from polynomials.
    """

    __slots__ = ("algebra", "_terms", "denom_exp", "_coords", "_hash", "_tables",
                 "_residues")

    def __init__(self, algebra: AlgebraDesc, terms: Dict[int, int], denom_exp: int):
        # terms is a canonical tagged dict (no zero coefficient) that no
        # code mutates once it is built, so it may be shared.
        if denom_exp:
            bits = 0
            for c in terms.values():
                bits |= c
            t = min(denom_exp, (bits & -bits).bit_length() - 1) if bits else denom_exp
            if t:
                terms = {e: c >> t for e, c in terms.items()}
                denom_exp -= t
        self.algebra = algebra
        self._terms = terms
        self.denom_exp = denom_exp
        self._coords: Optional[Tuple[Poly, ...]] = None
        self._hash = None
        self._tables: Optional[Tables] = None
        self._residues: Optional[Dict[int, Tables]] = None

    @property
    def coords(self) -> Tuple[Poly, ...]:
        """(n0, n1, n2, n3), split from the term dict once."""
        if self._coords is None:
            parts: Tuple[Dict[int, int], ...] = ({}, {}, {}, {})
            for e, c in self._terms.items():
                parts[e & 3][e >> 2] = c
            ring = self.algebra.ring
            self._coords = tuple(Poly._from_canonical(ring, p) for p in parts)
        return self._coords

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "KElement") -> "KElement":
        return self._plus(other, 1)

    def __sub__(self, other: "KElement") -> "KElement":
        return self._plus(other, -1)

    def _plus(self, other: "KElement", sign: int) -> "KElement":
        """self + sign*other, sign = 1 or -1, over the larger denominator."""
        _check_same_algebra(self, other)
        k = max(self.denom_exp, other.denom_exp)
        shift = k - self.denom_exp
        if shift:
            terms = {e: c << shift for e, c in self._terms.items()}
        else:
            terms = dict(self._terms)
        get = terms.get
        scale = sign << (k - other.denom_exp)
        for e, c in other._terms.items():
            s = get(e, 0) + scale * c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return KElement(self.algebra, terms, k)

    def __mul__(self, other: "KElement") -> "KElement":
        return k_mul(self, other)

    def scale_poly(self, p: Poly) -> "KElement":
        alg = self.algebra
        _check_same_ring(alg.ring, p)
        shifted = tuple((e << 2, c) for e, c in p._terms.items())  # p*b_i has tag i
        return KElement(alg, _product(self._terms.items(), (shifted,) * 4, alg.ring),
                        self.denom_exp)

    def half(self) -> "KElement":
        """Divide by 2 in K (the result need not lie in A)."""
        return KElement(self.algebra, self._terms, self.denom_exp + 1)

    def __eq__(self, other):
        if not isinstance(other, KElement):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.denom_exp == other.denom_exp
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self._terms.items()), self.denom_exp))
        return self._hash


def _check_same_algebra(a: KElement, b: KElement):
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise ValueError("operands belong to different algebras")


def _tables(terms: Dict[int, int], consts: Constants, ring: BaseRing) -> Tables:
    """T_0 .. T_3 with T_i = sum over j of m_j*c(i & j) tagged i ^ j.

    m_j is the coordinate of tag j, c = consts.  An entry of T_i is kept
    relative to the left tag i, key (x^e << 2) + (i ^ j) - i, so that
    _product adds it to a left key of tag i.  Entries of T_i from
    different j carry different tags, so T_i is their disjoint union;
    each product m_j*c(s) is formed once.
    """
    parts: Tuple[List[Tuple[int, int]], ...] = ([], [], [], [])
    for e, c in terms.items():
        parts[e & 3].append((e & -4, c))
    tables: Tuple[Dict[int, int], ...] = ({}, {}, {}, {})
    for j, m in enumerate(parts):
        if not m:
            continue
        scaled = {0: m}
        for i, table in enumerate(tables):
            s = i & j
            if s not in scaled:
                scaled[s] = _product(m, (consts[s],), ring).items()  # m has tag 0
            offset = (i ^ j) - i
            for e, c in scaled[s]:
                table[e + offset] = c
    return tuple(tuple(t.items()) for t in tables)


def _product(terms: Iterable[Tuple[int, int]], tables: Tables, ring: BaseRing) -> Dict[int, int]:
    """The sum of c*x^e*b_i*T_i over the terms (x^e << 2 | i, c), one key
    addition per product term, cancelled terms dropped: the tagged
    numerators of a K-product, and of a product by a polynomial when
    every T_i is that polynomial.  A monomial degree of 2^FIELD_BITS
    reaches ring._key_limit << 2 and raises BoundTooLargeError; it never
    carries into the tag or the next field."""
    out: Dict[int, int] = {}
    get = out.get
    limit = ring._key_limit << 2
    for e1, c1 in terms:
        for e2, c2 in tables[e1 & 3]:
            e = e1 + e2
            if e >= limit:
                raise _overflow(ring, e >> 2)
            out[e] = get(e, 0) + c1 * c2
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return out


def k_mul(x: KElement, y: KElement) -> KElement:
    """Exact product in K, reduced: the numerators / 2^(kx + ky).

    One loop over the terms of one operand against the tables of the
    other.  K is commutative, so the tables come from the operand that
    has them already, else from the one with fewer terms (the cheaper
    tables), and are kept on it.
    """
    _check_same_algebra(x, y)
    alg = x.algebra
    if y._tables is None and (x._tables is not None or len(x._terms) < len(y._terms)):
        x, y = y, x
    if y._tables is None:
        y._tables = _tables(y._terms, alg.constants(), alg.ring)
    return KElement(alg, _product(x._terms.items(), y._tables, alg.ring),
                    x.denom_exp + y.denom_exp)


def _residues(y: KElement, k: int) -> Tables:
    """y's tables mod 2^k, from y and f, g, fg mod 2^k, cached on y per k."""
    if y._residues is None:
        y._residues = {}
    tables = y._residues.get(k)
    if tables is None:
        mask = (1 << k) - 1
        m = {e: c & mask for e, c in y._terms.items() if c & mask}
        tables = _tables(m, y.algebra.constants(k), y.algebra.ring)
        tables = tuple(tuple((e, c & mask) for e, c in t if c & mask) for t in tables)
        y._residues[k] = tables
    return tables


def a_membership(x: KElement) -> bool:
    """x in A: the reduced form has denominator exponent 0."""
    return x.denom_exp == 0


def _common_coords(*groups: Sequence[KElement]) -> List[List[List[Poly]]]:
    """Each group's coordinate vectors, all scaled to one denominator 2^k.

    Every element x becomes 2^k * x over (1, w, u, wu) with k the
    largest denominator exponent among all groups, so a linear system
    between the groups keeps its solutions.
    """
    k = max((x.denom_exp for group in groups for x in group), default=0)
    return [
        [[c.scale(2 ** (k - x.denom_exp)) for c in x.coords] for x in group]
        for group in groups
    ]


def generator_products(gens: Sequence[KElement]) -> Dict[Tuple[int, int], KElement]:
    """{(i, j): gens[i]*gens[j] for i <= j}, each product formed once.

    gens[0] must be the unit 1 (ValueError otherwise), so the (0, j)
    entries are the generators themselves and only the pairs with
    i >= 1 call k_mul.  Keys run in the order (0, 0), (0, 1), ...,
    (1, 1), ..., the order of the multiplication table.
    """
    gens = list(gens)
    if not gens or not (gens[0] == gens[0].algebra.one()):
        raise ValueError("gens[0] must be the unit element 1")
    return {
        (i, j): k_mul(gens[i], gens[j]) if i else gens[j]
        for i in range(len(gens))
        for j in range(i, len(gens))
    }


def span_closure_check(
    gens: Sequence[KElement],
    products: Dict[Tuple[int, int], KElement],
) -> Dict[Tuple[int, int], List[Union[Poly, PolyFraction]]]:
    """Certify that the S-span of gens is closed under multiplication.

    products is generator_products(gens); this forms no product itself.
    Returns the multiplication table: for i <= j, key (i, j) holds the
    coefficients in S of gens[i]*gens[j] over the gens, each a Poly, or
    a PolyFraction with unit denominator when it is not a polynomial.
    Every product is expressed in the basis (1, w, u, wu), scaled with
    the generators to one power of 2, and all of them are solved against
    the generator columns by one back-substitution (solve_in_S).  Raises
    NotClosedError with the first pair whose product is not an
    S-combination of the gens, SpanNotFreeError if the generators do not
    peel into triangular form, which every dependent set fails to do.
    """
    pairs = list(products)
    columns, targets = _common_coords(gens, list(products.values()))
    sols = solve_in_S(columns, targets)
    for (i, j), sol in zip(pairs, sols):
        if sol is None:
            raise NotClosedError(
                f"product of generators {i} and {j} is not an S-combination of them"
            )
    return dict(zip(pairs, sols))


def express_in_span(
    xs: Sequence[KElement], gens: Sequence[KElement]
) -> List[Optional[List[Union[Poly, PolyFraction]]]]:
    """Coefficients in S of each x over the gens (one solve_in_S), or None.

    Each coefficient is a Poly, or a PolyFraction with unit denominator
    when it is not a polynomial.  Raises SpanNotFreeError if the gens do
    not peel into triangular form, which every dependent set fails to do.
    """
    return solve_in_S(*_common_coords(gens, xs))


@dataclass
class IdealGens:
    """A finitely generated ideal of A, given by generators inside A."""

    algebra: AlgebraDesc
    gens: List[KElement]
    name: str = ""

    def __post_init__(self):
        for x in self.gens:
            if not a_membership(x):
                raise WitnessMismatchError(
                    "ideal generators must lie in A (denominator exponent 0)"
                )


def in_colon(x: KElement, ideal: IdealGens) -> bool:
    """x in (A : ideal): x times every generator (in A) lies in A.

    Decided on residues mod 2^k, k = k_x: k_mul's loop on x's residues
    and the generator's residue tables, then a mask test; k = 0 and
    scalar generators form no product (see the module docstring).
    """
    k = x.denom_exp
    mask = (1 << k) - 1
    n = {e: c & mask for e, c in x._terms.items() if c & mask} if k else None
    for g in ideal.gens:
        _check_same_algebra(x, g)
        if g.denom_exp:  # IdealGens checks this only when it is built
            raise WitnessMismatchError("ideal generators must lie in A")
        if k == 0:
            continue
        if any(e & 3 for e in g._terms):
            numerators = _product(n.items(), _residues(g, k), x.algebra.ring).values()
        else:  # a scalar p: test p itself
            numerators = g._terms.values()
        if any(c & mask for c in numerators):
            return False
    return True
