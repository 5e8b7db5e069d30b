"""The rank-4 free S-algebra A = S[w, u] with w^2 = f, u^2 = g.

A is free over S on the basis (1, w, u, wu); its total fraction field K
is a degree-4 extension of Frac(S).  Every element this package needs
lives in (1/2^k)A, so a K-element is four integer polynomial
coordinates plus a denominator exponent k, kept in reduced form (k = 0
or some coordinate odd).  k_mul forms the four numerators of a
product in one poly_dots call over the structure-constant table
_K_TABLE, from the left coordinates n and the right vector
(m0..m3, f*m1, g*m2, fg*m3, g*m3, f*m3) of the right operand.  That
vector is kept on the right operand, since a report multiplies by the
same element more than once (a golden report forms at most 47 exact
products, and 10 to 31 of them find it already kept).

The colon test in_colon(x, J) forms no exact product.  Generators g of
J lie in A, so x*g lies in A exactly when 2^k, k = k_x, divides its
numerators, which depends only on the operands mod 2^k: the test makes
the same poly_dots call on residues (reduce_mod_2k) of x's coordinates
and of g's right vector, the latter formed from f, g and f*g mod 2^k
and cached per k on g and on the descriptor.  k = 0 needs no product
(A is a ring), nor does a scalar generator (p, 0, 0, 0): KElement.make
keeps x reduced, so for k > 0 some coordinate n_i of x has an odd
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

The module provides exact multiplication, membership in A (denominator
clearance in reduced form), verification of quadratic relations,
span-closure certification for claimed module generating sets of
overrings, ideal products and the colon test in_colon (x in (A : J),
i.e. x * J inside A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    HypothesisViolationError,
    NotClosedError,
    WitnessMismatchError,
)
from .linalg import PolyFraction, solve_in_S
from .poly import BaseRing, Poly, halve_common, poly_dots, reduce_mod_2k
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


@dataclass(frozen=True)
class AlgebraDesc:
    """Descriptor of A = S[w, u]/(w^2 - f, u^2 - g).

    wf and wg are the decompositions f = h1^2 + 2a, g = h2^2 + 2b; they
    are present exactly when the mod-2 reduction of f resp. g is a
    square (which includes every case the classifier handles beyond the
    out-of-scope tag).

    Derived facts are computed with their checks on first use and cached
    outside the fields, so equality and hashing are unchanged: fg (the
    product f*g that k_mul reads), w4f, w4g (the S^{2,4} witnesses of
    f, g, or None), q_shape (the shape of Q = (2, h1, h2)), dual_product
    ((w + h1)(u + h2), which ideal_H and prime_dual_gen share) and
    local_factors ((k1, k2) with (w - h1)^2 = 2*k1, (u - h2)^2 = 2*k2).
    residues(k) keeps f, g and f*g mod 2^k per k.  zero(), one(),
    root_f(), root_g() and root_fg() return the same element on every
    call, so each forms its right vector (k_mul) once per algebra.
    """

    ring: BaseRing
    f: Poly
    g: Poly
    wf: Optional[S2Witness]
    wg: Optional[S2Witness]

    # -- element factories -------------------------------------------

    def element(self, coords: Sequence[Poly], denom_exp: int = 0) -> "KElement":
        return KElement.make(self, tuple(coords), denom_exp)

    @cached_property
    def _basis(self) -> Tuple["KElement", ...]:
        """0, 1, w, u and wu, built once: each keeps its right vector."""
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
    def _residues(self) -> Dict[int, Tuple[Poly, Poly, Poly]]:
        return {}

    def residues(self, k: int) -> Tuple[Poly, Poly, Poly]:
        """f, g and f*g mod 2^k (f*g from the residues of f and g)."""
        if k not in self._residues:
            fk, gk = reduce_mod_2k(self.f, k), reduce_mod_2k(self.g, k)
            self._residues[k] = (fk, gk, reduce_mod_2k(fk * gk, k))
        return self._residues[k]

    @cached_property
    def q_shape(self) -> QShape:
        return ideal_Q_classify(self.h1(), self.h2())

    @cached_property
    def dual_product(self) -> "KElement":
        w_plus = self.root_f() + self.scalar(self.h1())
        return k_mul(w_plus, self.root_g() + self.scalar(self.h2()))

    @cached_property
    def local_factors(self) -> Tuple["KElement", "KElement"]:
        """(k1, k2) = (h1^2 + a - h1*w, h2^2 + b - h2*u).

        (w - h1)^2 = 2*k1 by construction (decompose_S2 builds a =
        (f - h1^2)/2), and likewise for k2; the one claim they feed,
        tau^2 = k1*k2, is verified by min_poly_check in build_R.
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
    """(n0 + n1*w + n2*u + n3*w*u) / 2^k in reduced form: make divides
    out the largest power of 2 that k allows in one pass (halve_common).

    _right_products holds the right vector (n0, n1, n2, n3, f*n1, g*n2,
    fg*n3, g*n3, f*n3) once the element has been the right operand of
    k_mul, _residues maps k to that vector mod 2^k; equality and
    hashing ignore both.  +, - and * take K-elements of one algebra;
    AlgebraDesc.scalar lifts a polynomial.
    """

    __slots__ = ("algebra", "coords", "denom_exp", "_hash", "_right_products",
                 "_residues")

    def __init__(self, algebra: AlgebraDesc, coords: Tuple[Poly, ...], denom_exp: int):
        # Callers go through make(); direct construction assumes reduced.
        self.algebra = algebra
        self.coords = coords
        self.denom_exp = denom_exp
        self._hash = None
        self._right_products: Optional[Tuple[Poly, ...]] = None
        self._residues: Optional[Dict[int, Tuple[Poly, ...]]] = None

    @classmethod
    def make(
        cls, algebra: AlgebraDesc, coords: Tuple[Poly, ...], denom_exp: int
    ) -> "KElement":
        if len(coords) != 4:
            raise ValueError("a K-element has exactly 4 coordinates")
        if denom_exp < 0:
            raise ValueError("negative denominator exponent")
        if denom_exp:
            t, coords = halve_common(coords, denom_exp)
            denom_exp -= t
        return cls(algebra, tuple(coords), denom_exp)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "KElement") -> "KElement":
        return self._plus(other, 1)

    def __sub__(self, other: "KElement") -> "KElement":
        return self._plus(other, -1)

    def _plus(self, other: "KElement", sign: int) -> "KElement":
        """self + sign*other, sign = 1 or -1, over the larger denominator."""
        _check_same_algebra(self, other)
        k = max(self.denom_exp, other.denom_exp)
        pairs = zip(self.coords, other.coords)
        if self.denom_exp == other.denom_exp:  # both scales are 1
            coords = tuple(a + b if sign == 1 else a - b for a, b in pairs)
        else:
            sa, sb = 1 << (k - self.denom_exp), sign << (k - other.denom_exp)
            coords = tuple(a.scale(sa) + b.scale(sb) for a, b in pairs)
        return KElement.make(self.algebra, coords, k)

    def __mul__(self, other: "KElement") -> "KElement":
        return k_mul(self, other)

    def scale_poly(self, p: Poly) -> "KElement":
        if not p:
            return self.algebra.zero()
        coords = tuple(c * p if c else c for c in self.coords)
        return KElement.make(self.algebra, coords, self.denom_exp)

    def half(self) -> "KElement":
        """Divide by 2 in K (the result need not lie in A)."""
        return KElement.make(self.algebra, self.coords, self.denom_exp + 1)

    def __eq__(self, other):
        if not isinstance(other, KElement):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.denom_exp == other.denom_exp
            and self.coords == other.coords
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.coords, self.denom_exp))
        return self._hash


def _check_same_algebra(a: KElement, b: KElement):
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise ValueError("operands belong to different algebras")


# (i, j, o): left coordinate n_i times entry j of the right vector
# (_right_products) goes into numerator o, one row per numerator.
_K_TABLE = ((0, 0, 0), (1, 4, 0), (2, 5, 0), (3, 6, 0),
            (0, 1, 1), (1, 0, 1), (2, 7, 1), (3, 5, 1),
            (0, 2, 2), (2, 0, 2), (1, 8, 2), (3, 4, 2),
            (0, 3, 3), (3, 0, 3), (1, 2, 3), (2, 1, 3))


def k_mul(x: KElement, y: KElement) -> KElement:
    """Exact product in K, reduced: the numerators / 2^(kx + ky).

    y's right vector is formed once per right operand.
    """
    _check_same_algebra(x, y)
    alg = x.algebra
    if y._right_products is None:
        y._right_products = _right_products(y.coords, alg.f, alg.g, alg.fg)
    coords = poly_dots(alg.ring, x.coords, y._right_products, _K_TABLE, 4)
    return KElement.make(alg, coords, x.denom_exp + y.denom_exp)


def _right_products(m: Sequence[Poly], f: Poly, g: Poly, fg: Poly) -> Tuple[Poly, ...]:
    """The right vector (m0, m1, m2, m3, f*m1, g*m2, fg*m3, g*m3, f*m3).

    The products move the structure constants w*w = f, u*u = g,
    w*wu = f*u, u*wu = g*w and wu*wu = f*g onto the coordinates m.  A
    zero coordinate is its own product with anything.
    """
    _, m1, m2, m3 = m
    pairs = ((f, m1), (g, m2), (fg, m3), (g, m3), (f, m3))
    return tuple(m) + tuple(a * b if b else b for a, b in pairs)


def _residues(y: KElement, k: int) -> Tuple[Poly, ...]:
    """y's right vector mod 2^k, cached on y per k."""
    if y._residues is None:
        y._residues = {}
    if k not in y._residues:
        m = tuple(reduce_mod_2k(c, k) for c in y.coords)
        right = _right_products(m, *y.algebra.residues(k))
        y._residues[k] = tuple(reduce_mod_2k(p, k) for p in right)
    return y._residues[k]


def a_membership(x: KElement) -> bool:
    """x in A: the reduced form has denominator exponent 0."""
    return x.denom_exp == 0


def min_poly_check(x: KElement, c1: KElement, c0: KElement) -> bool:
    """Verify the quadratic x^2 - c1*x - c0 = 0 over K."""
    return (k_mul(x, x) - k_mul(c1, x) - c0).is_zero()


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


def span_closure_check(
    gens: Sequence[KElement],
) -> Dict[Tuple[int, int], List[Union[Poly, PolyFraction]]]:
    """Certify that the S-span of gens is closed under multiplication.

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
    gens = list(gens)
    if not gens or not (gens[0] == gens[0].algebra.one()):
        raise ValueError("gens[0] must be the unit element 1")
    pairs = [(i, j) for i in range(len(gens)) for j in range(i, len(gens))]
    columns, targets = _common_coords(
        gens, [k_mul(gens[i], gens[j]) for i, j in pairs]
    )
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


def ideal_product(a: IdealGens, b: IdealGens) -> IdealGens:
    """All pairwise products, reduced, duplicates removed (stable order)."""
    if a.algebra != b.algebra:
        raise ValueError("ideals over different algebras")
    seen = []
    for x in a.gens:
        for y in b.gens:
            p = k_mul(x, y)
            if p not in seen:
                seen.append(p)
    name = f"{a.name}*{b.name}" if a.name and b.name else ""
    return IdealGens(algebra=a.algebra, gens=seen, name=name)


def in_colon(x: KElement, ideal: IdealGens) -> bool:
    """x in (A : ideal): x times every generator (in A) lies in A.

    Decided on residues mod 2^k, k = k_x; k = 0 and scalar generators
    form no product (see the module docstring).
    """
    k = x.denom_exp
    n = tuple(reduce_mod_2k(c, k) for c in x.coords) if k else None
    mask = (1 << k) - 1
    for g in ideal.gens:
        _check_same_algebra(x, g)
        if g.denom_exp:  # IdealGens checks this only when it is built
            raise WitnessMismatchError("ideal generators must lie in A")
        if k == 0:
            continue
        if not any(g.coords[1:]):  # a scalar: test p itself
            numerators = g.coords[:1]
        else:
            numerators = poly_dots(x.algebra.ring, n, _residues(g, k), _K_TABLE, 4)
        if any(c & mask for p in numerators for c in p._terms.values()):
            return False
    return True
