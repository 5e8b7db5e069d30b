"""Hypothesis tests and membership predicates for the base ring S.

S = Z[x1, ..., xn] localized at (2, x1, ..., xn).  The predicates here
decide, with extractable witnesses:

* squarefreeness of an element of S,
* the coprimality hypothesis on a pair (f, g),
* the degree-four (non-square) hypothesis on f, g and f*g, decided
  on the constants among them once the other two hold,
* membership in S^2 = {h^2 + 2a} and in S^{2,4} = {h^2 + 4a'}, which
  controls integral closedness of the quadric hypersurfaces,
* the product criterion deciding whether f*g lies in S^{2,4}, a parity
  read mod 2, where h^2 is h with doubled exponents (Frobenius),
* the shape of the ideal (2, h1, h2) mod 2, which separates the
  Cohen-Macaulay and non-Cohen-Macaulay branches.

Height-one primes of S are (2) and the irreducible polynomials with
even constant term; every other irreducible is a unit, so valuations at
content primes other than 2 never matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import MalformedSequenceError, ZeroInputError
from .gcd import gcd_f2, gcd_many_q, gcd_q, is_ring_square, squarefree_by_images
from .poly import (
    Poly,
    f2_divide_exact,
    frobenius_mod2,
    half,
    is_even,
    partial_derivative,
    poly_dot,
    primitive,
    reduce_mod_2k,
    sqrt_f2,
)


@dataclass(frozen=True)
class S2Witness:
    """A decomposition input = h^2 + 2a."""

    h: Poly
    a: Poly


@dataclass(frozen=True)
class S2w4Witness:
    """A decomposition input = h^2 + 4a'."""

    h: Poly
    a_prime: Poly


@dataclass(frozen=True)
class QShape:
    """Mod-2 shape of the ideal Q = (2, h1, h2): h1 = z*c, h2 = z*e mod 2.

    z, c and e are 0/1 Polys, so each is its own canonical lift to S.
    """

    z: Poly
    c: Poly
    e: Poly
    tag: str  # UnitIdeal | TwoGenerated | Grade3CI_NotTwoGen | Grade2Pd3


def is_squarefree(f: Poly) -> bool:
    """Squarefreeness in S.

    Two independent conditions: the 2-adic valuation of the integer
    content is at most one, and the primitive part has no repeated
    factor over Q.  The second is first tried by the modular-image
    certificate ``squarefree_by_images(f)`` (see gcd.py), whose images
    of f the coprimality test of a pair reuses; when it proves nothing,
    the joint gcd of the primitive part with all its partial
    derivatives must be trivial.
    """
    if f.is_zero():
        raise ZeroInputError("is_squarefree(0)")
    content, pp = primitive(f)
    if content % 4 == 0:
        return False
    if pp.is_constant() or squarefree_by_images(f):
        return True
    seq = [pp] + [partial_derivative(pp, i) for i in range(f.ring.nvars)]
    return gcd_many_q(seq).is_constant()


def satisfies_A1(f: Poly, g: Poly) -> bool:
    """No common height-one prime: primitive gcd 1 and not both in 2S.

    gcd_q returns a primitive polynomial with positive leading
    coefficient, so it is constant exactly when it is 1.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("satisfies_A1 with a zero argument")
    if is_even(f) and is_even(g):
        return False
    return gcd_q(f, g).is_constant()


def degree_four_check(f: Poly, g: Poly) -> bool:
    """Neither f, g nor f*g is a square in S, for squarefree f, g with A1.

    For an integer polynomial, being a square in S is equivalent to
    being a square in Q[vars] (compare irreducible multiplicities in
    the UFD Z[vars]; units of S are products of odd-constant
    irreducibles, which the valuation argument covers as well).

    Only constants can be squares here, so is_ring_square, which
    decides constants only, is asked about them alone.  A squarefree p
    has a primitive part with no repeated factor over Q, so when p is
    not constant some irreducible divides it exactly once and p is not
    a Q-square.  A1 makes the primitive parts of f and g coprime over
    Q, so the primitive part of f*g, their product, has no repeated
    factor either, and f*g is not a square unless f and g are both
    constant.  Outside these hypotheses (f = X^2, say) the verdict says
    nothing; make_algebra checks them first.
    """
    candidates = [p for p in (f, g) if p.is_constant()]
    if len(candidates) == 2:
        candidates.append(f * g)
    return not any(is_ring_square(p) for p in candidates)


def decompose_S2(f: Poly) -> Optional[S2Witness]:
    """Witness f = h^2 + 2a, if the mod-2 reduction is a square.

    h is the mod-2 square root, a 0/1 Poly (the canonical lift), so
    f - h^2 is even and a = (f - h^2)/2 by exact halving: the witness
    re-expands to f by construction, and half raises on an odd
    coefficient.
    """
    h = sqrt_f2(f)
    if h is None:
        return None
    a = half(f - h * h)
    return S2Witness(h=h, a=a)


def in_S2wedge4(w: Optional[S2Witness]) -> Optional[S2w4Witness]:
    """Witness f = h^2 + 4a' from w = decompose_S2(f), if one exists.

    The verdict is the parity of a in f = h^2 + 2a, read off the
    canonical lift h of the mod-2 square root.  It holds for every lift
    h + 2t: then a becomes a - 2(th + t^2), whose parity is that of a.
    No witness (f not in S^2) gives None.
    """
    if w is None or not is_even(w.a):
        return None
    return S2w4Witness(h=w.h, a_prime=half(w.a))


def product_in_S2wedge4(wf: S2Witness, wg: S2Witness) -> bool:
    """Whether f*g lies in S^{2,4}, from witnesses of the factors.

    With f = h1^2 + 2a and g = h2^2 + 2b one has
    f*g = (h1*h2)^2 + 2*(a*h2^2 + b*h1^2) + 4*a*b, so membership is
    the parity condition a*h2^2 + b*h1^2 in 2S, read from residues mod
    2 with h^2 = frobenius_mod2(h): no exact square or product is formed.
    """
    pairs = ((reduce_mod_2k(wf.a, 1), frobenius_mod2(wg.h)),
             (reduce_mod_2k(wg.a, 1), frobenius_mod2(wf.h)))
    return is_even(poly_dot(wf.a.ring, pairs))


def ideal_Q_classify(h1: Poly, h2: Poly) -> QShape:
    """Classify the ideal (2, h1, h2) by its mod-2 factorization.

    Writing h1 = z*c and h2 = z*e with z the gcd mod 2:
    the ideal is the unit ideal when some hi is a unit; two-generated
    when c or e is a unit (then (2, h1, h2) = (2, z*gcd-complement));
    a grade-three complete intersection when z is a unit but neither
    c nor e is; and otherwise a grade-two ideal whose quotient has
    projective dimension three.  ``gcd_f2`` splits the monomial factors
    off both residues first, so a residue that is a monomial (h1 = X,
    say) never reaches the recursive gcd, and dividing by z = 1 returns
    the residue itself.
    """
    r1, r2 = reduce_mod_2k(h1, 1), reduce_mod_2k(h2, 1)
    if r1.is_zero() and r2.is_zero():
        # Q = (2): degenerate, principal hence two-generated.
        return QShape(z=r1, c=r1, e=r1, tag="TwoGenerated")
    z = gcd_f2(r1, r2)
    c = f2_divide_exact(r1, z)
    e = f2_divide_exact(r2, z)
    if r1.is_unit() or r2.is_unit():
        tag = "UnitIdeal"
    elif c.is_unit() or e.is_unit():
        tag = "TwoGenerated"
    elif z.is_unit():
        tag = "Grade3CI_NotTwoGen"
    else:
        tag = "Grade2Pd3"
    return QShape(z=z, c=c, e=e, tag=tag)


def regular_sequence_certificate(seq: Sequence[Poly]) -> bool:
    """Certify that (2, c, e) is a regular sequence on S.

    2 is regular on the domain S; c is regular on S/2S iff its
    reduction is nonzero; and e is regular on S/(2, c) iff e avoids
    every associated prime of (c) mod 2, i.e. iff gcd_f2(c, e) is a
    unit (the associated primes are generated by the irreducible
    factors of c).
    """
    if len(seq) != 3:
        raise MalformedSequenceError("expected a sequence (2, c, e)")
    two, c, e = seq
    if not (two == two.ring.const(2)):
        raise MalformedSequenceError("sequence must start with the constant 2")
    if is_even(c):
        return False
    return gcd_f2(c, e).is_unit()
