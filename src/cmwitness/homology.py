"""Finite free complexes over S with machine-checkable exactness evidence.

A complex is stored as a list of matrices over the polynomial ring,

    0 -> F_n --d_n--> ... --d_2--> F_1 --d_1--> F_0,

with d_i given in column convention: column j of d_i holds the
coordinates of the image of the j-th basis vector of F_i in the basis
of F_{i-1}.  Exactness in positive degrees is certified by the
Buchsbaum-Eisenbud acyclicity criterion at the ranks the free ranks
force, r_n = dim F_n and r_i = dim F_i - r_{i+1}: the ideal of
r_i-minors of d_i must have grade >= i.  No elimination runs, and no
determinant per job (verify_specialised): a nonzero grade witness
inside the r_i-minors gives rank(d_i) >= r_i, and composition zero
gives rank(d_i) <= dim F_i - rank(d_{i+1}) = r_i by induction from the
top, so rank additivity holds by construction.
Grades are certified by explicit regular sequences inside the minor
ideals, validated by shape:

  * length 1: a nonzero element (S is a domain);
  * length 2: (2^j, w) with j >= 1 and w nonzero mod 2 -- regularity of
    w on S/2^j follows by induction on j because F_2[x1..xn] is a
    domain;
  * length 3: (2, c, e) via regular_sequence_certificate.

Membership of a witness element in the minor ideal is checked by exact
divisibility by one of the listed generators, which is sound (any
multiple of a generator lies in the ideal) and sufficient for every
witness constructed here.

The rank-1 tails are cross-checked by one gcd.  A nonzero minor of
size dim F_1 - 1 and d_1 . c = 0 for a nonzero column c of d_2 give
rank(d_1) = dim F_1 - 1; S is a UFD, so ker(d_1) = (K c) cap F_1 equals
S c exactly when the gcd of the entries of c is a unit of S.  An
irreducible of Z[x] lies in the maximal ideal (2, x) exactly when its
constant term is even, so the Z[x]-gcd is a unit of S exactly when its
constant coefficient is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, combinations, product
from math import prod
from typing import Callable, List, Optional, Sequence, Tuple

from .algebra import AlgebraDesc, KElement
from .errors import (
    DimensionMismatchError,
    LiftInvalidError,
    MalformedSequenceError,
    MissingCertificateError,
    UnverifiedComplexError,
    WitnessMismatchError,
)
from .gcd import gcd_z
from .linalg import poly_det
from .poly import Poly, exponent_terms, is_divisible, is_even, poly_dot
from .predicates import regular_sequence_certificate


@dataclass
class FreeComplex:
    """A finite complex of free S-modules in column convention.

    ``matrices[i]`` is d_{i+1} as a row-major rectangular list; the free
    ranks are read off the matrix shapes.  ``labels`` names the modules
    F_0 .. F_n for reports.  When ``augmented`` is true, d_1 is an
    augmentation whose *image* (not cokernel) is the module being
    resolved, so the resolution of that module has length n - 1.

    The rank-size minors of each differential, at the ranks the free
    ranks force, are computed on first use and cached outside the
    fields, so both exactness checks read the same values.
    """

    matrices: List[List[List[Poly]]]
    labels: List[str]
    augmented: bool = False

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.matrices) + 1:
            raise DimensionMismatchError(
                "need one label per module: %d matrices require %d labels"
                % (len(self.matrices), len(self.matrices) + 1)
            )
        for idx, mat in enumerate(self.matrices):
            if not mat or not mat[0]:
                raise DimensionMismatchError("empty matrix at position %d" % idx)
            width = len(mat[0])
            if any(len(row) != width for row in mat):
                raise DimensionMismatchError("ragged matrix at position %d" % idx)

    @cached_property
    def differential_ranks(self) -> List[int]:
        """Ranks of d_1 .. d_n in an exact complex: r_i = dim F_i - r_{i+1}."""
        widths = [len(mat[0]) for mat in reversed(self.matrices)]
        return list(accumulate(widths, lambda r, dim: dim - r))[::-1]

    @cached_property
    def rank_minors(self) -> List[List[Poly]]:
        """The r_i-size minors of each d_i at the forced ranks r_i."""
        return [
            minor_ideal_generators(m, r)
            for m, r in zip(self.matrices, self.differential_ranks)
        ]


def _in_ideal_by_divisibility(elem: Poly, gens: Sequence[Poly]) -> bool:
    """True if ``elem`` is an exact multiple of one of ``gens``."""
    return elem.is_zero() or any(g and is_divisible(elem, g) for g in gens)


def _is_regular_sequence(witness: Sequence[Poly]) -> bool:
    """Validate a regular sequence by shape (lengths 1..3, see module doc)."""
    n = len(witness)
    if n == 1:
        return not witness[0].is_zero()
    if n == 2:
        first, second = witness
        const = first.constant_coeff()
        if not first.is_constant() or const <= 1 or const & (const - 1) != 0:
            raise MalformedSequenceError(
                "length-2 witnesses must start with a power of 2"
            )
        return not is_even(second)
    return regular_sequence_certificate(witness)


# ---------------------------------------------------------------------------
# the two concrete complexes (classifier.generic_complexes verifies them)


def generating_identities(
    alg: AlgebraDesc,
) -> List[Tuple[KElement, Tuple[KElement, ...]]]:
    """The three identities that make the image of phi an ideal.

    Each entry is (left side, summands of the right side), with
    cross = wu - h1*h2 and mixed = h2*w - h1*u:

      w * cross  = 2a*u - h1*mixed,
      u * cross  = 2b*w + h2*mixed,
      wu * cross = -h1*h2*cross + 2(a*h2^2 + b*h1^2) + 4ab.

    They are identities in (h1, a, h2, b) once f = h1^2 + 2a and
    g = h2^2 + 2b; the last reads fg = h1^2*h2^2 + 2(a*h2^2 + b*h1^2)
    + 4ab.  classifier.generic_claims sums them once, on the generic
    algebra, and raises InternalVerification when one fails; there
    a*h2^2 + b*h1^2 is odd, so the constant is kept as
    2(a*h2^2 + b*h1^2) + 4ab rather than as 4e.
    """
    ring = alg.ring
    h1, a = alg.h1(), alg.a()
    h2, b = alg.h2(), alg.b()
    w, u = alg.root_f(), alg.root_g()
    two = ring.const(2)
    mixed = w.scale_poly(h2) - u.scale_poly(h1)
    cross = alg.root_fg() - alg.scalar(h1 * h2)
    excess = poly_dot(ring, ((a, h2 * h2), (b, h1 * h1)))
    return [
        (w * cross, (u.scale_poly(two * a), mixed.scale_poly(-h1))),
        (u * cross, (w.scale_poly(two * b), mixed.scale_poly(h2))),
        (
            alg.root_fg() * cross,
            (
                cross.scale_poly(-(h1 * h2)),
                alg.scalar(excess.scale(2)),
                alg.scalar((a * b).scale(4)),
            ),
        ),
    ]


def resolution_of_I(alg: AlgebraDesc) -> FreeComplex:
    """Augmented complex 0 -> S --psi^T--> S^3 --phi--> A = S^4 onto I.

    phi sends the standard basis to (2w, 2u, h2*w - h1*u), written in
    A-coordinates, so its image is the ideal I = (2, wu - h1*h2,
    h2*w - h1*u) A intersected with the displayed generators' span; the
    three generating identities (generating_identities) show the image
    is closed under multiplication by w, u and wu, i.e. really is I.
    classifier.generic_claims sums those identities once per process and
    raises when one fails, so this builder forms no K-element product,
    and the matrices come from resolution_of_I_complex.  What is not an
    identity stays here: raises WitnessMismatch when the algebra's
    witnesses are degenerate (both h's even) or the excess term
    a*h2^2 + b*h1^2 is odd, in which case no polynomial e with
    (wu)(wu - h1*h2) = -h1*h2(wu - h1*h2) + 4e exists.  The parity is
    the one classify reads, AlgebraDesc.fg_in_S2wedge4.
    """
    h1, h2 = alg.h1(), alg.h2()
    if is_even(h1) and is_even(h2):
        raise WitnessMismatchError(
            "both residues vanish mod 2; the ideal I degenerates to (2)"
        )
    if not alg.fg_in_S2wedge4:
        raise WitnessMismatchError(
            "a*h2^2 + b*h1^2 is odd, so the product has no square-mod-4 structure"
        )
    return resolution_of_I_complex(h1, h2)


def resolution_of_I_complex(h1: Poly, h2: Poly) -> FreeComplex:
    """The matrices of resolution_of_I, from h1 and h2 alone."""
    zero, two = h1.ring.zero(), h1.ring.const(2)
    phi = [[zero] * 3, [two, zero, h2], [zero, two, -h1], [zero] * 3]
    psi_t = [[-h2], [h1], [two]]
    return FreeComplex(
        matrices=[phi, psi_t],
        labels=["A = S^4 (image = I)", "S^3", "S"],
        augmented=True,
    )


def resolution_of_S_mod_Q(z: Poly, c: Poly, e: Poly) -> FreeComplex:
    """Length-3 free resolution 0 -> S -> S^3 -> S^3 -> S of S/Q.

    Q = (2, z*c, z*e) with z the lifted gcd of the two residues and c, e
    the lifted cofactors.  The lift z must be odd somewhere mod 2
    (LiftInvalid otherwise): the exactness certificate needs an odd
    2-minor of d_2, and each one (z*c*e, z*e^2, -z*c^2) has the factor z.
    """
    ring = z.ring
    if is_even(z):
        raise LiftInvalidError("lift of the residue gcd vanishes mod 2")
    two, zero, zc, ze = ring.const(2), ring.zero(), z * c, z * e
    psi = [[two, zc, ze]]
    phi = [[zc, ze, zero], [-two, zero, e], [zero, -two, -c]]
    tail = [[-e], [c], [-two]]
    return FreeComplex(
        matrices=[psi, phi, tail],
        labels=["S (cokernel = S/Q)", "S^3", "S^3", "S"],
        augmented=False,
    )


# ---------------------------------------------------------------------------
# verification


def _product_is_zero(left: List[List[Poly]], right: List[List[Poly]], i: int) -> bool:
    """True iff d_i . d_{i+1} = left . right is the zero matrix.

    Each entry is one poly_dot.  DimensionMismatch when the shapes do
    not compose.
    """
    if len(right) != len(left[0]):
        raise DimensionMismatchError("d_%d and d_%d are not composable" % (i, i + 1))
    ring = left[0][0].ring
    columns = list(zip(*right))
    return all(
        poly_dot(ring, zip(row, col)).is_zero() for row in left for col in columns
    )


def check_composition_zero(cx: FreeComplex) -> bool:
    """True iff every adjacent product d_i . d_{i+1} is the zero matrix."""
    return all(
        _product_is_zero(cx.matrices[i - 1], cx.matrices[i], i)
        for i in range(1, len(cx.matrices))
    )


def minor_ideal_generators(mat: List[List[Poly]], size: int) -> List[Poly]:
    """All size x size minors of ``mat``; none unless 1 <= size <= rows, cols."""
    nrows, ncols = len(mat), len(mat[0])
    if not 1 <= size <= min(nrows, ncols):
        return []
    pairs = product(combinations(range(nrows), size), combinations(range(ncols), size))
    return [poly_det([[mat[r][c] for c in cols] for r in rows]) for rows, cols in pairs]


def be_exactness_check(cx: FreeComplex, witnesses: Sequence[Sequence[Poly]]) -> bool:
    """Acyclicity criterion: certified grades of the forced-rank minors.

    ``witnesses[i]`` must be a regular sequence of length >= i+1 inside
    the ideal of r_{i+1}-minors of d_{i+1} (``cx.rank_minors[i]``);
    MissingCertificate when the list or a sequence is too short.
    Returns False when a containment or regularity check fails; True,
    with composition zero, proves the complex exact in positive degrees.
    """
    n = len(cx.matrices)
    if len(witnesses) < n:
        raise MissingCertificateError(
            "need %d grade witnesses, got %d" % (n, len(witnesses))
        )
    for i, (witness, minors) in enumerate(zip(witnesses, cx.rank_minors), start=1):
        if len(witness) < i:
            raise MissingCertificateError(
                "witness at position %d only reaches grade %d" % (i, len(witness))
            )
        if len(witness) > 3:
            raise MalformedSequenceError(
                "witness sequences longer than 3 are not supported"
            )
        if not all(_in_ideal_by_divisibility(w, minors) for w in witness):
            return False
        if not _is_regular_sequence(witness):
            return False
    return True


def standard_grade_certificates(cx: FreeComplex) -> List[List[Poly]]:
    """One grade witness per differential of the two complexes made here.

    Witness recipes, one per homological position i:

      i=1: (m) for the first nonzero minor m;
      i=2: (4, w) with w the first minor nonzero mod 2; 4 and w are exact
           multiples of minors -- for both complexes 4 = 2*2 and w = z*c*c
           (or h1^2 / h2^2 for the augmented complex) divide listed minors;
      i=3: (2, c, e) via the explicit length-3 check.

    UnverifiedComplex when some d_i has no nonzero r_i-minor.
    """
    def first(i: int, odd: bool) -> Optional[Poly]:
        return next((m for m in cx.rank_minors[i - 1] if m and not (odd and is_even(m))), None)
    return _grade_witnesses(cx, first)


def _grade_witnesses(cx: FreeComplex, first: Callable) -> List[List[Poly]]:
    """The recipe of standard_grade_certificates; first(i, odd) is the
    first r_i-minor of d_i that is nonzero (odd: nonzero mod 2), or None."""
    ring = cx.matrices[0][0][0].ring
    out: List[List[Poly]] = []
    for i, d in enumerate(cx.matrices, start=1):
        minor = first(i, i == 2)  # an odd minor is nonzero
        if minor is None and (i != 2 or first(i, False) is None):
            raise UnverifiedComplexError("d_%d has no nonzero r_%d-minor" % (i, i))
        if i == 1:
            out.append([minor])
        elif i == 2 and minor is not None:
            out.append([ring.const(4), minor])
        elif i == 3 and len(d) == 3 and len(d[0]) == 1:
            # the tail column [-e, c, -2] of the resolution of S/Q
            (neg_e,), (c,), _ = d
            out.append([ring.const(2), c, -neg_e])
        else:
            raise MissingCertificateError("no length-%d grade witness for d_%d" % (i, i))
    return out


def pd_depth_report(cx: FreeComplex) -> Tuple[int, int]:
    """(pd bound, depth) for the module resolved by an exact complex.

    The projective dimension bound is the length of the resolution: the
    number of matrices, minus one when the complex is augmented (d_1
    then maps onto the module instead of presenting its cokernel).
    Depth is d - pd with d = dim S = number of variables + 1.  The
    bound holds only for a verified complex, see verify_complex.
    """
    d = len(cx.matrices[0][0][0].ring.variables) + 1
    pd_bound = len(cx.matrices) - (1 if cx.augmented else 0)
    return pd_bound, d - pd_bound


@dataclass
class VerifiedComplex:
    """A complex verified exact, with its grade witnesses and pd/depth."""

    complex: FreeComplex
    witnesses: List[List[Poly]]
    pd_bound: int
    depth: int


def verify_complex(cx: FreeComplex) -> VerifiedComplex:
    """Build the grade witnesses of ``cx`` and verify it exactly once.

    Raises UnverifiedComplexError when the differentials do not compose
    to zero or the exactness criterion fails.  Reports run it on the
    generic complexes only (classifier.generic_complexes).
    """
    witnesses = standard_grade_certificates(cx)
    if not (check_composition_zero(cx) and be_exactness_check(cx, witnesses)):
        raise UnverifiedComplexError("the complex is not verified exact")
    return VerifiedComplex(cx, witnesses, *pd_depth_report(cx))


def verify_specialised(
    cx: FreeComplex, minors: List[List[Poly]], values: Sequence[Poly]
) -> VerifiedComplex:
    """verify_complex, with no determinant, for ``cx`` built from
    ``values`` by the builder of a generic complex with one-term rank
    minors ``minors`` (classifier.generic_complexes).  S and F_2[x] are
    domains, so c * values^exponents is zero (even) exactly when c or a
    factor is; only the picks are multiplied out, and regularity checked."""
    ring = cx.matrices[0][0][0].ring

    def first(i: int, odd: bool) -> Optional[Poly]:
        live = (lambda p: not is_even(p)) if odd else bool
        for exps, coeff in (t for m in minors[i - 1] for t in exponent_terms(m)):
            factors = [v for v, n in zip(values, exps) for _ in range(n)]
            if (coeff % 2 or not odd) and all(map(live, factors)):
                return prod(factors, start=ring.const(coeff))
        return None

    witnesses = _grade_witnesses(cx, first)
    if not all(_is_regular_sequence(w) for w in witnesses):
        raise UnverifiedComplexError("the complex is not verified exact")
    return VerifiedComplex(cx, witnesses, *pd_depth_report(cx))


def verify_column(cx: FreeComplex) -> VerifiedComplex:
    """verify_complex for 0 -> S -> S^n: its 1-minors are its entries."""
    (d1,) = cx.matrices
    witness = next((row[0] for row in d1 if row[0]), None) if len(d1[0]) == 1 else None
    if witness is None:
        raise UnverifiedComplexError("d_1 is no nonzero column")
    return VerifiedComplex(cx, [[witness]], *pd_depth_report(cx))


def kernel_saturation_check(cx: FreeComplex) -> bool:
    """Whether ker(d_1) is exactly S c for the single column c of d_2.

    True exactly when d_1 . c = 0, some (dim F_1 - 1)-minor of d_1 is
    nonzero (so rank(d_1) = dim F_1 - 1, as c != 0; these minors are
    the cached ``cx.rank_minors[0]``) and the Z[x]-gcd of the nonzero
    entries of c is a unit of S (see the module docstring).  The gcd is
    folded in increasing degree, so a constant entry keeps every step on
    gcd_z's constant-operand path.  False for an all-zero column and for
    ker(d_1) = 0, where d_2 is no rank-1 tail of d_1.
    DimensionMismatch unless there are exactly two differentials, for a
    d_2 with more than one column, and for shapes that do not compose.
    Reports run it on the generic resolution of I only; on a job it is
    a parity read (classifier.generic_complexes).
    """
    if len(cx.matrices) != 2:
        raise DimensionMismatchError("need exactly two differentials")
    d1, d2 = cx.matrices
    if len(d2[0]) != 1:
        raise DimensionMismatchError("saturation spot check expects a rank-1 tail")
    if not _product_is_zero(d1, d2, 1):
        return False
    entries = sorted((r[0] for r in d2 if not r[0].is_zero()), key=Poly.total_degree)
    if not entries or (len(d1[0]) > 1 and not any(cx.rank_minors[0])):
        return False
    return reduce(gcd_z, entries).is_unit()
