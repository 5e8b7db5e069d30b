"""Exact linear algebra: spans over S, fraction-free elimination, GF(2).

* solve_in_S: coefficients over S = Z[x]_(2, x) of targets in the span
  of columns, by one back-substitution.  The pivots are found once per
  column set by peeling: repeatedly take the highest coordinate with
  exactly one nonzero entry among the columns not yet pivoted; that
  entry is the column's pivot.  Columns that never peel are refused
  (SpanNotFreeError): every dependent set, and the independent sets
  that no permutation of coordinates makes triangular.  Write
  each pivot as p_j = 2^k_j * v_j, 2^k_j the 2-part of its content, and
  let D be the product of the v_j other than +-1.  Back-substitution on
  D * t takes y_j = divide_exact(r_j, p_j) over Z[x], or +-r_j for a
  pivot p_j = +-1; the residual r_j reads only the solved columns with
  a nonzero entry at the pivot's coordinate.  By Cramer's rule
  on the triangular pivot rows, y_j = D * x_j = +-adj_j / 2^K lies in
  Z[x][1/2], so a failed division leaves 2 in the reduced denominator
  of x_j, and the target has no solution in S; neither has one with a
  nonzero residual at a coordinate that carries no pivot.  When D = 1
  the y_j are the coefficients and no fraction is formed; otherwise
  x_j = PolyFraction(y_j, D), and the target is solved when every x_j
  lies in S.  Over (1, w, u, wu) every basis the package builds, all on
  generic algebras, peels: CaseA and CaseB with pivots 1, 1/2 and 1/4;
  P = {2, w - h1, u - h2, wu - h1h2} with 1, 1, 1 and 2; CaseC_CM,
  where rho peels at u with pivot c/2, c = 1 + K, so D = 1 + K.

* One fraction-free Gauss-Jordan elimination (Bareiss) over Z[x] behind
  bareiss_rank, solve_fraction_system and fraction_kernel: polynomial
  matrices in, reduced fractions (PolyFraction) out.  Entries stay
  polynomial because every intermediate entry is a minor of the input,
  so each division by the previous pivot is exact.  Each entry update
  piv*row[j] - row[col]*pivot_row[j] is one poly_dot followed by
  divide_exact, which divides term by term when the previous pivot is a
  single term (most pivots are constants).  The result is d
  times the reduced row echelon form, d the last pivot, and each output
  entry becomes one reduced fraction over d.  No package module calls
  bareiss_rank, solve_fraction_system or fraction_kernel: they are the
  tests' references (homology reads ranks off the free ranks, and the
  tests hold those and solve_in_S to these), and the benchmark's tracer
  reads all three.

* PolyFraction: an element of the fraction field Q(x1, ..., xn), always
  kept reduced (numerator and denominator coprime, denominator with
  positive leading coefficient).  A fraction lies in the local ring S
  exactly when its reduced denominator is a unit of S, i.e. has odd
  constant coefficient.  It is an output type only: it carries no
  arithmetic.

* GF(2) linear systems with rows packed into Python integers.  No
  package module calls f2_nullspace: the tests' colon oracle solves
  with it, and the benchmark's tracer reads it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .errors import DimensionMismatchError, NotDivisibleError, SpanNotFreeError
from .gcd import gcd_z
from .poly import BaseRing, Poly, divide_exact, poly_dot


class PolyFraction:
    """A reduced fraction of integer polynomials, without arithmetic.

    The solvers' output type: polynomial matrices in, reduced fractions out.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = num.ring.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = num.ring.one()
        else:
            g = gcd_z(num, den)
            if not (g == num.ring.one()):
                num = divide_exact(num, g)
                den = divide_exact(den, g)
            _, lc = den.lead()
            if lc < 0:
                num = num.scale(-1)
                den = den.scale(-1)
        self.num = num
        self.den = den

    @property
    def ring(self) -> BaseRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_in_S(self) -> bool:
        """Membership in the local ring: reduced denominator is a unit."""
        return self.den.is_unit()

    def is_polynomial(self) -> bool:
        return self.den == self.den.ring.one()

    def __eq__(self, other):
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"PolyFraction({self})"

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"


def _fraction_free_rref(
    work: List[List[Poly]],
    _pivot_cols: Optional[int] = None,
) -> Tuple[List[int], Optional[Poly]]:
    """Fraction-free Gauss-Jordan elimination of ``work`` in place.

    Pivots are chosen deterministically (first nonzero entry scanning
    down each column) and columns with no pivot are skipped.  Every
    non-pivot row is updated as (piv*row - row[col]*pivot_row) / prev,
    where prev is the previous pivot; each entry stays a minor of the
    input (Sylvester's identity), so the division is exact.  Returns
    the pivot columns, pivot k sitting in row k, and the last pivot d
    (None when there is no pivot).  On return the first len(pivots)
    rows equal d times the reduced row echelon form and the rest are
    zero.  With ``_pivot_cols`` only the leading columns of [A | B]
    may pivot; B is carried through every row operation, so its rows
    below the rank are nonzero multiples of the residuals of A x = B.
    """
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: List[int] = []
    prev: Optional[Poly] = None
    for col in range(ncols if _pivot_cols is None else _pivot_cols):
        top = len(pivots)
        if top == nrows:
            break
        sel = next((r for r in range(top, nrows) if not work[r][col].is_zero()), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        pivot_row = work[top]
        piv = pivot_row[col]
        ring = piv.ring
        for i, row in enumerate(work):
            if i == top:
                continue
            neg_factor = -row[col]
            for j in range(ncols):
                num = poly_dot(ring, ((piv, row[j]), (neg_factor, pivot_row[j])))
                row[j] = num if prev is None else divide_exact(num, prev)
        pivots.append(col)
        prev = piv
    return pivots, prev


def bareiss_rank(rows: Sequence[Sequence[Poly]]) -> int:
    """Rank over the fraction field via fraction-free elimination."""
    pivots, _ = _fraction_free_rref([list(r) for r in rows])
    return len(pivots)


def solve_fraction_system(
    columns: Sequence[Sequence[Poly]],
    targets: Sequence[Sequence[Poly]],
    require_unique: bool = False,
) -> List[Optional[List[PolyFraction]]]:
    """Solve sum_j x_j * columns[j] = t over the fraction field for each t.

    Polynomial matrices in, reduced fractions out: the columns and
    targets are vectors over Z[x], the solutions reduced fractions of
    Q(x).  One elimination of [columns | targets] serves every target.
    Returns, per target, its coefficient list, or None when that system
    is inconsistent (a nonzero entry below the rank).  With
    require_unique, raises SpanNotFreeError if the columns are linearly
    dependent (solutions not unique).  Free unknowns are set to zero.
    """
    ncols = len(columns)
    if ncols == 0:
        return [[] if all(x.is_zero() for x in t) else None for t in targets]
    nrows = len(columns[0])
    vectors = [*columns, *targets]
    if any(len(vec) != nrows for vec in vectors):
        raise DimensionMismatchError("column length differs from target")
    aug = [[vec[i] for vec in vectors] for i in range(nrows)]
    pivots, d = _fraction_free_rref(aug, ncols)
    if require_unique and len(pivots) < ncols:
        raise SpanNotFreeError("generating set is linearly dependent")
    zero = PolyFraction(columns[0][0].ring.zero())
    out: List[Optional[List[PolyFraction]]] = []
    for k in range(ncols, len(vectors)):
        if any(not row[k].is_zero() for row in aug[len(pivots):]):
            out.append(None)
        else:
            sol = [zero] * ncols
            for r, c in enumerate(pivots):
                sol[c] = PolyFraction(aug[r][k], d)
            out.append(sol)
    return out


def solve_in_S(
    columns: Sequence[Sequence[Poly]],
    targets: Sequence[Sequence[Poly]],
) -> List[Optional[List[Union[Poly, PolyFraction]]]]:
    """Solve sum_j x_j * columns[j] = t with every x_j in S, for each t.

    Returns, per target, its coefficients, or None when the target is
    not an S-combination of the columns.  A coefficient is a Poly, or
    its reduced PolyFraction (a unit denominator) when it is not a
    polynomial.  Columns that do not peel (see the module docstring)
    raise SpanNotFreeError.  With no columns only a zero target is
    solved, by the empty list.
    """
    if not columns:
        return [[] if all(x.is_zero() for x in t) else None for t in targets]
    ncols, nrows = len(columns), len(columns[0])
    if any(len(vec) != nrows for vec in (*columns, *targets)):
        raise DimensionMismatchError("column length differs from target")
    ring = columns[0][0].ring
    one = ring.one()
    order: List[Tuple[int, Optional[int]]] = []  # (coordinate, column)
    den = one  # D, the product of the pivots' odd parts other than +-1
    unsolved = set(range(ncols))
    while unsolved:
        for i in reversed(range(nrows)):
            hits = [j for j in unsolved if not columns[j][i].is_zero()]
            if len(hits) == 1:
                break
        else:
            raise SpanNotFreeError(
                f"columns are not triangular: none of {sorted(unsolved)} peels"
            )
        j = hits[0]
        order.append((i, j))
        unsolved.remove(j)
        piv = columns[j][i]
        size = abs(piv.constant_coeff())
        if not piv.is_constant() or size & (size - 1):  # not +-2^k
            content = piv.integer_content()
            den = den * divide_exact(piv, ring.const(content & -content))
    # Coordinates with no pivot come last: their residuals must vanish.
    pivot_rows = {i for i, _ in order}
    order += [(i, None) for i in range(nrows) if i not in pivot_rows]
    scaled = den != one
    # Per step: the coordinate, its column (None: no pivot), the solved
    # columns with a nonzero entry there, negated, and the pivot's sign
    # when it is +-1 (None otherwise), so a unit pivot divides nothing.
    steps = []
    solved: List[int] = []
    for i, j in order:
        entries = [(k, -columns[k][i]) for k in solved if columns[k][i]]
        sign = None
        if j is not None:
            piv = columns[j][i]
            if piv.is_constant() and abs(piv.constant_coeff()) == 1:
                sign = piv.constant_coeff()
            solved.append(j)
        steps.append((i, j, entries, sign))

    def back_substitute(t: Sequence[Poly]) -> Optional[List[Union[Poly, PolyFraction]]]:
        if scaled:
            t = [den * x for x in t]
        sol: List[Poly] = [one] * ncols  # each entry is set at its pivot
        for i, j, entries, sign in steps:
            residual = t[i]
            if entries:
                residual = poly_dot(
                    ring, ((residual, one), *((sol[k], c) for k, c in entries))
                )
            if j is None:
                if not residual.is_zero():
                    return None
            elif sign is not None:
                sol[j] = residual if sign == 1 else -residual
            else:
                try:
                    sol[j] = divide_exact(residual, columns[j][i])
                except NotDivisibleError:
                    return None
        if not scaled:
            return sol
        fractions = [PolyFraction(y, den) for y in sol]
        if not all(fr.is_in_S() for fr in fractions):
            return None
        return [fr.num if fr.is_polynomial() else fr for fr in fractions]

    return [back_substitute(t) for t in targets]


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by cofactor expansion; fine for the small matrices here."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("determinant of a non-square matrix")
    if n == 0:
        raise DimensionMismatchError("empty matrix")
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    acc = ring.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        cofactor = poly_det(minor)
        if cofactor:
            term = rows[0][j] * cofactor
            acc = acc + (term if j % 2 == 0 else -term)
    return acc


def fraction_kernel(rows: Sequence[Sequence[Poly]]) -> List[List[PolyFraction]]:
    """Basis of the right kernel of a matrix over the fraction field.

    Polynomial matrix in, reduced fractions out.  One vector per free
    column, in increasing column order: the free unknown is set to 1
    and the pivot unknowns are read off the reduced row echelon form.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ring = rows[0][0].ring
    work = [list(r) for r in rows]
    pivots, d = _fraction_free_rref(work)
    zero = PolyFraction(ring.zero())
    one = PolyFraction(ring.one())
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for r, c in enumerate(pivots):
            vec[c] = PolyFraction(-work[r][free], d)
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# GF(2) systems with bitmask rows


def f2_row_reduce(rows: List[int]) -> List[int]:
    """Reduced echelon basis of the span of bitmask rows.

    The pivot of a row is its lowest set bit; in the returned basis
    every pivot bit occurs in exactly one row, and rows are sorted by
    pivot.  This canonical form only depends on the span.
    """
    piv: dict = {}
    for row in rows:
        cur = row
        # One pass suffices: stored rows are mutually reduced, so
        # clearing one pivot bit never reintroduces another.
        for p, r in piv.items():
            if (cur >> p) & 1:
                cur ^= r
        if cur:
            low = (cur & -cur).bit_length() - 1
            for p in list(piv):
                if (piv[p] >> low) & 1:
                    piv[p] ^= cur
            piv[low] = cur
    return [piv[p] for p in sorted(piv)]


def f2_nullspace(eq_rows: List[int], nunknowns: int) -> List[int]:
    """Basis of the solution space of a homogeneous GF(2) system.

    Each equation row is a bitmask over unknowns 0..nunknowns-1.  One
    basis vector per free unknown, in increasing unknown order: the
    free unknown is set to 1 and each pivot unknown of a row containing
    it is forced to 1 (reduced rows contain no other pivots).
    """
    basis = f2_row_reduce(eq_rows)
    pivot_rows = [((b & -b).bit_length() - 1, b) for b in basis]
    pivot_set = {p for p, _ in pivot_rows}
    out = []
    for f in range(nunknowns):
        if f in pivot_set:
            continue
        vec = 1 << f
        for p, b in pivot_rows:
            if (b >> f) & 1:
                vec |= 1 << p
        out.append(vec)
    return out

