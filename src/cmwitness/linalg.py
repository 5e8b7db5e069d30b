"""Exact linear algebra: spans over S, fraction-free elimination, GF(2).

* solve_in_S: coefficients over S = Z[x]_(2, x) of targets in the span
  of independent columns.  Its fast path, solve_over_S, is one
  back-substitution for columns in echelon form: each column's pivot is
  its last nonzero coordinate, the pivot coordinates are distinct and
  each pivot is a constant +-2^k.  A coefficient r / 2^k lies in S
  exactly when 2^k divides every coefficient of r, and then it is the
  polynomial divide_exact(r, 2^k); no fraction is formed.  The free R
  bases of CaseA and CaseB, of CaseC_CM when its unit cofactor c is 1,
  and the basis of P take this path.  The other CaseC_CM bases (rho
  ends in the coordinate of the kept root u, or its pivot is a unit
  such as 1 + X) fall back to solve_fraction_system.

* One fraction-free Gauss-Jordan elimination (Bareiss) over Z[x] behind
  bareiss_rank, solve_fraction_system and fraction_kernel: polynomial
  matrices in, reduced fractions (PolyFraction) out.  Entries stay
  polynomial because every intermediate entry is a minor of the input,
  so each division by the previous pivot is exact.  Each entry update
  piv*row[j] - row[col]*pivot_row[j] is one poly_dot followed by
  divide_exact, which divides term by term when the previous pivot is a
  single term (most pivots are constants).  The result is d
  times the reduced row echelon form, d the last pivot, and each output
  entry becomes one reduced fraction over d.  solve_fraction_system is
  solve_in_S's fallback and the fraction-field reference the tests hold
  solve_over_S to; fraction_kernel is read only by the tests and by the
  benchmark's tracer.

* PolyFraction: an element of the fraction field Q(x1, ..., xn), always
  kept reduced (numerator and denominator coprime, denominator with
  positive leading coefficient).  A fraction lies in the local ring S
  exactly when its reduced denominator is a unit of S, i.e. has odd
  constant coefficient.  It is an output type only: it carries no
  arithmetic.

* GF(2) linear systems with rows packed into Python integers, used by
  the bounded colon search.
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


def solve_over_S(
    columns: Sequence[Sequence[Poly]],
    targets: Sequence[Sequence[Poly]],
) -> List[Optional[List[Poly]]]:
    """Solve sum_j x_j * columns[j] = t with every x_j in S, for each t.

    The columns (one or more) must be in echelon form: each column's
    pivot is its last nonzero coordinate, no two columns share a pivot
    coordinate, and every pivot is a constant +-2^k; otherwise
    SpanNotFreeError names the offending column, even when the columns
    are independent (solve_in_S then falls back to the fraction field).
    In echelon form the columns are independent, so the solution over
    the fraction field is unique, and back-substitution from the last
    coordinate finds it: at a pivot coordinate the residual r gives
    x_j = r / pivot, in S exactly when 2^k divides every coefficient of
    r; at any other coordinate the residual must vanish.  Returns, per target, its polynomial coefficients, or None
    when the target is not an S-combination of the columns.
    """
    ncols = len(columns)
    nrows = len(columns[0])
    if any(len(vec) != nrows for vec in (*columns, *targets)):
        raise DimensionMismatchError("column length differs from target")
    # pivot coordinate -> (column, pivot)
    pivots = {}
    for j, col in enumerate(columns):
        i = next((i for i in reversed(range(nrows)) if not col[i].is_zero()), None)
        if i is None:
            raise SpanNotFreeError(f"column {j} is zero")
        if i in pivots:
            raise SpanNotFreeError(
                f"columns {pivots[i][0]} and {j} share pivot coordinate {i}"
            )
        piv = col[i]
        size = abs(piv.constant_coeff())
        if not piv.is_constant() or size & (size - 1):
            raise SpanNotFreeError(f"pivot {piv} of column {j} is not +-2^k")
        pivots[i] = (j, piv)
    ring = columns[0][0].ring
    one = ring.one()
    negated = [[-c for c in col] for col in columns]

    def back_substitute(t: Sequence[Poly]) -> Optional[List[Poly]]:
        sol: List[Poly] = [one] * ncols  # each entry is set at its pivot
        solved: List[int] = []
        for i in reversed(range(nrows)):
            residual = poly_dot(
                ring, ((t[i], one), *((sol[j], negated[j][i]) for j in solved))
            )
            if i not in pivots:
                if not residual.is_zero():
                    return None
                continue
            j, piv = pivots[i]
            try:
                sol[j] = divide_exact(residual, piv)
            except NotDivisibleError:
                return None
            solved.append(j)
        return sol

    return [back_substitute(t) for t in targets]


def solve_in_S(
    columns: Sequence[Sequence[Poly]],
    targets: Sequence[Sequence[Poly]],
) -> List[Optional[List[Union[Poly, PolyFraction]]]]:
    """Coefficients in S of each target over independent columns, or None.

    Raises SpanNotFreeError when the columns are linearly dependent over
    the fraction field; otherwise each target has at most one solution,
    and it is returned when every entry lies in S.  Columns in the
    echelon form of solve_over_S are solved there, with polynomial
    coefficients.  Any other basis goes to solve_fraction_system: for
    instance CaseC_CM's {1, u, tau, rho}, where rho ends in the same
    coordinate as u, or where rho's pivot is a unit such as 1 + X.  An
    entry is then returned as a Poly when it is one and as its reduced
    PolyFraction, whose denominator is a unit of S, when it is not.
    """
    try:
        return solve_over_S(columns, targets)
    except SpanNotFreeError:
        pass
    return [
        None
        if sol is None or not all(fr.is_in_S() for fr in sol)
        else [fr.num if fr.is_polynomial() else fr for fr in sol]
        for sol in solve_fraction_system(columns, targets, require_unique=True)
    ]


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
        term = rows[0][j] * poly_det(minor)
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

