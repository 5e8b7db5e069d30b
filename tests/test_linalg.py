"""Fraction-free linear algebra: Bareiss, fraction fields, GF(2) bitmasks."""

import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from poly_terms import sorted_terms

from cmwitness.linalg import (
    DimensionMismatchError,
    PolyFraction,
    SpanNotFreeError,
    _fraction_free_rref,
    bareiss_rank,
    f2_nullspace,
    f2_row_reduce,
    fraction_kernel,
    poly_det,
    solve_fraction_system,
    solve_in_S,
)
from cmwitness.poly import BaseRing, Poly, divide_exact

RING = BaseRing(("X", "Y"))
X, Y = RING.gens()
F = PolyFraction
SYMS = sympy.symbols("X Y")


def rand_poly(rng, max_terms=3, max_deg=2, max_coeff=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in RING.variables)
        c = rng.randrange(-max_coeff, max_coeff + 1)
        terms[e] = terms.get(e, 0) + c
    return Poly(RING, {e: c for e, c in terms.items() if c})


def test_fraction_reduction():
    a = F(X * X - Y * Y, X + Y)
    assert a.num == X - Y and a.den == RING.one()
    assert a.is_polynomial()
    b = F(X.scale(2), RING.const(4))
    assert b.num == X and b.den == RING.const(2)
    assert not b.is_in_S()
    # An odd constant denominator is a unit of the local ring S.
    assert F(X, RING.const(3)).is_in_S()
    # Sign lives in the numerator.
    c = F(X, -Y)
    assert c.num == -X and c.den == Y
    with pytest.raises(ZeroDivisionError):
        F(X, RING.zero())
    # Equality compares two reduced fractions only.
    assert F(X) == F(X) and F(X) != X and F(RING.one()) != 1


def test_bareiss_rank_integers_vs_sympy():
    rng = random.Random(404)
    for _ in range(150):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)]
        poly_rows = [[RING.const(v) for v in row] for row in rows]
        assert bareiss_rank(poly_rows) == sympy.Matrix(rows).rank()


def test_bareiss_rank_polynomials():
    assert bareiss_rank([[X, Y], [Y, X]]) == 2
    assert bareiss_rank([[X, Y], [X * X, X * Y]]) == 1
    assert bareiss_rank([[RING.zero(), RING.zero()]]) == 0
    assert bareiss_rank([[X + Y]]) == 1
    # Classic Bareiss stress: a matrix whose naive elimination needs
    # fractions but whose rank is clear.
    assert bareiss_rank([[RING.const(2), X], [X, RING.const(2)]]) == 2


def to_sympy(p):
    sx, sy = SYMS
    out = sympy.Integer(0)
    for (i, j), c in sorted_terms(p):
        out += c * sx**i * sy**j
    return out


def test_fraction_free_rref_vs_sympy():
    # The shared elimination ends with the first rank rows equal to
    # d * RREF (d the last pivot) and the rest zero.  Rank-deficient
    # matrices and zero leading columns exercise the exact divisions
    # that follow a skipped pivot column.
    rng = random.Random(405)
    deficient = 0
    for trial in range(240):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rand_poly(rng) for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:
            # A combination of two rows makes the matrix rank deficient.
            a, b = rand_poly(rng, max_deg=1), rand_poly(rng, max_deg=1)
            rows[-1] = [a * p + b * q for p, q in zip(rows[0], rows[1 % (n - 1)])]
        if trial % 4 == 0:
            for row in rows:
                row[0] = RING.zero()
        # sympy's exact RREF over the fraction field Q(X, Y).
        dm = DomainMatrix.from_Matrix(
            sympy.Matrix([[to_sympy(e) for e in row] for row in rows])
        ).to_field()
        expected, expected_pivots = dm.rref()
        field = dm.domain
        work = [list(r) for r in rows]
        pivots, d = _fraction_free_rref(work)
        assert tuple(pivots) == expected_pivots
        deficient += len(pivots) < min(n, m)
        for r in range(n):
            for j in range(m):
                if r >= len(pivots):
                    assert work[r][j].is_zero()
                else:
                    entry = field.from_sympy(to_sympy(work[r][j]))
                    assert entry / field.from_sympy(to_sympy(d)) == expected[r, j].element
    assert deficient >= 60


def textbook_bareiss(rows):
    """The Bareiss update written with one Poly operation at a time."""
    work = [list(r) for r in rows]
    pivots, prev, top = [], None, 0
    for col in range(len(work[0])):
        sel = next((r for r in range(top, len(work)) if not work[r][col].is_zero()), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        piv = work[top][col]
        for i, row in enumerate(work):
            if i != top:
                factor = row[col]
                for j in range(len(row)):
                    num = piv * row[j] - factor * work[top][j]
                    row[j] = num if prev is None else divide_exact(num, prev)
        pivots.append(col)
        prev = piv
        top += 1
        if top == len(work):
            break
    return work, pivots, prev


def test_fraction_free_rref_matches_the_textbook_update():
    # Every intermediate entry is the same exact minor, so the fused
    # update must leave the very same matrix.  Constant pivots take the
    # term-by-term division, polynomial pivots the general one.
    rng = random.Random(1205)
    for trial in range(200):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        if trial % 2:
            rows = [[RING.const(rng.randrange(-9, 10)) for _ in range(m)] for _ in range(n)]
        else:
            rows = [[rand_poly(rng) for _ in range(m)] for _ in range(n)]
        expected, expected_pivots, expected_d = textbook_bareiss(rows)
        work = [list(r) for r in rows]
        pivots, d = _fraction_free_rref(work)
        assert pivots == expected_pivots and d == expected_d
        assert work == expected


def test_fraction_free_rref_rejects_an_entry_from_another_ring():
    other = BaseRing(("X", "Y", "Z"))
    with pytest.raises(ValueError):
        _fraction_free_rref([[X, Y], [Y, other.var("Z")]])


def combination(coeffs, cols):
    """sum_j coeffs[j] * cols[j] for fraction coeffs, cleared.

    Returns the combination times D, the product of the denominators,
    as a list of polynomials, together with D.
    """
    den = RING.one()
    for x in coeffs:
        den = den * x.den
    out = []
    for i in range(len(cols[0])):
        acc = RING.zero()
        for x, col in zip(coeffs, cols):
            acc = acc + divide_exact(x.num * den, x.den) * col[i]
        out.append(acc)
    return out, den


def test_solve_fraction_system_unique():
    cols = [[RING.one(), RING.zero()], [X, RING.one()]]
    target = [Y + X.scale(3), RING.const(3)]
    [sol] = solve_fraction_system(cols, [target], require_unique=True)
    assert sol is not None
    assert sol[0] == F(Y) and sol[1] == F(RING.const(3))


def test_solve_fraction_system_inconsistent():
    cols = [[X], [X.scale(2)]]
    assert solve_fraction_system(cols, [[X]]) != [None]
    cols2 = [[RING.zero()]]
    assert solve_fraction_system(cols2, [[Y]]) == [None]


def test_solve_fraction_system_dependent():
    cols = [[X, Y], [X.scale(2), Y.scale(2)]]
    with pytest.raises(SpanNotFreeError):
        solve_fraction_system(cols, [[X, Y]], require_unique=True)
    # Without the uniqueness demand a solution is still produced.
    [sol] = solve_fraction_system(cols, [[X, Y]])
    assert sol is not None


def random_triangular_basis(rng):
    """1-4 columns, triangular up to a random permutation of coordinates.

    In the permuted order each column's pivot is its last nonzero
    coordinate, no two columns share one, and the entries before it are
    random.  Pivots are +-2^k * v with v a unit of S (1, 3, 1 + X,
    1 + X + Y) or an odd non-unit (2 + X, X).  Returns the columns and
    the product of the pivots' powers of 2.
    """
    nrows = rng.randrange(1, 5)
    perm = rng.sample(range(nrows), nrows)
    cols = []
    twos = 1
    for p in rng.sample(range(nrows), rng.randrange(1, nrows + 1)):
        odd = rng.choice((RING.one(), RING.const(3), X + 1, X + Y + 1, X + 2, X))
        two = 2 ** rng.randrange(3)
        twos *= two
        col = [rand_poly(rng) for _ in range(p)]
        col.append(odd.scale(rng.choice((1, -1)) * two))
        col += [RING.zero()] * (nrows - p - 1)
        cols.append([col[perm[i]] for i in range(nrows)])
    return cols, twos


def test_solve_in_S_matches_the_fraction_field_reference():
    # Where the unique solution over Q(X, Y) lies in S the
    # back-substitution returns it, as polynomials when the entries are
    # polynomials and as reduced fractions otherwise; where it does not,
    # or there is no solution, it returns None.  The last target clears
    # the pivots' powers of 2 (Cramer's rule), so on square bases its
    # solution has only the pivots' odd parts in its denominators.
    rng = random.Random(417)
    outcomes = {"polynomial": 0, "fraction in S": 0, "outside S": 0, "no solution": 0}
    for _ in range(300):
        cols, twos = random_triangular_basis(rng)
        nrows, ncols = len(cols[0]), len(cols)

        def combination(coeffs):
            return [
                sum((c * col[i] for c, col in zip(coeffs, cols)), RING.zero())
                for i in range(nrows)
            ]

        in_span = combination([rand_poly(rng) for _ in range(ncols)])
        targets = [
            in_span,
            [rand_poly(rng) for _ in range(nrows)],
            [t + rand_poly(rng).scale(2) for t in in_span],
            [rand_poly(rng).scale(twos) for _ in range(nrows)],
        ]
        got = solve_in_S(cols, targets)
        assert got[0] is not None
        for t, sol in zip(targets, got):
            [ref] = solve_fraction_system(cols, [t], require_unique=True)
            if ref is None:
                outcomes["no solution"] += 1
                assert sol is None
            elif all(fr.is_in_S() for fr in ref):
                polynomial = all(fr.is_polynomial() for fr in ref)
                outcomes["polynomial" if polynomial else "fraction in S"] += 1
                assert sol == [fr.num if fr.is_polynomial() else fr for fr in ref]
            else:
                outcomes["outside S"] += 1
                assert sol is None
    assert min(outcomes.values()) >= 50, outcomes


def test_solve_in_S_non_pivot_residual():
    # Coordinate 1 carries no pivot: a target nonzero there has no
    # solution, one that vanishes there is solved.
    cols = [[RING.one(), RING.zero(), RING.zero()], [X, RING.zero(), RING.const(2)]]
    assert solve_in_S(cols, [[RING.zero(), Y, RING.zero()]]) == [None]
    target = [X + Y, RING.zero(), RING.const(2)]
    assert solve_in_S(cols, [target]) == [[Y, RING.one()]]
    # 1/2 is a solution over the fraction field but not in S.
    assert solve_in_S([[RING.const(2)]], [[RING.one()]]) == [None]


def test_solve_in_S_unit_pivots_and_bases_outside_echelon_form():
    one, zero = RING.one(), RING.zero()
    # Echelon form with power-of-2 pivots: polynomial coefficients.
    assert solve_in_S([[one, zero], [X, RING.const(2)]], [[X, RING.const(4)]]) == [
        [-X, RING.const(2)]
    ]
    # A unit pivot 1 + X: the coefficient 1/(1 + X) lies in S and is
    # returned as a fraction, the other one as a polynomial.
    unit = X + one
    [sol] = solve_in_S([[one, zero], [Y, unit]], [[zero, one]])
    assert sol[1] == PolyFraction(one, unit) and sol[1].is_in_S()
    assert sol[0] == PolyFraction(-Y, unit)
    [sol] = solve_in_S([[one, zero], [Y, unit]], [[Y, unit]])
    assert sol == [zero, one]
    # A pivot 3 + 2X is a unit too; a pivot 2 + X is not, and neither
    # is 2 * (1 + X), whose quotient keeps a 2 in its denominator.
    assert solve_in_S([[X.scale(2) + RING.const(3)]], [[X]]) == [
        [PolyFraction(X, X.scale(2) + RING.const(3))]
    ]
    assert solve_in_S([[X + RING.const(2)]], [[one]]) == [None]
    assert solve_in_S([[unit.scale(2)]], [[one], [unit.scale(2)]]) == [None, [one]]
    # Independent columns sharing their last coordinate: the second
    # column peels there once the first is pivoted at coordinate 0.
    cols = [[one, RING.const(2)], [zero, one]]
    assert solve_in_S(cols, [[X, Y]]) == [[X, Y - X.scale(2)]]
    # Dependent columns never peel.
    with pytest.raises(SpanNotFreeError, match="not triangular"):
        solve_in_S([[one, X], [X, X * X]], [[X, Y]])
    with pytest.raises(SpanNotFreeError, match="not triangular"):
        solve_in_S([[one, zero], [zero] * 2], [[X, Y]])


def test_solve_in_S_refuses_independent_columns_that_are_not_triangular():
    # Every coordinate of [[1, 1], [1, -1]] is nonzero in both columns,
    # so no pivot order exists although the determinant is -2.
    one = RING.one()
    with pytest.raises(SpanNotFreeError, match="not triangular"):
        solve_in_S([[one, one], [one, -one]], [[X, Y]])


def test_solve_in_S_with_no_columns():
    # The empty span holds only the zero vector, with no coefficients.
    zero = RING.zero()
    assert solve_in_S([], [[zero, zero], [X, zero]]) == [[], None]


def test_solve_random_roundtrip():
    rng = random.Random(406)
    solved = 0
    while solved < 100:
        ncols = rng.randrange(1, 4)
        nrows = rng.randrange(ncols, 5)
        cols = [[rand_poly(rng) for _ in range(nrows)] for _ in range(ncols)]
        coeffs = [rand_poly(rng) for _ in range(ncols)]
        target = [
            sum((coeffs[j] * cols[j][i] for j in range(ncols)), RING.zero())
            for i in range(nrows)
        ]
        [sol] = solve_fraction_system(cols, [target])
        assert sol is not None
        # sum_j sol[j] * cols[j] == target, cross-multiplied.
        acc, den = combination(sol, cols)
        assert acc == [t * den for t in target]
        solved += 1


def test_solve_many_targets_vs_single_and_sympy():
    # One elimination for many right-hand sides must give what one
    # solve per target gives, and sympy's exact RREF of [A | t] over
    # Q(X, Y).  Each system carries an inconsistent target between two
    # consistent ones; with fewer generators than rows it leaves a
    # nonzero entry below the rank, where a pivot in the target columns
    # would shift the rows every later target is read from.
    rng = random.Random(410)
    inconsistent = short = 0
    for _ in range(60):
        nrows = rng.randrange(2, 5)
        ncols = rng.randrange(1, nrows + 1)
        short += ncols < nrows

        def rand_entry():
            return rand_poly(rng, max_deg=1)

        cols = [[rand_entry() for _ in range(nrows)] for _ in range(ncols)]

        def in_span():
            coeffs = [rand_entry() for _ in range(ncols)]
            return [
                sum((c * col[i] for c, col in zip(coeffs, cols)), RING.zero())
                for i in range(nrows)
            ]

        targets = [in_span(), [rand_entry() for _ in range(nrows)], in_span()]
        many = solve_fraction_system(cols, targets)
        assert many == [solve_fraction_system(cols, [t])[0] for t in targets]
        assert many[0] is not None and many[2] is not None
        inconsistent += many[1] is None
        for t, sol in zip(targets, many):
            aug = sympy.Matrix([[to_sympy(e) for e in row] for row in zip(*cols, t)])
            dm = DomainMatrix.from_Matrix(aug).to_field()
            expected, pivots = dm.rref()
            if ncols in pivots:
                assert sol is None
                continue
            field = dm.domain
            want = [field.zero] * ncols
            for r, c in enumerate(pivots):
                want[c] = expected[r, ncols].element
            got = [
                field.from_sympy(to_sympy(x.num)) / field.from_sympy(to_sympy(x.den))
                for x in sol
            ]
            assert got == want
    assert short >= 30 and inconsistent >= 30


def test_poly_det():
    assert poly_det([[X]]) == X
    assert poly_det([[X, Y], [Y, X]]) == X * X - Y * Y
    assert poly_det([[X, Y], [X, Y]]).is_zero()
    m3 = [
        [RING.one(), X, Y],
        [RING.zero(), RING.one(), X],
        [RING.zero(), RING.zero(), RING.one()],
    ]
    assert poly_det(m3) == RING.one()
    with pytest.raises(DimensionMismatchError):
        poly_det([[X, Y]])
    with pytest.raises(DimensionMismatchError):
        poly_det([])


def test_poly_det_vs_sympy():
    rng = random.Random(407)
    for _ in range(80):
        n = rng.randrange(1, 4)
        rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        ours = to_sympy(poly_det(rows))
        theirs = sympy.Matrix([[to_sympy(e) for e in row] for row in rows]).det()
        assert sympy.expand(ours - theirs) == 0


def test_fraction_kernel():
    # Rank-1 matrix [[X, Y]] has kernel spanned by (-Y/X, 1) ~ (Y, -X).
    rows = [[X, Y]]
    basis = fraction_kernel(rows)
    assert len(basis) == 1
    v = basis[0]
    [acc], _ = combination(v, [[X], [Y]])
    assert acc.is_zero()
    # Full-rank square matrix: trivial kernel.
    assert fraction_kernel([[X, Y], [Y, X]]) == []
    # Zero matrix: full kernel.
    z = RING.zero()
    assert len(fraction_kernel([[z, z]])) == 2


def test_fraction_kernel_random():
    rng = random.Random(408)
    for _ in range(60):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rand_poly(rng) for _ in range(m)] for _ in range(n)]
        basis = fraction_kernel(rows)
        assert len(basis) == m - bareiss_rank(rows)
        for v in basis:
            for row in rows:
                [acc], _ = combination(v, [[e] for e in row])
                assert acc.is_zero()


def brute_force_solutions(eq_rows, nunknowns):
    sols = []
    for assign in range(1 << nunknowns):
        if all(bin(row & assign).count("1") % 2 == 0 for row in eq_rows):
            sols.append(assign)
    return sols


def test_f2_suite_random():
    # 400 random GF(2) systems: row-reduce/rank/nullspace agree
    # with brute-force enumeration over all assignments.
    rng = random.Random(409)
    for _ in range(400):
        nunknowns = rng.randrange(1, 7)
        neq = rng.randrange(0, 5)
        eq_rows = [rng.randrange(1 << nunknowns) for _ in range(neq)]
        sols = brute_force_solutions(eq_rows, nunknowns)
        null = f2_nullspace(eq_rows, nunknowns)
        assert len(sols) == 1 << len(null)
        assert nunknowns - len(f2_row_reduce(eq_rows)) == len(null)
        for v in null:
            assert v in sols


def test_f2_span_helpers():
    assert f2_row_reduce([0b110, 0b011]) == f2_row_reduce([0b101, 0b011])
    assert f2_row_reduce([0b110]) != f2_row_reduce([0b011])
    assert len(f2_row_reduce([0b110, 0b011, 0b101])) == 2
