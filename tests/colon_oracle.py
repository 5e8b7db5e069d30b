"""The colon oracle: a brute-force bounded search for colon duals.

bounded_colon_search finds all elements x = p / 2^k with deg p <= D and
x * J inside A by GF(2) linear algebra (one system for k = 1, a
two-stage lift for k = 2) on exact k_mul products reduced mod 2: it
solves for the whole dual, where in_colon tests one element.  The
membership tests below check a search result against the closures the
package constructs: A + S*eta for the dual of P, A + S*tau + S*rho for
the dual of I.
"""

from typing import Dict, List, Tuple

from poly_terms import sorted_terms

from cmwitness.algebra import IdealGens, KElement, a_membership, k_mul
from cmwitness.errors import BoundTooLargeError
from cmwitness.linalg import f2_nullspace
from cmwitness.poly import (
    BaseRing,
    NotDivisibleError,
    Poly,
    f2_divide_exact,
    half,
    reduce_mod_2k,
)


_MAX_UNKNOWNS = 3000


def _monomials_up_to(ring: BaseRing, degree: int):
    """All exponent tuples of total degree <= degree, ascending grlex."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            rec(prefix + [d], remaining - 1, budget - d)

    rec([], ring.nvars, degree)
    out.sort(key=lambda e: (sum(e), e))
    return out


def _mul_matrix_mod2(g: KElement) -> List[List[Poly]]:
    """4x4 matrix of the mod-2 coordinates of basis_c * g (g in A), read
    off the exact products."""
    alg = g.algebra
    basis = [alg.one(), alg.root_f(), alg.root_g(), alg.root_fg()]
    return [[reduce_mod_2k(c, 1) for c in k_mul(b, g).coords] for b in basis]


def bounded_colon_search(
    ideal: IdealGens, denom_bound: int, degree_bound: int
) -> List[KElement]:
    """Brute-force dual: all x = p/2^k, deg p <= D, with x*ideal in A.

    Returns [1] followed by a basis of the space of genuinely fractional
    solutions; the S-span of the returned list within the degree bound
    is the full solution set (solutions with smaller denominators are
    included since the linear systems are nested).  k = 1 is a single
    GF(2) nullspace computation; k = 2 lifts the mod-2 solutions and
    solves the mod-4 correction layer, which is again GF(2)-linear in
    the lift multipliers and the correction coefficients.
    """
    if denom_bound not in (1, 2):
        raise BoundTooLargeError("denominator exponent bound must be 1 or 2")
    if degree_bound > 8:
        raise BoundTooLargeError("degree bound above 8 is not supported")
    alg = ideal.algebra
    monos = _monomials_up_to(alg.ring, degree_bound)
    nmono = len(monos)
    nunk = 4 * nmono
    if nunk > _MAX_UNKNOWNS:
        raise BoundTooLargeError(f"{nunk} unknowns exceed the resource guard")

    mats = [_mul_matrix_mod2(g) for g in ideal.gens]

    def stage_rows(rows: Dict[Tuple[int, int, Tuple[int, ...]], int], offset: int):
        """Equation rows of p * g = 0 mod 2 over the p-coefficients.

        XORs them into ``rows`` (keyed by generator, coordinate and
        monomial) and returns its bitmasks in key order; unknown (c, m)
        sits at bit offset + c*nmono + (index of m in monos).
        """
        for gi, mat in enumerate(mats):
            for c in range(4):
                for d in range(4):
                    entry = mat[c][d]
                    if entry.is_zero():
                        continue
                    for mi, m in enumerate(monos):
                        bit = offset + c * nmono + mi
                        for mm, _ in sorted_terms(entry):
                            key = (gi, d, tuple(x + y for x, y in zip(m, mm)))
                            rows[key] = rows.get(key, 0) ^ (1 << bit)
        return [rows[k] for k in sorted(rows)]

    def mask_to_coords(mask: int, offset: int) -> Tuple[Poly, ...]:
        coords = []
        for c in range(4):
            terms = {}
            for mi, m in enumerate(monos):
                if (mask >> (offset + c * nmono + mi)) & 1:
                    terms[m] = 1
            coords.append(Poly(alg.ring, terms))
        return tuple(coords)

    eq1 = stage_rows({}, 0)
    basis1 = f2_nullspace(eq1, nunk)
    if denom_bound == 1:
        out = [alg.one()]
        for mask in basis1:
            out.append(alg.element(mask_to_coords(mask, 0), 1))
        return out

    # Denominator 4: p = sum_i eps_i * b_i + 2q with the b_i the lifted
    # mod-2 solutions.  Then p*g = 2*(sum eps_i r_i + q*g) + 4*(...) with
    # r_i = (b_i * g)/2, so the mod-4 condition is the GF(2) system
    # sum eps_i r_i + q*g = 0 on the (eps, q) unknowns.
    lifts = [alg.element(mask_to_coords(mask, 0)) for mask in basis1]
    neps = len(lifts)
    rows2: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
    for gi, g in enumerate(ideal.gens):
        for bi, b in enumerate(lifts):
            prod = k_mul(b, g)
            assert prod.denom_exp == 0
            for d in range(4):
                r = reduce_mod_2k(half(prod.coords[d]), 1)
                for mm, _ in sorted_terms(r):
                    key = (gi, d, mm)
                    rows2[key] = rows2.get(key, 0) ^ (1 << bi)
    # The q-part has the stage-1 structure, shifted past the eps bits.
    eq2 = stage_rows(rows2, neps)
    basis2 = f2_nullspace(eq2, neps + nunk)
    out = [alg.one()]
    for mask in basis2:
        pcoords = [alg.ring.zero()] * 4
        for bi, b in enumerate(lifts):
            if (mask >> bi) & 1:
                pcoords = [p + c for p, c in zip(pcoords, b.coords)]
        qcoords = mask_to_coords(mask, neps)
        pcoords = [p + q.scale(2) for p, q in zip(pcoords, qcoords)]
        x = alg.element(pcoords, 2)
        if not x.is_zero():
            out.append(x)
    return out


def _bvec(x):
    """Mod-2 coordinate vector of 2x on the basis 1, w, u, wu (0/1 Polys)."""
    doubled = x + x
    assert doubled.denom_exp == 0
    return [reduce_mod_2k(c, 1) for c in doubled.coords]


def in_A_plus_S_eta(x, eta):
    """Exact membership in A + S*eta for a half-integral element.

    2*eta has wu-coordinate 1, so the wu-coordinate of 2x mod 2 pins
    down the eta-multiplier; the remainder must then land in A.
    """
    if x.denom_exp == 0:
        return True
    s_bar = _bvec(x)[3]
    return a_membership(x - eta.scale_poly(s_bar))


def in_A_plus_S_tau_rho(x, alg, shape, tau, rho):
    """Exact membership in A + S*tau + S*rho for a half-integral element.

    On the mod-2 coordinate vectors, 2*tau contributes (h1h2, h2, h1, 1)
    and 2*rho contributes (e*h1 + c*h2, e, c, 0), so the wu-coordinate
    forces the tau-multiplier and the w/u-coordinates force the
    rho-multiplier by exact division; the remainder must land in A.
    """
    if x.denom_exp == 0:
        return True
    B = _bvec(x)
    s_bar = B[3]
    # Integer sums and products of residues, reduced mod 2 again.
    r_w = reduce_mod_2k(B[1] + s_bar * alg.h2(), 1)
    r_u = reduce_mod_2k(B[2] + s_bar * alg.h1(), 1)
    if r_w.is_zero() and r_u.is_zero():
        t_bar = alg.ring.zero()
    elif not shape.e.is_zero() and not r_w.is_zero():
        try:
            t_bar = f2_divide_exact(r_w, shape.e)
        except NotDivisibleError:
            return False
    elif not shape.c.is_zero() and not r_u.is_zero():
        try:
            t_bar = f2_divide_exact(r_u, shape.c)
        except NotDivisibleError:
            return False
    else:
        return False
    remainder = x - tau.scale_poly(s_bar) - rho.scale_poly(t_bar)
    return a_membership(remainder)
