"""Re-verify a report's identity claims from its bytes, with sympy alone.

This checker imports nothing from cmwitness: it reads the JSON text of
a report, parses every polynomial with sympy and redoes, in sympy's own
sparse polynomial ring over ZZ, the claims that are identities once the
printed witnesses are given.  A = S[w, u] with w^2 = f, u^2 = g is free
on (1, w, u, wu), and an element prints as its four coordinates over
that basis and a power-of-2 denominator.  The checks:

* ``witness_f``, ``witness_g``: f = h1^2 + 2a and g = h2^2 + 2b, from
  the input and the witnesses block (when the witnesses are printed).
* ``witness_f4``, ``witness_g4``: f = h1^2 + 4a' and g = h2^2 + 4b'
  (when a' or b' is printed).
* ``case``: the case tag re-derived from the printed witnesses and
  q_shape.  No witness of f or g: OutsideScope, with no q_shape.  Else
  the q_shape must fit h1 and h2: h1 = z*c and h2 = z*e mod 2, c and e
  coprime over GF(2) unless h1 = h2 = 0 mod 2, and the shape tag from
  the units (UnitIdeal: h1 or h2 odd; TwoGenerated: c or e odd, or
  h1 = h2 = 0 mod 2; Grade3CI_NotTwoGen: z odd; Grade2Pd3 otherwise).
  Then a and b both even gives CaseA_both, one even CaseA_one,
  a*h2^2 + b*h1^2 odd CaseB, and otherwise the shape tag picks the
  CaseC subcase.
* ``quadratics``: each printed quadratic x^2 = c1*x + c0 of a generator
  x of R, every term brought to the largest power-of-2 denominator.
* ``mult_table``: each entry (i, j) of a free R's table, the sum over k
  of t_k*g_k equals g_i*g_j, with the powers of 2 and the denominators
  of the fraction entries (printed "(n)/(d)") cleared.
* ``relation``: the single relation (r_1, ..., r_5) of a non-free R is
  (e*h1 + c*h2, -e, -c, 0, 2) for the printed q_shape and witnesses, and
  the sum of r_i*x_i over the printed module generators x_i is zero over
  (1, w, u, wu), every term brought to the largest power-of-2
  denominator.
* ``P_free``: on the certificate's P and I, the basis
  B = {P's three generators, I's second generator} lies in A, its last
  element lies in P (its image n0 + n1*h1 + n2*h2 + n3*h1*h2 in
  A/P = S/2S is even), the 4 x 4 coordinate determinant is +-2, and
  w*b and u*b have polynomial coordinates over B for each b in B: with
  det = +-2 those coordinates are adj(B)*v / det, so every coefficient
  of adj(B)*v must be even.  Then the S-span of B is an ideal of A
  between P's generators and P, so it is P, free of rank 4.
* ``H_equals_I``: on the certificate's H and I, H and I share the
  generator 2 (the scalar 2 is the first generator of each), H's third
  generator is I's second, and H's second generator minus I's second
  and third has even coordinates, so it lies in 2A.  Each ideal then
  contains the other's generators.
* ``eta_conducts``: eta = (w + h1)(u + h2)/2, rebuilt from the printed
  h1 and h2 as the coordinates (h1h2, h2, h1, 1) over 2, times each of
  P's generators lies in A: each numerator has even coordinates.
* ``M_contains_eta``: eta * i * p lies in A for each generator i of I
  and p of P, so eta * I * P lies in A.
* ``conductor``: the printed conductor (P in CaseB, I in CaseC grade
  3) is the ideal its name defines, P = (2, w - h1, u - h2) or
  I = (2, wu - h1h2, h2w - h1u), from the printed witnesses, and it
  conducts R: every printed generator n/2^k of R times every
  generator of the ideal has numerator coordinates divisible by 2^k.
* ``j_datum``: in CaseC the printed J is (2, wu - h1h2), the report
  claims J^* = R as verified, and J conducts R as above.
* ``resolution_of_I``, ``resolution_of_S_mod_Q``, ``R_presentation``:
  for each printed complex, the differentials compose to zero; at the
  ranks the free ranks force (r_n = dim F_n, r_i = dim F_i - r_{i+1}),
  each grade-witness element is nonzero and an exact multiple of one
  printed r_i-minor of d_i; each witness has the shape of a regular
  sequence of length at least i: (m) with m nonzero, (2^j, w) with
  j >= 1 and w odd, (2, c, e) with c odd and gcd(c, e) = 1 over GF(2);
  and ``pd_bound`` and ``depth`` are the length (one less for an
  augmented complex) and the number of variables + 1 minus it.

check_report returns {check name: verdict} for the checks that apply
to the report: ``case`` for every report, the witness checks for
every report that prints witnesses, ``quadratics`` for every report
with a ring presentation, ``mult_table`` when R is free, ``relation``
when it is not, ``conductor`` when the report gives one, ``j_datum``
when it prints J, and the rest for the non-CM reports.
"""

import json
from functools import lru_cache
from itertools import combinations, permutations

import sympy
from sympy import GF, ZZ
from sympy.polys.rings import ring


@lru_cache(maxsize=None)
def polynomial_ring(variables):
    """sympy's sparse ring ZZ[variables] and its symbols by name."""
    poly_ring = ring(",".join(variables), ZZ)[0]
    return poly_ring, {str(s): s for s in poly_ring.symbols}


@lru_cache(maxsize=None)
def parse(variables, text):
    """The polynomial that the report text denotes, in ZZ[variables]."""
    poly_ring, symbols = polynomial_ring(variables)
    return poly_ring.from_expr(sympy.sympify(text.replace("^", "**"), locals=symbols))


def is_even(p):
    return all(c % 2 == 0 for c in p.values())


def det(rows):
    """Leibniz determinant of a small square matrix."""
    n = len(rows)
    total = rows[0][0].ring.zero
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = rows[0][0].ring.one * sign
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        total += term
    return total


def adjugate(rows):
    """adj(M) with adj(M)[i][j] = (-1)^(i+j) * det(M without row j, col i)."""
    n = len(rows)
    return [
        [
            (-1) ** (i + j)
            * det([[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


class Report:
    """A parsed report: its ring and a parser for its polynomial texts."""

    def __init__(self, text):
        self.data = json.loads(text)
        self.variables = tuple(self.data["input"]["variables"])
        self.ring = polynomial_ring(self.variables)[0]

    def poly(self, text):
        return parse(self.variables, text)

    def element(self, printed):
        """(coordinates over (1, w, u, wu), denominator exponent)."""
        return [self.poly(c) for c in printed["coords"]], printed["denom_exp"]

    def integral(self, printed):
        """The coordinates of an element printed with denominator 1."""
        coords, denom_exp = self.element(printed)
        if denom_exp != 0:
            raise ValueError("element is not in A")
        return coords


def check_witnesses(rep):
    inp, wit = rep.data["input"], rep.data["witnesses"]
    out = {}
    for name, p, h, rest, scale in (
        ("witness_f", "f", "h1", "a", 2),
        ("witness_g", "g", "h2", "b", 2),
        ("witness_f4", "f", "h1", "a_prime", 4),
        ("witness_g4", "g", "h2", "b_prime", 4),
    ):
        if wit[h] is not None and wit[rest] is not None:
            hh = rep.poly(wit[h])
            out[name] = rep.poly(inp[p]) == hh * hh + scale * rep.poly(wit[rest])
    return out


CASE_C_TAGS = {
    "UnitIdeal": "CaseC_CM_twoGenerated",
    "TwoGenerated": "CaseC_CM_twoGenerated",
    "Grade3CI_NotTwoGen": "CaseC_NonCM_grade3",
    "Grade2Pd3": "CaseC_NonCM_grade2",
}


def check_case(rep):
    wit, shape, case = rep.data["witnesses"], rep.data["q_shape"], rep.data["case"]
    if wit["h1"] is None or wit["h2"] is None:
        return case == "OutsideScope_not_S2" and shape is None
    h1, a, h2, b = (rep.poly(wit[k]) for k in ("h1", "a", "h2", "b"))
    z, c, e = (rep.poly(shape[k]) for k in ("z", "c", "e"))
    gf2 = gf2_ring(rep.variables)
    r1, r2, rc, re = (gf2.from_dict(dict(p.items())) for p in (h1, h2, c, e))
    rz = gf2.from_dict(dict(z.items()))
    if (r1, r2) != (rz * rc, rz * re):
        return False

    def unit(p):
        return p.coeff(1) % 2 == 1

    if not (r1 or r2):
        tag = "TwoGenerated"
    elif rc.gcd(re) != 1:
        return False
    elif unit(h1) or unit(h2):
        tag = "UnitIdeal"
    elif unit(c) or unit(e):
        tag = "TwoGenerated"
    else:
        tag = "Grade3CI_NotTwoGen" if unit(z) else "Grade2Pd3"
    if tag != shape["tag"]:
        return False
    if is_even(a) and is_even(b):
        derived = "CaseA_bothHypersurfacesNonNormal"
    elif is_even(a) or is_even(b):
        derived = "CaseA_oneHypersurfaceNonNormal"
    elif not is_even(a * h2 * h2 + b * h1 * h1):
        derived = "CaseB_productNotS2w4"
    else:
        derived = CASE_C_TAGS[tag]
    return derived == case


def multiply(x, y, f, g):
    """The coordinates of x * y over (1, w, u, wu), from w^2 = f and u^2 = g."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 + f * x1 * y1 + g * x2 * y2 + f * g * x3 * y3,
        x0 * y1 + x1 * y0 + g * (x2 * y3 + x3 * y2),
        x0 * y2 + x2 * y0 + f * (x1 * y3 + x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    ]


def scaled(coords, denom_exp, top):
    """2^top times the element coords / 2^denom_exp, top >= denom_exp."""
    return [c * 2 ** (top - denom_exp) for c in coords]


def check_quadratics(rep, pres, f, g):
    gens = [rep.element(x) for x in pres["generators"]]
    for quadratic in pres["quadratics"]:
        x, k = gens[quadratic["index"]]
        c1, k1 = rep.element(quadratic["c1"])
        c0, k0 = rep.element(quadratic["c0"])
        top = max(2 * k, k1 + k, k0)
        square = scaled(multiply(x, x, f, g), 2 * k, top)
        linear = scaled(multiply(c1, x, f, g), k1 + k, top)
        if square != [a + b for a, b in zip(linear, scaled(c0, k0, top))]:
            return False
    return True


def table_entry(rep, text):
    """(numerator, denominator) of a printed table coefficient."""
    if "/" not in text:
        return rep.poly(text), rep.ring.one
    num, den = text.split("/")
    return rep.poly(num), rep.poly(den)


def check_mult_table(rep, pres, f, g):
    gens = [rep.element(x) for x in pres["generators"]]
    top = 2 * max(k for _, k in gens)
    for key, printed in pres["mult_table"].items():
        i, j = (int(n) for n in key.split(","))
        coeffs = [table_entry(rep, text) for text in printed]
        den = rep.ring.one
        for _, d in coeffs:
            den *= d
        combination = [rep.ring.zero] * 4
        for (n, d), (coords, k) in zip(coeffs, gens):
            t = n * den.exquo(d)
            combination = [a + t * c for a, c in zip(combination, scaled(coords, k, top))]
        (xi, ki), (xj, kj) = gens[i], gens[j]
        product = scaled(multiply(xi, xj, f, g), ki + kj, top)
        if combination != [den * c for c in product]:
            return False
    return True


def check_relation(rep, presentation):
    wit, shape = rep.data["witnesses"], rep.data["q_shape"]
    h1, h2, c, e = (rep.poly(text) for text in (wit["h1"], wit["h2"], shape["c"], shape["e"]))
    relation = [rep.poly(text) for text in presentation["relation"]]
    if relation != [e * h1 + c * h2, -e, -c, rep.ring.zero, 2 * rep.ring.one]:
        return False
    gens = [rep.element(x) for x in presentation["module_generators"]]
    top = max(k for _, k in gens)
    total = [rep.ring.zero] * 4
    for r, (coords, k) in zip(relation, gens):
        total = [t + r * x for t, x in zip(total, scaled(coords, k, top))]
    return len(gens) == len(relation) and not any(total)


def check_eta(rep, f, g, h1, h2):
    """(eta_conducts, M_contains_eta) on the certificate's P and I."""
    ideals = rep.data["certificate"]["ideals"]
    try:
        p = [rep.integral(x) for x in ideals["P"]]
        i = [rep.integral(x) for x in ideals["I"]]
    except ValueError:
        return False, False
    eta = [h1 * h2, h2, h1, rep.ring.one]  # the numerator of eta over 2

    def in_a(x):
        return all(is_even(c) for c in x)

    conducts = all(in_a(multiply(eta, q, f, g)) for q in p)
    eta_i = [multiply(eta, j, f, g) for j in i]
    contains = all(in_a(multiply(x, q, f, g)) for x in eta_i for q in p)
    return conducts, contains


def conducts(rep, ideal, f, g):
    """Every printed generator n/2^k of R times every printed generator
    of the ideal (in A) has numerator coordinates divisible by 2^k."""
    gens = [rep.integral(x) for x in ideal["gens"]]
    for x in rep.data["ring_presentation"]["generators"]:
        coords, k = rep.element(x)
        for q in gens:
            if not all(c % 2**k == 0 for p in multiply(coords, q, f, g) for c in p.values()):
                return False
    return True


def defined_ideal(rep, name, h1, h2):
    """The coordinates of the generators of P, I or J from h1 and h2."""
    zero, one = rep.ring.zero, rep.ring.one
    gens = {
        "P": [[-h1, one, zero, zero], [-h2, zero, one, zero]],
        "I": [[-h1 * h2, zero, zero, one], [zero, h2, -h1, zero]],
        "J": [[-h1 * h2, zero, zero, one]],
    }[name]
    return [[2 * one, zero, zero, zero]] + gens


def check_conducting_ideal(rep, ideal, f, g, h1, h2):
    try:
        printed = [rep.integral(x) for x in ideal["gens"]]
    except ValueError:
        return False
    return printed == defined_ideal(rep, ideal["name"], h1, h2) and conducts(rep, ideal, f, g)


def check_p_free(rep, f, g, h1, h2):
    ideals = rep.data["certificate"]["ideals"]
    try:
        basis = [rep.integral(x) for x in ideals["P"]] + [rep.integral(ideals["I"][1])]
    except ValueError:
        return False
    n0, n1, n2, n3 = basis[3]
    if not is_even(n0 + n1 * h1 + n2 * h2 + n3 * h1 * h2):
        return False
    matrix = [[b[i] for b in basis] for i in range(4)]  # column j is basis[j]
    if det(matrix) not in (2 * rep.ring.one, -2 * rep.ring.one):
        return False
    adj = adjugate(matrix)
    for n0, n1, n2, n3 in basis:
        # w*b and u*b over (1, w, u, wu), from w^2 = f and u^2 = g
        for v in ((f * n1, n0, f * n3, n2), (g * n2, g * n3, n0, n1)):
            if not all(is_even(sum((a * x for a, x in zip(row, v)), rep.ring.zero))
                       for row in adj):
                return False
    return True


def check_h_equals_i(rep):
    ideals = rep.data["certificate"]["ideals"]
    try:
        h = [rep.integral(x) for x in ideals["H"]]
        i = [rep.integral(x) for x in ideals["I"]]
    except ValueError:
        return False
    zero, two = rep.ring.zero, 2 * rep.ring.one
    difference = [a - b - c for a, b, c in zip(h[1], i[1], i[2])]
    return (
        h[0] == i[0] == [two, zero, zero, zero]
        and h[2] == i[1]
        and all(is_even(c) for c in difference)
    )


def composes_to_zero(left, right):
    return all(
        not sum((row[k] * right[k][j] for k in range(len(right))), row[0].ring.zero)
        for row in left
        for j in range(len(right[0]))
    )


def minors(mat, size):
    """Every size x size minor of a matrix."""
    return [
        det([[mat[r][c] for c in cols] for r in rows])
        for rows in combinations(range(len(mat)), size)
        for cols in combinations(range(len(mat[0])), size)
    ]


@lru_cache(maxsize=None)
def gf2_ring(variables):
    return ring(",".join(variables), GF(2))[0]


def is_regular_shape(rep, witness):
    """(m) with m nonzero, (2^j, w) with j >= 1 and w odd, or (2, c, e)
    with c odd and gcd(c, e) = 1 over GF(2)."""
    if len(witness) == 1:
        return bool(witness[0])
    if len(witness) == 2:
        power, w = witness
        j = power.coeff(1)
        return power == j * rep.ring.one and j > 1 and j & (j - 1) == 0 and not is_even(w)
    if len(witness) != 3 or witness[0] != 2 * rep.ring.one:
        return False
    c, e = (gf2_ring(rep.variables).from_dict(dict(p.items())) for p in witness[1:])
    return bool(c) and c.gcd(e) == 1


def check_complex(rep, name):
    """The checks of one printed complex (see the module docstring)."""
    [res] = [r for r in rep.data["resolutions"] if r["name"] == name]
    mats = [[[rep.poly(x) for x in row] for row in m] for m in res["matrices"]]
    if not all(composes_to_zero(a, b) for a, b in zip(mats, mats[1:])):
        return False
    ranks = [len(mats[-1][0])]
    for mat in reversed(mats[:-1]):
        ranks.insert(0, len(mat[0]) - ranks[0])
    witnesses = [[rep.poly(w) for w in ws] for ws in res["grade_witnesses"]]
    if len(witnesses) != len(mats):
        return False
    for i, (mat, rank, witness) in enumerate(zip(mats, ranks, witnesses), start=1):
        listed = [m for m in minors(mat, rank) if m]
        if len(witness) < i or not is_regular_shape(rep, witness):
            return False
        if not all(w and any(not w.rem(m) for m in listed) for w in witness):
            return False
    pd_bound = len(mats) - (1 if res["augmented"] else 0)
    return (res["pd_bound"], res["depth"]) == (pd_bound, len(rep.variables) + 1 - pd_bound)


def check_report(text):
    """{check name: verdict} for every check that applies to the report."""
    rep = Report(text)
    out = check_witnesses(rep)
    out["case"] = check_case(rep)
    inp, wit = rep.data["input"], rep.data["witnesses"]
    f, g = rep.poly(inp["f"]), rep.poly(inp["g"])
    pres = rep.data["ring_presentation"]
    if pres is not None:
        out["quadratics"] = check_quadratics(rep, pres, f, g)
        if "mult_table" in pres:
            out["mult_table"] = check_mult_table(rep, pres, f, g)
        else:
            out["relation"] = check_relation(rep, pres["presentation"])
    cond = rep.data["conductor"]
    if cond is not None:
        h1, h2 = rep.poly(wit["h1"]), rep.poly(wit["h2"])
        if cond["available"]:
            out["conductor"] = check_conducting_ideal(rep, cond["ideal"], f, g, h1, h2)
        if "j_datum" in cond:
            j = cond["j_datum"]
            out["j_datum"] = j["verified_R_subset_J_star"] is True and check_conducting_ideal(
                rep, j["ideal"], f, g, h1, h2
            )
    if rep.data.get("certificate") is None:
        return out
    h1, h2 = rep.poly(wit["h1"]), rep.poly(wit["h2"])
    out["P_free"] = check_p_free(rep, f, g, h1, h2)
    out["eta_conducts"], out["M_contains_eta"] = check_eta(rep, f, g, h1, h2)
    out["H_equals_I"] = check_h_equals_i(rep)
    for name in ("resolution_of_I", "resolution_of_S_mod_Q", "R_presentation"):
        out[name] = check_complex(rep, name)
    return out
