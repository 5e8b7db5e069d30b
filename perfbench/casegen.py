"""Case-targeted generation of fresh (f, g) pairs.

Each recipe builds a pair over the variables X, Y, V whose case tag is
fixed by construction, so the benchmark can check the tag a report
claims.  Every recipe but the broken one writes

    f = F + 4*k1*Y,    g = G + 4*k2*X

with F free of Y and of odd content, G free of X with an odd Y^2
coefficient, and k1, k2 nonzero.  Then f is linear in Y with a
constant coefficient, so it is irreducible; likewise g in X.  g has a
Y^2 term and f has none, so the two are not associate.  Squarefreeness,
condition A1 and the degree-four condition therefore hold for every
draw.  In scope, F = H1^2 + 2*A and G = H2^2 + 2*B, and only the
parities of A, B and the residues of H1, H2 decide the case (CaseA_one
swaps f and g at random):

* OutsideScope: F mod 2 has a monomial with an odd exponent.
* CaseA_both / CaseA_one: A (and B) even, so f (and g) lie in S^{2,4}.
* CaseB: A = B = 1 mod 2 and H1 != H2 mod 2, so a*h2^2 + b*h1^2 is odd.
* CaseC (ROADMAP direction 4): H1 = z*c, H2 = z*e, A = t*c^2 + 2*s1,
  B = t*e^2 + 2*s2 with t odd, so a*h2^2 + b*h1^2 is even.  Up to odd
  coefficients z = V, c = X and e = Y, which are coprime non-units
  mod 2.  c = 1 gives a two-generated Q (CM), z = 1 a grade-3 complete
  intersection, and z = V the grade-2 case.

The "broken" recipe violates one standing hypothesis on purpose
(squarefree, A1 or degree-four, in turn), so one pair in ten is an
expected rejection.  Shapes (term counts, degrees) are fixed per
recipe and only coefficients are drawn, so the cost of a cycle of
recipes varies little from seed to seed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

VARIABLES = ["X", "Y", "V"]

OUTSIDE = "OutsideScope_not_S2"
A_BOTH = "CaseA_bothHypersurfacesNonNormal"
A_ONE = "CaseA_oneHypersurfaceNonNormal"
CASE_B = "CaseB_productNotS2w4"
C_CM = "CaseC_CM_twoGenerated"
C_GRADE3 = "CaseC_NonCM_grade3"
C_GRADE2 = "CaseC_NonCM_grade2"

BROKEN_OUTCOMES = ("rejected_squarefree_f", "rejected_A1", "rejected_degree_four")

# One cycle of recipes; every generated job belongs to exactly one slot.
# Report times fall into clusters, cheapest first: rejections and
# OutsideScope; CaseA_one and CaseB; CaseA_both, grade 3 and grade 2;
# CaseC_CM.  The weights put the median in the middle of the grade-2
# cluster and the p90 inside the CaseC_CM cluster, where the draws of
# one seed can hardly move them.
CYCLE = (
    OUTSIDE,
    "broken",
    A_ONE,
    CASE_B,
    A_BOTH,
    C_GRADE3,
    C_GRADE3,
) + (C_GRADE2,) * 8 + (C_CM,) * 4 + ("broken",)


def _odd(rng: random.Random) -> int:
    return rng.choice((1, -1, 3, -3))


def _nonzero(rng: random.Random) -> int:
    return rng.choice((1, -1, 2, -2, 3, -3))


def _any(rng: random.Random) -> int:
    return rng.randint(-3, 3)


def _h_x(rng: random.Random) -> str:
    """A lift involving X (odd coefficient), free of Y."""
    return "(%d)*X" % _odd(rng)


def _h_y(rng: random.Random) -> str:
    """A lift involving Y (odd coefficient), free of X."""
    return "(%d)*Y" % _odd(rng)


def _free_of_y(rng: random.Random) -> str:
    return "(%d)*X*V+(%d)" % (_any(rng), _nonzero(rng))


def _free_of_x(rng: random.Random) -> str:
    return "(%d)*Y*V+(%d)" % (_any(rng), _nonzero(rng))


def _close(rng: random.Random, f_core: str, g_core: str) -> Tuple[str, str]:
    """Add the linear terms that make f irreducible in Y and g in X."""
    f = "%s+4*(%d)*Y" % (f_core, _nonzero(rng))
    g = "%s+4*(%d)*X" % (g_core, _nonzero(rng))
    return f, g


def _outside(rng):
    f_core = "(%d)*X*V^2+(%d)*V^2+2*(%s)" % (_odd(rng), _odd(rng), _free_of_y(rng))
    g_core = "(%s)^2+2*(%s)" % (_h_y(rng), _free_of_x(rng))
    return _close(rng, f_core, g_core)


def _a_both(rng):
    f_core = "(%s)^2+4*(%s)" % (_h_x(rng), _free_of_y(rng))
    g_core = "(%s)^2+4*(%s)" % (_h_y(rng), _free_of_x(rng))
    return _close(rng, f_core, g_core)


def _a_one(rng):
    f_core = "(%s)^2+4*(%s)" % (_h_x(rng), _free_of_y(rng))
    g_core = "(%s)^2+2*((%d)+2*(%s))" % (_h_y(rng), _odd(rng), _free_of_x(rng))
    f, g = _close(rng, f_core, g_core)
    return (g, f) if rng.random() < 0.5 else (f, g)


def _case_b(rng):
    f_core = "(%s)^2+2*((%d)+2*(%s))" % (_h_x(rng), _odd(rng), _free_of_y(rng))
    g_core = "(%s)^2+2*((%d)+2*(%s))" % (_h_y(rng), _odd(rng), _free_of_x(rng))
    return _close(rng, f_core, g_core)


def _case_c(rng, z_unit: bool, c_unit: bool):
    z = "1" if z_unit else "(%d)*V" % _odd(rng)
    c = "1" if c_unit else _h_x(rng)
    e = _h_y(rng)
    t = "(%d)" % _odd(rng)
    f_core = "(%s)^2*(%s)^2+2*(%s)*(%s)^2+4*(%s)" % (z, c, t, c, _free_of_y(rng))
    g_core = "(%s)^2*(%s)^2+2*(%s)*(%s)^2+4*(%s)" % (z, e, t, e, _free_of_x(rng))
    return _close(rng, f_core, g_core)


def _broken(rng, variant: int):
    if variant == 0:  # repeated factor: f = L^2 * M
        f = "(X+(%d)*V+(%d))^2*(Y+(%d))" % (_any(rng), _any(rng), _any(rng))
        g = "(%s)^2+2*(%s)" % (_h_y(rng), _free_of_x(rng))
    elif variant == 1:  # both in 2S: a shared height-one prime
        f = "2*(X+(%d)*V+(%d))" % (_any(rng), _any(rng))
        g = "2*(Y+(%d)*V+(%d))" % (_any(rng), _any(rng))
    else:  # f an odd square constant: f is a square in S
        f = str(rng.choice((1, 3, 5, 7)) ** 2)
        g = "Y+(%d)*V+(%d)" % (_any(rng), _any(rng))
    return f, g, BROKEN_OUTCOMES[variant]


def generate(seed: int) -> Iterator[Tuple[Dict[str, object], Tuple[str, ...]]]:
    """Endless stream of (job, allowed outcomes), one CYCLE slot at a time."""
    rng = random.Random(seed)
    builders = {
        OUTSIDE: _outside,
        A_BOTH: _a_both,
        A_ONE: _a_one,
        CASE_B: _case_b,
        C_CM: lambda r: _case_c(r, z_unit=False, c_unit=True),
        C_GRADE3: lambda r: _case_c(r, z_unit=True, c_unit=False),
        C_GRADE2: lambda r: _case_c(r, z_unit=False, c_unit=False),
    }
    n_broken = 0
    while True:
        for slot in CYCLE:
            if slot == "broken":
                f, g, outcome = _broken(rng, n_broken % 3)
                n_broken += 1
                allowed = (outcome,)
            else:
                f, g = builders[slot](rng)
                allowed = (slot,)
            yield {"variables": list(VARIABLES), "f": f, "g": g}, allowed

