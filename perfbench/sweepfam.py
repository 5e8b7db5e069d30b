"""The sweep family of the cmwitness benchmark.

One template over Z[X, Y] with four parameters of eight consecutive
values each (8^4 = 4096 combinations, the sweep limit).  The ranges and
constants are fixed, so every seed sweeps the same 4096 pairs at the
same cost; the seed only shuffles each parameter's values, which
changes the order in which ``cmd_sweep`` visits the pairs and writes
the rows.  Each range holds four even and four odd values, so about
half the rows are OutsideScope (p odd) and the rest spread over
CaseA_both, CaseA_one, CaseB and CaseC_NonCM_grade3.  Every range also
holds 0, and q = r = 0 turns g into (1+2s)*Y^2, so 64 rows are
rejected_squarefree_g.

The probe family takes the values -3..0 of every parameter (256 rows,
the same mix for every seed), shuffled the same way.

The default seed's family and its CSV are checked in under ``data/``.
Every row of every seed's sweep, probe included, is checked against the
committed row for its combination.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

DEFAULT_SEED = 1
# (name, lowest value); each parameter takes eight consecutive values.
RANGES = (("p", -5), ("q", -6), ("r", -3), ("s", -6))
VALUES_PER_PARAM = 8
PROBE_VALUES = (-3, -2, -1, 0)
F_TEMPLATE = "X^2+p*X*Y+2*q*X^2+4*r*Y+4*(-3)"
G_TEMPLATE = "Y^2+2*s*Y^2+4*q*X+2*r*X*Y+4*(-3)*r"


def generate(seed: int, probe: bool = False) -> Dict[str, object]:
    """The family spec (JSON-ready) in the row order chosen by ``seed``, or its probe."""
    rng = random.Random(seed)
    parameters = []
    for name, lo in RANGES:
        values = list(PROBE_VALUES) if probe else list(range(lo, lo + VALUES_PER_PARAM))
        rng.shuffle(values)
        parameters.append({"name": name, "values": values})
    return {
        "variables": ["X", "Y"],
        "parameters": parameters,
        "f": F_TEMPLATE,
        "g": G_TEMPLATE,
    }


def combinations(spec: Dict[str, object]) -> List[Tuple[int, ...]]:
    """Parameter combinations in the order ``cmd_sweep`` writes rows."""
    return list(itertools.product(*[p["values"] for p in spec["parameters"]]))


def family_job(poly, spec: Dict[str, object], combo: Tuple[int, ...]) -> Dict[str, object]:
    """The classify job for one combination, substituted as ``cmd_sweep`` does.

    ``poly`` is the package's ``cmwitness.poly`` module.
    """
    ring = poly.BaseRing(tuple(spec["variables"]))
    names = tuple(p["name"] for p in spec["parameters"])
    template_ring = poly.BaseRing(ring.variables + names)
    assignment = dict(zip(names, combo))
    job: Dict[str, object] = {"variables": list(spec["variables"])}
    for key in ("f", "g"):
        template = poly.parse_poly(spec[key], template_ring)
        job[key] = poly.format_poly(poly.substitute_ints(template, assignment, ring))
    return job
