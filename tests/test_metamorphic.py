"""Verdicts do not depend on how f and g are written.

An automorphism sigma of S that keeps the maximal ideal (2, X, Y, V)
carries R for (f, g) to the R for (sigma f, sigma g), and swapping f
and g swaps the roles of w and u.  So the case tag, the CM verdict, the
shape of Q and the exit class of a job must survive each transform
below (metamorphic relations, Chen et al. 1998).  Each is applied to
the job's text, every variable replaced by its parenthesised image.
The control X -> X + 1 moves the maximal ideal, so it is no
automorphism of S and must change some outcome: a comparison that
sees nothing fails.  The jobs are the first ones of each outcome that
the benchmark's case generator (perfbench/casegen.py, loaded by path)
yields for a seed no other test uses.
"""

import re

from test_case_targeted import jobs_by_outcome
from test_residue_guard import load_casegen

from cmwitness.errors import RejectedInputError
from cmwitness.report import assemble_report, parse_job

SEED = 29
JOBS_PER_OUTCOME = 50
VARIABLE = re.compile(r"[XYV]")


def substitute(images):
    """The transform of (f, g) that replaces each variable by its image."""

    def rewrite(text):
        return VARIABLE.sub(lambda m: "(%s)" % images.get(m.group(), m.group()), text)

    return lambda f, g: (rewrite(f), rewrite(g))


TRANSFORMS = {
    "X -> X+Y, Y -> Y+V": substitute({"X": "X+Y", "Y": "Y+V"}),
    "X -> X+2V": substitute({"X": "X+2*V"}),
    "X -> 3X": substitute({"X": "3*X"}),
    "X <-> V": substitute({"X": "V", "V": "X"}),
    "swap f and g": lambda f, g: (g, f),
}
CONTROL = substitute({"X": "X+1"})


def outcome(f, g):
    """(exit class, case tag, CM verdict, Q shape tag) of the job's report."""
    try:
        report = assemble_report(*parse_job({"variables": ["X", "Y", "V"], "f": f, "g": g}))
    except Exception as exc:
        return (2 if isinstance(exc, RejectedInputError) else 3,)
    shape = report["q_shape"]
    return 0, report["case"], report["cm"], shape and shape["tag"]


def test_automorphisms_and_the_swap_keep_every_outcome():
    moved = 0
    seen = set()
    by_outcome = jobs_by_outcome(load_casegen(), SEED, JOBS_PER_OUTCOME, JOBS_PER_OUTCOME)
    for jobs in by_outcome.values():
        for job, _ in jobs:
            f, g = job["f"], job["g"]
            before = outcome(f, g)
            seen.add(before[:2])
            for name, transform in TRANSFORMS.items():
                assert outcome(*transform(f, g)) == before, (name, job)
            moved += outcome(*CONTROL(f, g)) != before
    assert len(seen) == 8, seen
    assert moved > 0, "the control X -> X+1 changed no outcome"
