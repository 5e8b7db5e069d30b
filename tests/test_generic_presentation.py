"""Presentations specialised from generic ones equal the per-job build.

build_R reads the CaseA and CaseB presentations from
classifier.generic_presentation, decided once per process, and
specialises them with poly.compose.  The reference here is the per-job
construction the package keeps for CaseC: the generators built from the
job's witnesses, their products (generator_products), the span closure
(span_closure_check) and the recorded quadratics, tau^2 = k1*k2 from
_root_quadratics, each checked against the generator's square.  The
jobs are the first pairs of each tag that the benchmark's case
generator (perfbench/casegen.py, loaded by path) yields for a seed no
other test uses.
"""

from collections import Counter

from test_residue_guard import load_casegen

from cmwitness.algebra import generator_products, k_mul, make_algebra, span_closure_check
from cmwitness.classifier import (
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_B,
    _root_quadratics,
    build_R,
    classify,
    hyper_closure_gen,
    product_closure_gen,
)
from cmwitness.report import parse_job

SEED = 43
PER_TAG = 50
PER_SIDE = 10  # CaseA_one jobs with the square mod 4 on each side


def reference(alg, case):
    """(generators, table, quadratics) of R built on the job itself."""
    one = alg.one()
    if case == CASE_B:
        gens = [one, alg.root_f(), alg.root_g(), product_closure_gen(alg)]
        quadratics = _root_quadratics(alg, [alg.f, alg.g])
    elif case == CASE_A_BOTH:
        w4s = (alg.w4f, alg.w4g)
        t12 = alg.root_product(alg.w4f.h, alg.w4g.h).half().half()
        gens = [one, hyper_closure_gen(alg, "f"), hyper_closure_gen(alg, "g"), t12]
        quadratics = [(i, alg.scalar(w4.h), alg.scalar(w4.a_prime)) for i, w4 in enumerate(w4s, 1)]
    else:
        side = "f" if alg.w4f is not None else "g"
        if side == "f":
            w4, other, square = alg.w4f, alg.root_g(), alg.g
        else:
            w4, other, square = alg.w4g, alg.root_f(), alg.f
        t = hyper_closure_gen(alg, side)
        gens = [one, other, t, (alg.root_fg() + other.scale_poly(w4.h)).half()]
        quadratics = [
            (1, alg.zero(), alg.scalar(square)),
            (2, alg.scalar(w4.h), alg.scalar(w4.a_prime)),
        ]
    products = generator_products(gens)
    for i, c1, c0 in quadratics:
        assert products[i, i] == k_mul(c1, gens[i]) + c0
    return gens, span_closure_check(gens, products), quadratics


def test_specialised_presentations_equal_the_per_job_build():
    casegen = load_casegen()
    counts, sides = Counter(), Counter()
    for job, (tag,) in casegen.generate(SEED):
        if tag not in (CASE_A_BOTH, CASE_A_ONE, CASE_B) or counts[tag] == PER_TAG:
            if len(counts) == 3 and min(counts.values()) == PER_TAG:
                break
            continue
        ring, f, g, _ = parse_job(job)
        alg = make_algebra(ring, f, g)
        assert classify(alg) == tag, job
        pres = build_R(alg, tag)
        gens, table, quadratics = reference(alg, tag)
        assert pres.generators == gens, job
        assert pres.mult_table == table, job
        assert pres.quadratics == quadratics, job
        counts[tag] += 1
        if tag == CASE_A_ONE:
            sides["f" if alg.w4f is not None else "g"] += 1
    assert counts == {CASE_A_BOTH: PER_TAG, CASE_A_ONE: PER_TAG, CASE_B: PER_TAG}
    assert min(sides["f"], sides["g"]) >= PER_SIDE, sides
