"""Presentations specialised from generic ones equal the per-job build.

build_R reads every presentation from classifier.generic_presentation,
decided once per process, and specialises it with poly.compose.  The
CaseA and CaseB reference here is a construction on the job itself:
the generators built from the job's witnesses, their products
(generator_products), the span closure (span_closure_check) and the
recorded quadratics, tau^2 = k1*k2 from _root_quadratics, each checked
against the generator's square.  The CaseC reference is
_verified_presentation run on the job itself, which builds the
generic presentations too.  The jobs are the first pairs of each tag
that the benchmark's case generator (perfbench/casegen.py, loaded by
path) yields for a seed no other test uses, and four CaseC_CM pairs
over (X, Y) whose unit cofactor is not the constant c = 1.
"""

from collections import Counter

from test_residue_guard import load_casegen

import pytest

from cmwitness.algebra import generator_products, k_mul, make_algebra, span_closure_check
from cmwitness.classifier import (
    CASE_A_BOTH,
    CASE_A_ONE,
    CASE_B,
    CASE_C_CM,
    CASE_C_NONCM_GRADE2,
    CASE_C_NONCM_GRADE3,
    _root_quadratics,
    _verified_presentation,
    build_R,
    classify,
    hyper_closure_gen,
    product_closure_gen,
)
from cmwitness.poly import BaseRing, parse_poly
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


CASE_C_TAGS = (CASE_C_CM, CASE_C_NONCM_GRADE3, CASE_C_NONCM_GRADE2)
RING2 = BaseRing(("X", "Y"))
# CaseC_CM pairs over (X, Y): the unit cofactor c = Y + 1; e the unit
# (read through w <-> u); the unit ideal with c = 1; and with e = 1.
CM_PAIRS = [
    ("X^2*(1+Y)^2+2*(1+Y)^2+4", "X^2*Y^2+2*Y^2+4"),
    ("X^2*Y^2+2*Y^2+4", "X^2+2"),
    ("1+2*X", "Y^2+2*X*Y^2+4*X"),
    ("Y^2+2*X*Y^2+4*X", "1+2*X"),
]


def case_c_reference(ring, f, g, case):
    """_verified_presentation on the job; a CaseC_CM job whose unit
    cofactor is e is built with f and g exchanged, then w and u swap
    back."""
    alg = make_algebra(ring, f, g)
    if case != CASE_C_CM or alg.q_shape.c.is_unit():
        return _verified_presentation(alg, case)[0], False
    pres = _verified_presentation(make_algebra(ring, g, f), case)[0]

    def back(x):
        return alg.element([x.coords[i] for i in (0, 2, 1, 3)], x.denom_exp)

    pres.generators = [back(x) for x in pres.generators]
    pres.quadratics = [(i, back(c1), back(c0)) for i, c1, c0 in pres.quadratics]
    return pres, True


def assert_same_presentation(ring, f, g, case):
    alg = make_algebra(ring, f, g)
    assert classify(alg) == case
    pres = build_R(alg, case)
    ref, swapped = case_c_reference(ring, f, g, case)
    assert pres.sfree == ref.sfree == (case == CASE_C_CM)
    assert pres.generators == ref.generators
    assert pres.mult_table == ref.mult_table
    assert pres.relation == ref.relation
    assert pres.quadratics == ref.quadratics
    assert (pres.ideal_I is None) == (ref.ideal_I is None)
    if ref.ideal_I is not None:
        assert pres.ideal_I.gens == ref.ideal_I.gens
    assert pres.R_in_J_star is ref.R_in_J_star is True
    return swapped


def test_specialised_case_c_presentations_equal_the_per_job_build():
    casegen = load_casegen()
    counts = Counter()
    for job, (tag,) in casegen.generate(SEED):
        if tag in CASE_C_TAGS and counts[tag] < PER_TAG:
            ring, f, g, _ = parse_job(job)
            assert_same_presentation(ring, f, g, tag)
            counts[tag] += 1
        if len(counts) == 3 and min(counts.values()) == PER_TAG:
            break
    assert counts == {tag: PER_TAG for tag in CASE_C_TAGS}


@pytest.mark.parametrize("ftext,gtext", CM_PAIRS)
def test_specialised_case_c_cm_with_a_unit_cofactor(ftext, gtext):
    f, g = parse_poly(ftext, RING2), parse_poly(gtext, RING2)
    swapped = assert_same_presentation(RING2, f, g, CASE_C_CM)
    assert swapped == (not make_algebra(RING2, f, g).q_shape.c.is_unit())
