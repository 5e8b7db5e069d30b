"""The colon oracle against the package's closures on generated pairs.

Acceptance 8 checks the bounded dual search on four fixed examples;
here it runs on the first pairs of each non-CM tag that the benchmark's
case generator (perfbench/casegen.py, loaded by path) yields for one
seed.  Every element the search finds in the dual of P must lie in
A + S*eta, and every element it finds in the dual of I in
A + S*tau + S*rho, with eta, tau and rho built by the classifier.  In
CaseB, where P conducts R, every element the search finds in the dual
of P, with denominators up to 4, must lie in the S-span of the
generators of R that the report prints.  In CaseC_CM, where the report
claims J^* = R for J = (2, wu - h1h2), so must every element the search
finds in the dual of J.
"""

import itertools

from colon_oracle import (
    bounded_colon_search,
    in_A_plus_S_eta,
    in_A_plus_S_tau_rho,
)
from test_residue_guard import load_casegen

from cmwitness.algebra import express_in_span, make_algebra
from cmwitness.classifier import (
    CASE_B,
    ideal_I,
    ideal_J,
    ideal_P,
    mixed_syzygy_gen,
    prime_dual_gen,
    product_closure_gen,
)
from cmwitness.poly import BaseRing, Poly, parse_poly
from cmwitness.report import assemble_report, parse_job

PAIRS_PER_TAG = 10
# The grade-2 family's P-dual has no fractional element below degree 4.
P_DEGREE, I_DEGREE, J_DEGREE = 4, 3, 3
# A CaseC_CM pair whose unit cofactor c = Y + 1 is no constant, so the
# span of R needs the denominator Y + 1.
CM_NONCONSTANT_C = ("X", "Y"), "X^2*(1+Y)^2+2*(1+Y)^2+4", "X^2*Y^2+2*Y^2+4"


def fractional(found):
    return [x for x in found if x.denom_exp]


def test_search_stays_in_the_constructed_closures():
    casegen = load_casegen()
    for tag in (casegen.C_GRADE2, casegen.C_GRADE3):
        jobs = (job for job, allowed in casegen.generate(7) if allowed[0] == tag)
        for job in itertools.islice(jobs, PAIRS_PER_TAG):
            ring, f, g, _ = parse_job(job)
            alg = make_algebra(ring, f, g)
            found_p = bounded_colon_search(ideal_P(alg), 1, P_DEGREE)
            assert fractional(found_p), job
            eta = prime_dual_gen(alg)
            assert all(in_A_plus_S_eta(x, eta) for x in found_p), job
            shape = alg.q_shape
            tau = product_closure_gen(alg)
            rho = mixed_syzygy_gen(alg, shape.c, shape.e)
            found_i = bounded_colon_search(ideal_I(alg), 1, I_DEGREE)
            assert fractional(found_i), job
            assert all(
                in_A_plus_S_tau_rho(x, alg, shape, tau, rho) for x in found_i
            ), job


def polynomial(sol):
    return sol is not None and all(isinstance(c, Poly) for c in sol)


def in_S(sol):
    return sol is not None and all(isinstance(c, Poly) or c.is_in_S() for c in sol)


def printed_generators(alg, ring, f, g, options):
    printed = assemble_report(ring, f, g, options)["ring_presentation"]["generators"]
    return [
        alg.element([parse_poly(c, ring) for c in x["coords"]], x["denom_exp"])
        for x in printed
    ]


def test_case_b_dual_of_P_stays_in_the_span_of_R():
    # Over A's basis (1, w, u, wu), the negative control, a fractional
    # element has no polynomial coefficients.
    casegen = load_casegen()
    jobs = (job for job, allowed in casegen.generate(7) if allowed[0] == CASE_B)
    for job in itertools.islice(jobs, PAIRS_PER_TAG):
        ring, f, g, options = parse_job(job)
        alg = make_algebra(ring, f, g)
        gens = printed_generators(alg, ring, f, g, options)
        found = fractional(bounded_colon_search(ideal_P(alg), 2, P_DEGREE))
        assert found, job
        assert all(polynomial(sol) for sol in express_in_span(found, gens)), job
        basis = [alg.one(), alg.root_f(), alg.root_g(), alg.root_fg()]
        assert not any(polynomial(sol) for sol in express_in_span(found, basis)), job


def test_case_c_cm_dual_of_J_stays_in_the_span_of_R():
    # Each coefficient over R's printed generators is a polynomial or a
    # fraction in S; over A's basis, the negative control, none is.
    casegen = load_casegen()
    cm_jobs = (job for job, allowed in casegen.generate(7) if allowed[0] == casegen.C_CM)
    jobs = [parse_job(job) for job in itertools.islice(cm_jobs, PAIRS_PER_TAG)]
    names, ftext, gtext = CM_NONCONSTANT_C
    ring = BaseRing(names)
    jobs.append((ring, parse_poly(ftext, ring), parse_poly(gtext, ring), None))
    for ring, f, g, options in jobs:
        alg = make_algebra(ring, f, g)
        gens = printed_generators(alg, ring, f, g, options)
        found = fractional(bounded_colon_search(ideal_J(alg), 2, J_DEGREE))
        assert found, (f, g)
        assert all(in_S(sol) for sol in express_in_span(found, gens)), (f, g)
        basis = [alg.one(), alg.root_f(), alg.root_g(), alg.root_fg()]
        assert not any(in_S(sol) for sol in express_in_span(found, basis)), (f, g)
