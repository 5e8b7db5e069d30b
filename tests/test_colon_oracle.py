"""The colon oracle against the package's closures on generated pairs.

Acceptance 8 checks the bounded dual search on four fixed examples;
here it runs on the first pairs of each non-CM tag that the benchmark's
case generator (perfbench/casegen.py, loaded by path) yields for one
seed.  Every element the search finds in the dual of P must lie in
A + S*eta, and every element it finds in the dual of I in
A + S*tau + S*rho, with eta, tau and rho built by the classifier.
"""

import itertools

from colon_oracle import (
    bounded_colon_search,
    in_A_plus_S_eta,
    in_A_plus_S_tau_rho,
)
from test_residue_guard import load_casegen

from cmwitness.algebra import make_algebra
from cmwitness.classifier import (
    ideal_I,
    ideal_P,
    mixed_syzygy_gen,
    prime_dual_gen,
    product_closure_gen,
)
from cmwitness.report import parse_job

PAIRS_PER_TAG = 10
# The grade-2 family's P-dual has no fractional element below degree 4.
P_DEGREE, I_DEGREE = 4, 3


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
