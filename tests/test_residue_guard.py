"""Reports built on residue tests equal reports built on exact products.

in_colon and product_in_S2wedge4 decide their claims modulo 2^k.  Each
input is rendered twice, once as built and once with both predicates
replaced by the exact-product references of test_algebra and
test_predicates, and the two renderings must be the same bytes.  The
inputs are the large grade-2 jobs big_n (n = 1..3), whose f has a few
hundred terms but few odd ones, and the first non-CM pairs of the
benchmark's case generator (perfbench/casegen.py, loaded by path
because perfbench is not a package).  A digest also pins the bytes of
the generator's first reports, which reach case tags no golden job
does (CaseA_oneHypersurfaceNonNormal).
"""

import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

from test_algebra import exact_in_colon
from test_predicates import exact_product_in_S2wedge4

from cmwitness import algebra, predicates
from cmwitness.errors import RejectedInputError
from cmwitness.report import assemble_report, parse_job, render_json

CASEGEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "casegen.py"
# SHA-256 over the render_json texts of the first 200 casegen.generate(7)
# jobs, in order; a rejected job contributes its exception class name.
CASEGEN_7_DIGEST = "6b3f233e9af6546c00bc13ce2ec6d0b9750cc41e38bbc3c9c0de1463ed3183a8"


def load_casegen():
    spec = importlib.util.spec_from_file_location("perfbench_casegen", CASEGEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def big_job(n):
    inner = "(1+X+Y+V)^%d" % n
    return {
        "variables": ["X", "Y", "V"],
        "f": "(V*X*%s)^2-2*X^2+4+4*Y" % inner,
        "g": "(V*Y*%s)^2-2*Y^2+4+4*X" % inner,
    }


def rebind(monkeypatch, original, replacement):
    """Replace ``original`` in every cmwitness module that binds it."""
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "cmwitness":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def render(job):
    return render_json(assemble_report(*parse_job(job)))


def test_residue_tests_render_the_exact_reports(monkeypatch):
    casegen = load_casegen()
    non_cm = (casegen.C_GRADE2, casegen.C_GRADE3)
    pairs = (job for job, allowed in casegen.generate(7) if allowed[0] in non_cm)
    jobs = [big_job(n) for n in (1, 2, 3)] + list(itertools.islice(pairs, 20))
    built = [render(job) for job in jobs]

    calls = []

    def counted(reference):
        def wrapper(*args):
            calls.append(reference)
            return reference(*args)

        return wrapper

    rebind(monkeypatch, algebra.in_colon, counted(exact_in_colon))
    rebind(
        monkeypatch,
        predicates.product_in_S2wedge4,
        counted(exact_product_in_S2wedge4),
    )
    for job, text in zip(jobs, built):
        before = len(calls)
        assert render(job) == text, job
        # Every non-CM report runs both claims through the references.
        assert {exact_in_colon, exact_product_in_S2wedge4} <= set(calls[before:])


def test_casegen_reports_keep_their_bytes():
    casegen = load_casegen()
    digest = hashlib.sha256()
    outcomes = set()
    for job, allowed in itertools.islice(casegen.generate(7), 200):
        outcomes.add(allowed[0])
        try:
            text = render(job)
        except RejectedInputError as exc:
            text = type(exc).__name__
        digest.update(text.encode())
    assert {casegen.A_ONE, casegen.A_BOTH, casegen.CASE_B, casegen.C_CM} <= outcomes
    assert digest.hexdigest() == CASEGEN_7_DIGEST
