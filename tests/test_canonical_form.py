"""Every golden report builds only canonical polynomials.

Poly._from_canonical takes a kernel's term dict as it is, without the
filtering Poly(ring, terms) does.  Wrapped here by a check (no zero
coefficient, only plain ints), it must stay silent on all six golden
jobs, and the reports must keep their bytes; a kernel that hands it a
non-canonical dict fails this test.
"""

import json

import pytest

from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES
from cmwitness.poly import Poly
from cmwitness.report import assemble_report, parse_job, render_json


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_reports_build_canonical_polynomials(monkeypatch, name):
    from_canonical = Poly._from_canonical.__func__
    calls = []

    def checked(cls, ring, terms):
        bad = [(e, c) for e, c in terms.items() if type(c) is not int or c == 0]
        assert not bad, "non-canonical terms %r" % bad
        calls.append(len(terms))
        return from_canonical(cls, ring, terms)

    monkeypatch.setattr(Poly, "_from_canonical", classmethod(checked))
    job = json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    report = render_json(assemble_report(*parse_job(job)))
    assert report == (GOLDEN_DIR / (name + ".report.json")).read_text(encoding="utf-8")
    assert calls
