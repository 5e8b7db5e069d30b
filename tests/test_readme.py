"""The README's examples run as written.

The ``python`` block of "Library layout" imports its names from the
package root, so it also guards the root's re-exports.  The job of
"classify" and the family of "sweep" run through cli.main.  The
certificate table lists exactly the certificate's check keys, and says
where each is decided.
"""

import csv
import json
import re
from pathlib import Path

from cmwitness.classifier import CASE_B, OUTSIDE_SCOPE, GenericClaims
from cmwitness.cli import GOLDEN_DIR, main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(section, language):
    """The first ``language`` block after the heading ``section``."""
    text = README.read_text(encoding="utf-8")
    start = re.search(r"^#+ %s$" % re.escape(section), text, re.M).end()
    block = re.search(r"^```%s\n(.*?)^```$" % language, text[start:], re.M | re.S)
    return block.group(1)


def test_library_layout_example():
    namespace = {}
    exec(fenced_block("Library layout", "python"), namespace)
    assert namespace["case"] == CASE_B
    rep = namespace["rep"]
    assert rep.sfree and len(rep.generators) == 4


def test_classify_example(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(fenced_block("classify", "json"), encoding="utf-8")
    assert main(["classify", "--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == OUTSIDE_SCOPE


def test_sweep_example(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(fenced_block("sweep", "json"), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", str(family), "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["s", "t", "case", "cm", "q_shape"]
    assert len(rows) == 15


def test_certificate_table():
    text = README.read_text(encoding="utf-8")
    start = text.index("| check | where | identity |\n")
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", text[start:].split("\n\n")[0], re.M)
    report = json.loads(
        (GOLDEN_DIR / "example_4_7_family1.report.json").read_text(encoding="utf-8")
    )
    keys = [key for key, _ in rows]
    assert sorted(keys) == list(report["certificate"]["checks"])
    generic = {key for key, where in rows if where == "A_gen, once"}
    assert generic and generic <= set(GenericClaims._fields)
