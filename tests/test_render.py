"""render_json writes the bytes of json.dumps(indent=2, ensure_ascii=True).

The writer emits the indented text itself and escapes strings with
json's own encoder.  It is compared with json.dumps on the six golden
reports, on the first casegen.generate(7) reports, on a job over a
non-ASCII variable name and on synthetic values; a value json would
print some other way must raise TypeError instead.
"""

import itertools
import json

import pytest
from test_residue_guard import load_casegen

from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES
from cmwitness.errors import RejectedInputError
from cmwitness.report import assemble_report, parse_job, render_json


def dumps(value):
    return json.dumps(value, indent=2, ensure_ascii=True) + "\n"


def assert_same_bytes(value):
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_reports(name):
    job = json.loads((GOLDEN_DIR / (name + ".job.json")).read_text(encoding="utf-8"))
    report = assemble_report(*parse_job(job))
    assert_same_bytes(report)
    assert render_json(report) == (GOLDEN_DIR / (name + ".report.json")).read_text(
        encoding="utf-8"
    )


def test_casegen_reports():
    rendered = 0
    for job, _tags in itertools.islice(load_casegen().generate(7), 200):
        try:
            report = assemble_report(*parse_job(job))
        except RejectedInputError:
            continue
        assert_same_bytes(report)
        rendered += 1
    assert rendered >= 150


def test_non_ascii_variable_is_escaped():
    job = {"variables": ["é", "Y"], "f": "é^2+2", "g": "Y^2+2"}
    text = render_json(assemble_report(*parse_job(job)))
    assert text == dumps(json.loads(text))
    assert '"\\u00e9"' in text and "é" not in text
    assert text.isascii()


def test_synthetic_values():
    strings = ['"', "\\", "\n", "\x00", "\x7f", "\U0001d53d", 'a"b\\c\nd\x00e\x7f\U0001d53d']
    values = [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, []], "d": {"e": {"f": []}}},
        [[[]], [{}], {"x": [[], {}]}],
        True,
        False,
        None,
        0,
        -1,
        2**80,
        -(2**80),
        [True, False, None, 0, -1, 2**80],
        {"": "", "k": [True, {"n": None}]},
        strings,
        {s: s for s in strings},
        "",
    ]
    for value in values:
        assert_same_bytes(value)
    assert render_json({"s": "\U0001d53d"}) == '{\n  "s": "\\ud835\\udd3d"\n}\n'


@pytest.mark.parametrize(
    "value",
    [1.5, 0.0, (1, 2), (), {1, 2}, frozenset(), {1: "a"}, {None: 1}, {True: 1}, {("a",): 1}],
    ids=repr,
)
def test_values_json_prints_otherwise_raise(value):
    for wrapped in (value, [value], {"key": value}, {"outer": [1, {"inner": value}]}):
        with pytest.raises(TypeError):
            render_json(wrapped)
