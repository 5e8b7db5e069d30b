"""CLI surface: exit codes, byte determinism, golden regression, sweep CSV."""

import importlib
import inspect
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cmwitness
from cmwitness import algebra, classifier, cli, report
from cmwitness.classifier import CASE_B, OUTSIDE_SCOPE
from cmwitness.cli import GOLDEN_DIR, GOLDEN_NAMES, main
from cmwitness.errors import CmWitnessError, InternalError, RejectedInputError
from cmwitness.poly import NotDivisibleError
from cmwitness.predicates import S2Witness


def write_job(tmp_path, name, payload):
    """Write ``payload`` as JSON, or verbatim when it is already text."""
    path = tmp_path / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_classify_to_file_and_stdout(tmp_path, capsys):
    job = write_job(
        tmp_path,
        "job.json",
        {"variables": ["X", "Y"], "f": "X^2+2", "g": "Y^2+2"},
    )
    out = tmp_path / "report.json"
    assert main(["classify", "--job", job, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert report["case"] == "CaseB_productNotS2w4"
    assert report["cm"] is True
    assert report["timings"] is None
    capsys.readouterr()
    assert main(["classify", "--job", job]) == 0
    assert capsys.readouterr().out == text


def test_classify_deterministic(tmp_path):
    job = write_job(
        tmp_path,
        "job.json",
        {
            "variables": ["V", "X", "Y"],
            "f": "V^2*X^2-2*X^2+4",
            "g": "V^2*Y^2-2*Y^2+4",
        },
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["classify", "--job", job, "--out", str(out1)]) == 0
    assert main(["classify", "--job", job, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_rejections(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["classify", "--job", str(bad_json)]) == 2
    assert main(["classify", "--job", str(tmp_path / "missing.json")]) == 2
    parse_err = write_job(
        tmp_path, "p.json", {"variables": ["X"], "f": "X^2+*", "g": "X"}
    )
    assert main(["classify", "--job", parse_err]) == 2
    squarefree = write_job(
        tmp_path,
        "sf.json",
        {"variables": ["X", "Y"], "f": "X^2*Y^2+2*X^2", "g": "Y^2+2"},
    )
    assert main(["classify", "--job", squarefree]) == 2
    err = capsys.readouterr().err
    assert "squarefree_f" in err
    bad_opt = write_job(
        tmp_path,
        "opt.json",
        {"variables": ["X"], "f": "X", "g": "X+2", "options": {"bogus": 1}},
    )
    assert main(["classify", "--job", bad_opt]) == 2


def test_classify_structured_reason_is_json(tmp_path, capsys):
    squarefree = write_job(
        tmp_path,
        "sf.json",
        {"variables": ["X"], "f": "X^2", "g": "X"},
    )
    assert main(["classify", "--job", squarefree]) == 2
    reason = json.loads(capsys.readouterr().err)
    assert reason["error"] == "HypothesisViolationError"
    assert reason["predicate"] == "squarefree_f"


def test_regress_green(capsys):
    assert main(["regress"]) == 0
    out = capsys.readouterr().out
    assert "regress: 8/8 green" in out


def test_python_m_cmwitness_regress():
    # A checkout runs the CLI as a module: PYTHONPATH=src python -m cmwitness.
    src = str(Path(cmwitness.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "cmwitness", "regress"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "regress: 8/8 green"


def test_regress_detects_corruption(tmp_path, monkeypatch, capsys):
    fake = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, fake)
    target = fake / "case_b_synthetic.report.json"
    target.write_text(
        target.read_text(encoding="utf-8").replace("CaseB", "CaseX"),
        encoding="utf-8",
    )
    monkeypatch.setattr(cli, "GOLDEN_DIR", fake)
    assert main(["regress"]) == 1
    out = capsys.readouterr().out
    assert "FAIL case_b_synthetic" in out


@pytest.mark.parametrize(
    "target, name, replacement, failed",
    [
        (
            classifier,
            "classify",
            lambda alg: CASE_B,
            "example_2_10_identity_model: classify gives %s, not %s"
            % (CASE_B, OUTSIDE_SCOPE),
        ),
        (
            classifier,
            "example_2_10_identity",
            lambda ring, multiplier=4: False,
            "example_2_10_identity_model: identity with multiplier 4 does not hold",
        ),
        (
            cli,
            "example_2_10_identity",
            lambda ring, multiplier=4: True,
            "example_2_10_perturbed_rejected: identity with multiplier 2 holds",
        ),
    ],
    ids=["classify_in_scope", "identity_false", "perturbed_identity_true"],
)
def test_regress_detects_broken_identity(
    monkeypatch, capsys, target, name, replacement, failed
):
    # Each hand-checked item of regress can fail on its own, and its
    # FAIL line says what failed; the other items still print "ok".
    monkeypatch.setattr(target, name, replacement)
    assert main(["regress"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == ["FAIL " + failed]
    assert all(line.endswith(": ok") for line in lines[:-1] if not line.startswith("FAIL"))
    assert lines[-1] == "regress: 7/8 green"


def test_regress_missing_golden(tmp_path, monkeypatch):
    fake = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, fake)
    (fake / "example_3_2.report.json").unlink()
    monkeypatch.setattr(cli, "GOLDEN_DIR", fake)
    assert main(["regress"]) == 2


def test_golden_corpus_complete():
    assert len(GOLDEN_NAMES) == 6
    for name in GOLDEN_NAMES:
        assert (GOLDEN_DIR / (name + ".job.json")).is_file()
        assert (GOLDEN_DIR / (name + ".report.json")).is_file()


def test_sweep_case_b_family(tmp_path):
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["X", "Y"],
            "parameters": [
                {"name": "s", "values": [1, 3, 5]},
                {"name": "t", "values": [1, 3, 5]},
            ],
            "f": "X^2+2*s",
            "g": "Y^2+2*t",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "s,t,case,cm,q_shape"
    assert len(lines) == 10
    for line in lines[1:]:
        assert line.endswith("CaseB_productNotS2w4,true,Grade3CI_NotTwoGen")
    # LF only, no CR.
    assert b"\r" not in out.read_bytes()


def test_sweep_empty_range(tmp_path):
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["X", "Y"],
            "parameters": [{"name": "s", "values": []}],
            "f": "X^2+2*s",
            "g": "Y^2+2",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "s,case,cm,q_shape\n"


def test_sweep_empty_range_beside_a_huge_one(tmp_path):
    # Zero pairs pass the guard; the huge range must not be expanded.
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["X", "Y"],
            "parameters": [
                {"name": "s", "range": [1, 0]},
                {"name": "t", "range": [0, 2**62]},
            ],
            "f": "X^2+2*s",
            "g": "Y^2+2*t",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "s,t,case,cm,q_shape\n"


def test_sweep_rejected_rows(tmp_path):
    # s = 0 makes f = X^2, which is not squarefree; the row records the
    # rejection instead of poisoning the rest of the family.
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["X", "Y"],
            "parameters": [{"name": "s", "values": [0, 1]}],
            "f": "X^2+2*s",
            "g": "Y^2+2",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "0,rejected_squarefree_f,,"
    assert lines[2].startswith("1,CaseB")


def test_sweep_range_parameters(tmp_path):
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["X", "Y"],
            "parameters": [{"name": "s", "range": [1, 3]}],
            "f": "X^2+2*s",
            "g": "Y^2+2",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_sweep_resource_guard(tmp_path):
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["X", "Y"],
            "parameters": [
                {"name": "s", "range": [1, 100]},
                {"name": "t", "range": [1, 100]},
            ],
            "f": "X^2+2*s",
            "g": "Y^2+2*t",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_bad_family(tmp_path):
    fam = write_job(
        tmp_path,
        "fam.json",
        {"variables": ["X"], "parameters": [{"name": "X", "values": [1]}], "f": "X", "g": "X"},
    )
    assert main(["sweep", "--family", fam, "--out", str(tmp_path / "o.csv")]) == 2


def test_sweep_mixed_case_family(tmp_path):
    # Degenerating family 1: t scales the even part of f.  t=1 keeps
    # the grade-2 geometry; t=2 pushes f into S^{2 wedge 4} and the
    # pair becomes S-free CaseA.
    fam = write_job(
        tmp_path,
        "fam.json",
        {
            "variables": ["V", "X", "Y"],
            "parameters": [{"name": "t", "values": [1, 2]}],
            "f": "V^2*X^2-2*t*X^2+4",
            "g": "V^2*Y^2-2*Y^2+4",
        },
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--family", fam, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[1] == "CaseC_NonCM_grade2"
    assert lines[2].split(",")[1] == "CaseA_oneHypersurfaceNonNormal"


def _family(parameter):
    return {
        "variables": ["X", "Y"],
        "parameters": [dict(name="s", **parameter)],
        "f": "X^2+2*s",
        "g": "Y^2+2",
    }


# 121 terms: a product of two multiplies 121 * 121 > 10000 pairs of terms.
_WIDE = "(%s)" % "+".join("X^%d*Y^%d" % (i, j) for i in range(11) for j in range(11))


def _job(**fields):
    return dict({"variables": ["X", "Y"], "f": "X^2+2", "g": "Y^2+2"}, **fields)


def _variables(n):
    """X, Y and n - 2 unused names."""
    return ["X", "Y"] + ["Z%d" % i for i in range(n - 2)]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("sweep", _family({"values": [1.5]})),
        ("sweep", _family({"values": [True]})),
        ("sweep", _family({"values": ["1"]})),
        ("sweep", _family({"values": 3})),
        ("sweep", _family({"range": [1, 2.5]})),
        ("sweep", _family({"range": [False, 2]})),
        ("sweep", _family({"range": 3})),
        # The pair-count guard must fire before the range is expanded.
        ("sweep", _family({"range": [0, 2**62]})),
        # ... and before len() of a range past 2^63 - 1 values overflows.
        ("sweep", _family({"range": [0, 2**63]})),
        ("sweep", dict(_family({"values": [1]}), parameters=[{"name": 5, "values": [1]}])),
        ("sweep", _family({"range": [1]})),
        ("classify", _job(options={"spot_check_seed": True})),
        ("classify", _job(options={"colon_search_degree": -1})),
        ("classify", _job(bogus=1)),
        ("classify", _job(f="(" * 3000 + "X" + ")" * 3000)),
        # Powers and products are bounded before they are expanded.
        ("classify", _job(f="X^100000000+1")),
        ("classify", _job(f="%s*%s" % (_WIDE, _WIDE))),
        # Digits int() cannot read: a superscript, and past its length limit.
        ("classify", _job(f="X^2+2\u00b2")),
        ("classify", _job(f="X^2+" + "1" * 5000)),
        # Coefficients are bounded too: a literal int() reads but str()
        # cannot print once 1 is added, a product of bounded factors,
        # and a sweep substitution.
        ("classify", _job(f="X^2+2*Y+" + "9" * 4300 + "+1")),
        ("classify", _job(f="(2^500+1)*(2^500+1)*(2^500+1)*X")),
        ("sweep", dict(_family({"values": [int("7" * 4000)]}), f="s^2*X^2")),
        ("classify", "[" * 200000),
        # Polynomials are JSON strings; nothing else is re-read as text.
        ("classify", _job(f=3)),
        ("classify", _job(f=True)),
        ("classify", _job(g=["Y^2+2"])),
        ("sweep", dict(_family({"values": [1]}), f=3)),
        # Work grows with every variable, used or not.
        ("classify", _job(variables=_variables(17))),
        ("sweep", dict(_family({"values": [1]}), variables=_variables(17))),
    ],
    ids=[
        "values_float",
        "values_bool",
        "values_string",
        "values_not_a_list",
        "range_float",
        "range_bool",
        "range_not_a_list",
        "range_huge",
        "range_past_int64",
        "param_name_not_string",
        "range_one_entry",
        "option_bool",
        "option_negative",
        "unknown_job_field",
        "nested_parentheses",
        "huge_exponent",
        "wide_product",
        "superscript_digit",
        "long_literal",
        "huge_literal",
        "huge_product_coefficient",
        "huge_substituted_coefficient",
        "deep_json",
        "f_number",
        "f_bool",
        "g_list",
        "family_f_number",
        "job_17_variables",
        "family_17_variables",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, payload):
    path = write_job(tmp_path, "in.json", payload)
    if command == "sweep":
        argv = ["sweep", "--family", path, "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["classify", "--job", path]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert json.loads(line)["error"]


def test_sixteen_variables_still_classify(tmp_path):
    path = write_job(tmp_path, "in.json", _job(variables=_variables(16)))
    assert main(["classify", "--job", path, "--out", str(tmp_path / "r.json")]) == 0


def test_polynomial_fields_must_be_strings(tmp_path, capsys):
    path = write_job(tmp_path, "in.json", _job(g=7))
    assert main(["classify", "--job", path]) == 2
    reason = json.loads(capsys.readouterr().err)
    assert reason == {"error": "MalformedInputError", "detail": "g must be a string"}


def test_every_package_error_has_one_exit_code():
    # The exit code is decided by the class: each package exception is
    # exactly one of a rejection (exit 2) or an internal error (exit 3).
    classes = set()
    for info in pkgutil.iter_modules(cmwitness.__path__):
        module = importlib.import_module("cmwitness." + info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__.startswith("cmwitness")
            ):
                classes.add(obj)
    classes -= {CmWitnessError, RejectedInputError, InternalError}
    assert len(classes) >= 19
    for cls in classes:
        assert issubclass(cls, RejectedInputError) != issubclass(cls, InternalError), cls
    # The rejections a sweep records as rows must never count as internal.
    for cls in (
        cmwitness.HypothesisViolationError,
        cmwitness.ZeroInputError,
        cmwitness.UnsupportedError,
    ):
        assert issubclass(cls, cli.REJECTION_ERRORS)
        assert not issubclass(cls, cli.INTERNAL_ERRORS)


def test_a_perturbed_witness_exits_3(tmp_path, monkeypatch, capsys):
    # A witness a moved by 2 keeps its parity, so the case is unchanged;
    # f = h1^2 + 2a then fails, and the report is refused as a bug.
    exact = algebra.decompose_S2

    def perturbed(p):
        w = exact(p)
        return None if w is None else S2Witness(w.h, w.a + p.ring.const(2))

    monkeypatch.setattr(algebra, "decompose_S2", perturbed)
    job = str(GOLDEN_DIR / "example_4_7_family1.job.json")
    assert main(["classify", "--job", job]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "InternalVerificationError"


@pytest.mark.parametrize(
    "exc",
    [ValueError("operands belong to different rings"), KeyError("x"), NotDivisibleError("inexact")],
    ids=["ValueError", "KeyError", "NotDivisibleError"],
)
@pytest.mark.parametrize("command", ["classify", "regress", "sweep"])
def test_unexpected_failure_exits_3(tmp_path, monkeypatch, capsys, command, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(report, "build_R", fail)
    monkeypatch.setattr(cli, "classify", fail)
    if command == "classify":
        argv = ["classify", "--job", write_job(tmp_path, "job.json", _job())]
    elif command == "sweep":
        fam = write_job(tmp_path, "fam.json", _family({"values": [1]}))
        argv = ["sweep", "--family", fam, "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["regress"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert json.loads(line)["error"] == type(exc).__name__
