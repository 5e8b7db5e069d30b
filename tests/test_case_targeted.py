"""Every case tag from pairs built to reach it, and every rejection recipe.

perfbench/casegen.py builds (f, g) pairs whose case tag is fixed by
construction (see its docstring), plus pairs that break one standing
hypothesis on purpose.  Fifty pairs of each tag go through
assemble_report, which must claim that tag; the rejection recipes go
through the CLI, which must exit 2 naming the predicate that fails.
The seed is one no other test or benchmark run uses.
"""

import json

from test_residue_guard import load_casegen

from cmwitness.cli import main
from cmwitness.report import assemble_report, parse_job

SEED = 11
PER_TAG = 50
REJECTIONS = 12  # of the three broken recipes, in turn


def jobs_by_outcome(casegen, seed=SEED, per_tag=PER_TAG, rejections=REJECTIONS):
    """(job, outcome) of the first per_tag jobs of each tag and of the
    first ``rejections`` broken ones that casegen yields for seed."""
    tags = {casegen.OUTSIDE, casegen.A_BOTH, casegen.A_ONE, casegen.CASE_B,
            casegen.C_CM, casegen.C_GRADE3, casegen.C_GRADE2}
    wanted = dict.fromkeys(tags, per_tag)
    wanted["broken"] = rejections
    out = {key: [] for key in wanted}
    for job, (outcome,) in casegen.generate(seed):
        key = "broken" if outcome in casegen.BROKEN_OUTCOMES else outcome
        if len(out[key]) < wanted[key]:
            out[key].append((job, outcome))
        if all(len(out[k]) == n for k, n in wanted.items()):
            return out
    raise AssertionError("the generator is endless")


def test_fifty_pairs_per_tag_get_their_tag():
    casegen = load_casegen()
    by_outcome = jobs_by_outcome(casegen)
    assert len(by_outcome) == 8
    for key, jobs in by_outcome.items():
        if key == "broken":
            continue
        assert len(jobs) == PER_TAG
        for job, tag in jobs:
            assert assemble_report(*parse_job(job))["case"] == tag, job


def test_rejection_recipes_exit_2(tmp_path, capsys):
    casegen = load_casegen()
    jobs = jobs_by_outcome(casegen)["broken"]
    outcomes = [outcome for _, outcome in jobs]
    assert set(outcomes) == set(casegen.BROKEN_OUTCOMES)
    for i, (job, outcome) in enumerate(jobs):
        path = tmp_path / ("job%d.json" % i)
        path.write_text(json.dumps(job), encoding="utf-8")
        assert main(["classify", "--job", str(path)]) == 2, job
        reason = json.loads(capsys.readouterr().err)
        assert reason["error"] == "HypothesisViolationError"
        assert "rejected_" + reason["predicate"] == outcome, job

