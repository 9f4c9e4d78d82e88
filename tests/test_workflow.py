"""The CI workflow parses, and runs tier-1 once per Python version."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
TIER1 = "-m pytest -q --continue-on-collection-errors"
VERSION_TEST = re.compile(r"matrix\.python-version (==|!=) '([^']+)'")


def test_workflow_steps_parse():
    # a malformed step, such as "run:" glued to its command, fails to load
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    for job in jobs.values():
        for step in job["steps"]:
            assert len({"run", "uses"} & set(step)) == 1, step


def test_tier1_runs_once_per_version():
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]
    steps = [step for step in job["steps"] if TIER1 in step.get("run", "")]
    assert len(steps) == 2
    plain, dev = sorted(steps, key=lambda step: "-X dev" in step["run"])
    assert "-X dev" not in plain["run"] and "-X dev" in dev["run"]
    (plain_op, plain_version), (dev_op, dev_version) = (
        VERSION_TEST.fullmatch(step["if"]).groups() for step in (plain, dev)
    )
    assert {plain_op, dev_op} == {"==", "!="} and plain_version == dev_version
    # so each step runs on some version of the matrix
    assert plain_version in job["strategy"]["matrix"]["python-version"]
