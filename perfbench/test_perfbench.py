"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tilescope  # noqa: E402
from tilescope import cli, tiling  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import GENERATORS, Item, make_pass  # noqa: E402


def _functions() -> dict[tuple[str, str], object]:
    """Every attribute of every tilescope module, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tilescope":
            out.update({(name, key): value for key, value in vars(module).items()})
    out[("CarryAutomaton", "__init__")] = tiling.CarryAutomaton.__dict__["__init__"]
    return out


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    assert make_pass(workload, 7, 0) == make_pass(workload, 7, 0)
    assert make_pass(workload, 7, 0) != make_pass(workload, 8, 0)
    assert make_pass(workload, 7, 0) != make_pass(workload, 7, 1)


def test_analyze_small_strata_are_fixed():
    items = make_pass("analyze-small", 3, 0)
    assert len(items) == 100
    assert sum(i.kind == "tile" for i in items) == 60


def test_default_seed_digests_match():
    runner = run.Run("search", cli, gate)
    items = make_pass("search", run.DEFAULT_SEED, 0)
    runner.check(items, runner.run_pass(items), digest=True)
    assert runner.attempted == len(items) and runner.failures == []


def test_corrupted_output_byte_fails():
    runner = run.Run("search", cli, gate)
    items = make_pass("search", run.DEFAULT_SEED, 0)
    results = runner.run_pass(items)
    ns, code, out, err = results[2]
    flipped = out[:100] + bytes([out[100] ^ 1]) + out[101:]
    results[2] = (ns, code, flipped, err)
    runner.check(items, results, digest=True)
    assert len(runner.failures) == 1
    assert len(runner.failures) / runner.attempted > 0


def test_gate_rejects_a_wrong_witness():
    item = Item(("analyze", "-b", "3", "--digits=0,3,7", "--json"), "non_tile")
    ns, code, out, err = run.run_item(cli, item)
    assert gate.check_item(item, code, out, err) is None
    report = json.loads(out)
    report["tile"]["witness"]["value"] += 1
    assert gate.check_item(item, code, json.dumps(report).encode(), err) is not None
    assert gate.check_item(Item(item.argv, "tile"), code, out, err) is not None


def test_trace_restores_functions_and_keeps_bytes():
    items = [
        Item(("analyze", "-b", "4", "--digits=0,1,8,9", "--json"), "tile"),
        Item(("analyze", "-b", "3", "--digits=0,3,7", "--json"), "non_tile"),
        Item(("search", "-b", "4", "--bound", "12", "--json"), "corpus", 165),
        Item(("render", "-b", "3", "--digits=0,1,5", "-k", "4", "--format", "json"), "tower"),
    ]
    before = _functions()
    runner = run.Run("analyze-small", cli, gate)
    plain = runner.run_pass(items)
    with Tracer() as tracer:
        traced = runner.run_pass(items, tracer)
        assert tilescope.report.support is not before[("tilescope.report", "support")]
    assert _functions() == before
    assert [r[2] for r in traced] == [r[2] for r in plain]
    assert tracer.missing == []
    assert {name.split(".")[0] for name in tracer.calls} == set(LAYERS)
    assert tracer.calls["cli.main"] == len(items)
    # self times add up to the traced wall time of the commands
    wall = sum(r[0] for r in traced)
    assert 0 < sum(tracer.self_ns.values()) <= wall
    ids = {span[0] for span in tracer.spans}
    assert all(parent == -1 or parent in ids for _, parent, *_ in tracer.spans)
    test_default_seed_digests_match()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
