"""Command-line surface: reports, exit codes, search, render."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilescope import cli, geometry, laba_spectrum, tiling
from tilescope.cli import (
    build_parser,
    count_normalized,
    enumerate_normalized,
    main,
    run_search,
)
from tilescope.report import analyze_digit_set, report_to_json
from tilescope.skewform import least_stage

TWELVE = "0,1,4,8,9,17,25,33,41,72,76,80"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_twelve_digit_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "-b", "12", "-d", TWELVE, "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["tile"]["is_tile"] is True
        assert report["stabilization"]["m"] == 1
        assert report["decomposition"]["A"] == [0, 1, 4, 8, 9, 17]
        assert report["spectral"]["all_ok"] is True
        assert report["stopped_after"] is None

    def test_non_tile_stops_early(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-b", "4", "-d", "0,1,2,5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["tile"]["is_tile"] is False
        witness = report["tile"]["witness"]
        assert witness["value"] == 5 and witness["level"] == 2
        assert report["stopped_after"] == "tile_check"
        assert report["decomposition"] is None
        assert report["spectral"] is None

    def test_trivial_binary(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-b", "2", "-d", "0,1", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["stabilization"]["m"] == 1
        assert report["tiling_set"] == {
            "period": 1,
            "residues": [0],
            "density": "1",
            "self_replicating": True,
        }
        assert report["measure"] == "1"
        assert report["cyclotomic"]["full"]["spectrum"]["elements"] == ["0", "1/2"]

    def test_unnormalized_input(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-b", "4", "-d", "2,4,18,20", "--json")
        report = json.loads(out)
        assert report["normalization"] == {
            "digits": [0, 1, 8, 9],
            "offset": 2,
            "scale": 2,
        }
        assert report["tile"]["is_tile"] is True

    def test_inconclusive_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "-b", "4", "-d", "0,1,32,33", "--mmax", "1", "--json"
        )
        assert code == 3
        report = json.loads(out)
        assert report["stabilization"]["inconclusive"] is True
        assert report["stopped_after"] == "stabilization"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("-b", "12", "-d", TWELVE), 0),
            (("-b", "4", "-d", "0,1,2,5"), 0),
            (("-b", "4", "-d", "0,1,32,33", "--mmax", "1"), 3),
        ],
    )
    def test_one_automaton_per_set(self, capsys, monkeypatch, argv, code):
        # a tile's stage search is told that no level collides, so it does
        # not run the automaton a second time
        built = []
        init = tiling.CarryAutomaton.__init__

        def counting(automaton, d):
            built.append(d.digits)
            init(automaton, d)

        monkeypatch.setattr(tiling.CarryAutomaton, "__init__", counting)
        assert run_cli(capsys, "analyze", *argv, "--json")[0] == code
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["-d", "0,1,8,9"], 0, "stabilization exponent m: 1"),
            (["-d", "0,1,32,33", "--mmax", "1"], 3, "stabilization: none found with m <= 1"),
            (
                ["-d", "0,1,2,3", "--strict-t2"],
                0,
                "spectral data unavailable: strict (T2) fails for a decomposition part",
            ),
        ],
        ids=["stage", "inconclusive", "strict-t2"],
    )
    def test_text_output(self, capsys, argv, code, line):
        got, out, _ = run_cli(capsys, "analyze", "-b", "4", *argv)
        assert got == code
        assert "tile: yes" in out
        assert line in out

    def test_validation_errors(self, capsys):
        assert run_cli(capsys, "analyze", "-b", "4", "-d", "0,1,1,2")[0] == 2
        assert run_cli(capsys, "analyze", "-b", "4", "-d", "0,1,2")[0] == 2
        assert run_cli(capsys, "analyze", "-b", "4", "-d", "0,1,a,2")[0] == 2

    def test_automaton_cap_checked_before_work(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "-b", "3", "-d", "0,1,1000000000001")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("error: carry automaton needs") and err.count("\n") == 1

    def test_digit_pair_cap_checked_before_work(self, capsys):
        digits = random.Random(1).sample(range(10**9 + 1), 1449)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "analyze", "-b", "1449", "-d", ",".join(map(str, digits))
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "error: carry automaton needs 2099601 digit pairs, over the cap 2097152\n"

    # --kmax goes through the one level rule: tests/test_core.py::TestLevelRule
    @pytest.mark.parametrize("flag, value, name", [("--mmax", "0", "m_max")])
    def test_stage_and_level_bounds_checked_on_non_tiles(self, capsys, flag, value, name):
        code, out, err = run_cli(capsys, "analyze", "-b", "4", "-d", "0,1,2,5", flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {name} must be >= 1, got {value}\n"

    def test_strict_t2_can_block_spectra(self, capsys):
        # support {2, 4} of the standard set fails the literal reading
        _, relaxed, _ = run_cli(capsys, "analyze", "-b", "4", "-d", "0,1,2,3", "--json")
        assert json.loads(relaxed)["spectral"]["all_ok"] is True
        _, strict, _ = run_cli(
            capsys, "analyze", "-b", "4", "-d", "0,1,2,3", "--json", "--strict-t2"
        )
        spectral = json.loads(strict)["spectral"]
        assert spectral["available"] is False
        assert "strict" in spectral["reason"]

    def test_strict_t2_flag_keeps_schema(self, capsys):
        _, out, _ = run_cli(
            capsys, "analyze", "-b", "4", "-d", "0,1,8,9", "--json", "--strict-t2"
        )
        report = json.loads(out)
        # literal reading: support {2, 16} would demand a degree-16 divisor
        full = report["cyclotomic"]["full"]
        assert full["t2"] is True and full["t2_strict"] is False
        # the decomposition parts pass even the literal reading
        assert report["spectral"]["all_ok"] is True

    def test_stage_four_spectral_data(self, capsys):
        # 16 blocks at modulus 4**4, and one counting identity over L1 + L2
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "analyze", "-b", "4", "-d", "0,1,512,1537", "--kmax", "2", "--json"
        )
        assert time.perf_counter() - start < 10
        assert code == 0
        report = json.loads(out)
        assert report["decomposition"]["stage"] == 1
        assert report["spectral"]["modulus"] == 256
        assert report["spectral"]["all_ok"] is True

    def test_decomposition_is_not_verified_again(self, capsys, monkeypatch):
        def no_check(*args):
            raise AssertionError("analyze re-verified the decomposition least_stage built")

        for module in ("report", "skewform"):
            monkeypatch.setattr(f"tilescope.{module}.verify_decomposition", no_check, raising=False)
        code, out, _ = run_cli(capsys, "analyze", "-b", "12", "-d", TWELVE, "--json")
        assert code == 0
        assert json.loads(out)["decomposition"]["verified"] is True

    def test_round_trip(self):
        report, _ = analyze_digit_set(12, [int(x) for x in TWELVE.split(",")])
        assert json.loads(report_to_json(report)) == report

    def test_schema_is_frozen(self):
        report, _ = analyze_digit_set(4, [0, 1, 8, 9])
        assert list(report) == [
            "command", "input", "normalization", "tile", "stabilization",
            "tiling_set", "measure", "decomposition", "cyclotomic",
            "spectral", "measure_report", "stopped_after",
        ]
        assert list(report["cyclotomic"]["full"]) == [
            "set", "support", "t1", "t2", "t2_strict", "spectrum",
        ]
        assert list(report["spectral"]) == [
            "available", "modulus", "support_A", "support_B", "lcm_A",
            "lcm_B", "L1", "L2", "hadamard_A", "hadamard_B",
            "hadamard_joint", "counting_identity", "all_ok",
        ]

    def test_deterministic_output(self, capsys):
        args = ("analyze", "-b", "12", "-d", TWELVE, "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def generated_reports(workload: str, seed: int):
    """The reports of one pass of a benchmark workload's ``analyze`` sets."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import GENERATORS
    finally:
        sys.path.remove(str(PERFBENCH))
    for item in GENERATORS[workload](random.Random(seed)):
        base, digits = int(item.argv[2]), cli._parse_digits(item.argv[3].split("=")[1])
        for strict in (False, True):
            yield analyze_digit_set(base, digits, strict_t2=strict)[0]


def oracle_json(value) -> str:
    return json.dumps(value, indent=2) + "\n"


class TestReportWriter:
    """``report_to_json`` against ``json.dumps(report, indent=2)``."""

    @pytest.mark.parametrize("workload", ["analyze-small", "analyze-wide"])
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=2, deadline=None)
    def test_generated_reports_equal_json_dumps(self, workload, seed):
        for report in generated_reports(workload, seed):
            assert report_to_json(report) == oracle_json(report)
            if report["cyclotomic"] is not None:
                cyclo = report["cyclotomic"]
                for part in [cyclo["full"], cyclo["A"], *cyclo["B"]]:
                    if part["spectrum"] is not None:
                        spec = laba_spectrum(part["set"])
                        assert part["spectrum"]["elements"] == [str(e) for e in spec.elements]

    def test_inconclusive_and_non_tile_reports(self):
        for digits, m_max in [([0, 1, 8, 9], 1), ([0, 1, 3], 12), ([0, 2, 9, 11], 12)]:
            report, _ = analyze_digit_set(len(digits), digits, m_max=m_max)
            assert report_to_json(report) == oracle_json(report)

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], {"a": {}, "b": []}, [[], {}, [[]]], None, True, 0, -12, 10**40,
            [True, False, True], [1, True], [None, None], {"x": None},
            "", 'say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "caf\u00e9 \u2264 \U0001f600",
            {'k"ey\\': ["\u00e9", 0, [1, 2, [3]]], "n": {"m": [{"p": [None, "q"]}]}},
        ],
    )
    def test_hand_made_values_equal_json_dumps(self, value):
        assert report_to_json(value) == oracle_json(value)

    @pytest.mark.parametrize("value", [0.5, [1, 2.0], (1, 2), {"a": {1, 2}}, {1: "int key"}])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            report_to_json(value)


class TestSearch:
    def test_base_two_corpus_is_single_set(self):
        assert enumerate_normalized(2, 10) == [(0, 1)]
        records, summary = run_search(2, 10, 4, workers=1)
        assert summary["count"] == 1 and summary["tiles"] == 1
        assert summary["violations"] == []

    def test_base_three_tiles_are_complete_residue_sets(self):
        records, summary = run_search(3, 15, 4, workers=1)
        assert summary["violations"] == [] and summary["inconclusive"] == 0
        for record in records:
            complete = sorted(d % 3 for d in record["digits"]) == [0, 1, 2]
            assert record["tile"] == complete, record

    def test_jsonl_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "-b", "3", "--bound", "9", "--json"
        )
        assert code == 0
        lines = out.strip().split("\n")
        payloads = [json.loads(line) for line in lines]
        assert "summary" in payloads[-1]
        assert payloads[-1]["summary"]["count"] == len(lines) - 1

    @pytest.fixture
    def pools(self, monkeypatch):
        """The size of each pool ``run_search`` opens; the jobs run in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_worker_count_clamped_to_cores(self, monkeypatch, pools):
        single = run_search(4, 9, 6, workers=1)
        monkeypatch.setattr(cli, "CPUS", 2)
        assert run_search(4, 9, 6, workers=100000) == single
        assert pools == [2]

    @pytest.mark.parametrize(
        "count, cpus, pool",
        [
            (0, 2, None),
            (27_999, 2, None),
            (28_000, 2, 2),
            (367_616, 2, 2),  # (6, 36)
            (500_000, 64, 2),  # the corpus cap: two workers, however many CPUs
            (28_000, 1, None),
            (500_000, 1, None),
        ],
    )
    def test_worker_count_follows_the_corpus(self, capsys, monkeypatch, pools, count, cpus, pool):
        _, serial, _ = run_cli(capsys, "search", "-b", "3", "--bound", "9", "--json")
        monkeypatch.setattr(cli, "count_normalized", lambda base, bound: count)
        monkeypatch.setattr(cli, "CPUS", cpus)
        assert run_cli(capsys, "search", "-b", "3", "--bound", "9", "--json") == (0, serial, "")
        assert pools == ([] if pool is None else [pool])

    def test_benchmark_corpora_run_serial(self):
        sys.path.insert(0, str(PERFBENCH))
        try:
            from workloads import SEARCH_BOUNDS
        finally:
            sys.path.remove(str(PERFBENCH))
        counts = [count_normalized(base, hi) for base, (_, hi) in SEARCH_BOUNDS.items()]
        assert counts == [1_259, 5_665, 965, 786, 923]
        assert max(counts) < cli.POOL_FROM_SETS

    def test_serial_bytes_match_the_pooled_pin(self):
        # ``search -b 5 --bound 31 --json`` in tests/test_pins.py: 29 879 sets,
        # which the launch runs in a pool wherever it may use 2 CPUs
        sink = io.StringIO()
        cli._write_records(*run_search(5, 31, 6, workers=1), sink)
        digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
        assert digest == "a439efd610442b8a1b8e5c588fd7416c63b423c7f43d2a6a259130a1b56a614f"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
    def test_cpus_follow_the_affinity_mask(self):
        # what ``taskset -c 0`` does to a launch: one CPU, so every search is serial
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import tilescope.cli\n"
            "print(tilescope.cli.CPUS)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "1\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys, "search", "-b", "3", "--bound", "7", "--json", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert "summary" in path.read_text().strip().split("\n")[-1]

    def test_default_caps(self, capsys, monkeypatch):
        assert run_cli(capsys, "search", "-b", "13", "--bound", "14")[0] == 2
        assert run_cli(capsys, "search", "-b", "3", "--bound", "65")[0] == 2
        with pytest.raises(ValueError, match="exceeds the default cap"):
            run_search(13, 14, 4, workers=1)
        monkeypatch.setattr(cli, "MAX_SEARCH_BASE", 13)
        records, _ = run_search(13, 14, 4, workers=1)
        assert records  # the cap is the one constant

    def test_stage_bound_checked(self, capsys):
        code, out, err = run_cli(capsys, "search", "-b", "3", "--bound", "9", "--mmax", "0")
        assert code == 2 and out == ""
        assert err == "error: m_max must be >= 1, got 0\n"

    @pytest.mark.parametrize("base", ["1", "0", "-2"])
    def test_base_below_two(self, capsys, base):
        code, out, err = run_cli(capsys, "search", "-b", base, "--bound", "3")
        assert code == 2 and out == ""
        assert err == f"error: base must be >= 2, got {base}\n"

    def test_out_path_that_cannot_be_opened(self, capsys, monkeypatch, tmp_path):
        def no_work(*args):
            raise AssertionError("the corpus ran before --out was opened")

        monkeypatch.setattr(cli, "run_search", no_work)
        path = tmp_path / "missing" / "records.jsonl"
        code, out, err = run_cli(capsys, "search", "-b", "3", "--bound", "5", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("-b", "12", "--bound", "64"), f"{count_normalized(12, 64)} digit sets exceed"),
            (("-b", "3", "--bound", "65"), "search bound 65 exceeds the default cap"),
            (("-b", "3", "--bound", "9", "--mmax", "0"), "m_max must be >= 1, got 0"),
        ],
    )
    def test_rejected_search_leaves_out_file_as_it_was(self, capsys, tmp_path, argv, message):
        path = tmp_path / "y.jsonl"
        path.write_text("kept")
        code, out, err = run_cli(capsys, "search", *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")
        assert path.read_text() == "kept"

    def test_run_search_refuses_workers_below_one(self):
        with pytest.raises(ValueError, match="^workers must be >= 1, got -3$"):
            run_search(3, 10, 6, workers=-3)

    def test_record_lines_are_json_dumps(self, capsys):
        # each record tail is encoded once per corpus; every line must still
        # be json.dumps of its record, for all three statuses ((4, 40) at
        # --mmax 1 holds the inconclusive ones, stage-2 tiles such as
        # 0,1,32,33; (6, 16) at --mmax 1 has none)
        statuses = set()
        for base, bound, m_max in ((6, 16, 1), (4, 40, 1), (4, 24, 6), (3, 40, 6)):
            code, out, _ = run_cli(
                capsys, "search", "-b", str(base), "--bound", str(bound),
                "--mmax", str(m_max), "--json",
            )
            records, summary = run_search(base, bound, m_max, workers=1)
            assert code == 0
            assert out.splitlines(keepends=True) == [
                json.dumps(record) + "\n" for record in records
            ] + [json.dumps({"summary": summary}) + "\n"]
            statuses.update(record["status"] for record in records)
        assert statuses == {"tile", "non_tile", "inconclusive"}

    @pytest.mark.parametrize("base", range(2, 7))
    def test_count_matches_enumeration(self, base):
        for bound in range(-1, 21):
            assert count_normalized(base, bound) == len(enumerate_normalized(base, bound))

    def test_cap_checked_before_enumerating(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the corpus was enumerated before the cap check")

        monkeypatch.setattr(cli, "enumerate_normalized", no_work)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "search", "-b", "12", "--bound", "64")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err == (
            f"error: {count_normalized(12, 64)} digit sets exceed the search cap "
            f"{cli.MAX_SEARCH_SETS}; lower the bound\n"
        )

    @pytest.mark.parametrize("base, bound", [(3, 30), (4, 20), (6, 12)])
    def test_reflection_keeps_every_field_but_the_digits(self, base, bound):
        # the oracle for deriving a record from its mirror: classify both
        direct = []
        for digits in enumerate_normalized(base, bound):
            mirror = tuple(sorted(digits[-1] - x for x in digits))
            record = cli._search_record(least_stage, tiling.collision_level, (digits, base, 6))
            reflected = cli._search_record(least_stage, tiling.collision_level, (mirror, base, 6))
            assert record["digits"] == list(digits) and reflected["digits"] == list(mirror)
            assert {**reflected, "digits": record["digits"]} == record, digits
            direct.append(record)
        assert run_search(base, bound, 6, workers=1)[0] == direct

    def test_layers_are_imported_once_per_search(self, monkeypatch):
        # an import inside the per-set classifier would grow with the corpus
        calls = []
        real_import = __import__

        def counting_import(*args, **kwargs):
            calls.append(args[0])
            return real_import(*args, **kwargs)

        counts = []
        for bound in (12, 30):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr("builtins.__import__", counting_import)
                records, _ = run_search(3, bound, 6, workers=1)
            counts.append(len(calls))
            assert len(records) == count_normalized(3, bound)
        assert counts[0] == counts[1] > 0, calls

    def test_pooled_records_equal_serial_with_self_mirrors(self):
        corpus = enumerate_normalized(4, 16)
        assert any(d == tuple(d[-1] - x for x in reversed(d)) for d in corpus)
        serial = run_search(4, 16, 6, workers=1)
        pooled = run_search(4, 16, 6, workers=2)
        assert json.dumps(pooled) == json.dumps(serial)

    def test_stage_matches_analyze(self):
        records, summary = run_search(4, 12, 6, workers=1)
        tiles = [r for r in records if r["status"] == "tile"]
        assert len(tiles) == summary["tiles"] > 0
        for record in tiles:
            report, code = analyze_digit_set(4, record["digits"])
            assert code == 0
            assert report["stabilization"]["m"] == record["m"], record["digits"]


class TestRender:
    def test_svg_file(self, capsys, tmp_path):
        path = tmp_path / "tower.svg"
        code, _, _ = run_cli(
            capsys,
            "render", "-b", "4", "-d", "0,1,8,9", "-k", "4",
            "--format", "svg", "--out", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg") and 'version="1.1"' in text

    def test_json_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "-b", "2", "-d", "0,1", "-k", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [lvl["intervals"] for lvl in payload["levels"]] == [
            [[0, 1, 1, 1]]
        ] * 3

    def test_non_tile_shrinks(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "-b", "4", "-d", "0,1,2,5", "-k", "3", "--format", "json"
        )
        assert code == 0
        levels = json.loads(out)["levels"]
        num, den = levels[-1]["total_length"]
        assert num / den < 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "-b", "3", "-d", "0,1,2", "-k", "40"),
            ("analyze", "-b", "3", "-d", "0,1,2", "--kmax", "40"),
            ("analyze", "-b", "3", "-d", "0,1,3", "--kmax", "40"),
        ],
    )
    def test_level_cap_checked_before_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("error: level 40 too large for base 3")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("analyze", "-b", "2", "-d", "0,1", "--kmax", "100000000000"),
                "error: level 100000000000 too large for base 2",
            ),
            (
                ("render", "-b", "3", "-d", "0,1,2", "-k", "249979", "--height", "1000000"),
                "error: level 249979 too large for base 3",
            ),
        ],
    )
    def test_huge_level_checked_without_its_power(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["svg", "json"])
    def test_out_path_that_cannot_be_opened(self, capsys, tmp_path, fmt):
        path = tmp_path / "missing" / f"tower.{fmt}"
        code, out, err = run_cli(
            capsys, "render", "-b", "3", "-d", "0,1,2", "--format", fmt, "--out", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_out_opened_before_the_covers(self, capsys, monkeypatch, tmp_path):
        def no_work(*args):
            raise AssertionError("the covers were built before --out was opened")

        # the level generator render streams from
        monkeypatch.setattr(geometry, "iter_covers", no_work)
        path = tmp_path / "missing" / "tower.json"
        code, out, err = run_cli(
            capsys, "render", "-b", "3", "-d", "0,1,11", "-k", "15",
            "--format", "json", "--out", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_capped_level_leaves_out_file_as_it_was(self, capsys, tmp_path):
        path = tmp_path / "tower.svg"
        path.write_text("kept")
        code, _, err = run_cli(
            capsys, "render", "-b", "3", "-d", "0,1,2", "-k", "40", "--out", str(path)
        )
        assert code == 2 and err.startswith("error: level 40 too large for base 3")
        assert path.read_text() == "kept"

    def test_oversized_canvas_leaves_out_file_as_it_was(self, capsys, tmp_path):
        path = tmp_path / "tower.svg"
        path.write_text("kept")
        code, _, err = run_cli(
            capsys, "render", "-b", "2", "-d", "0,1", "-k", "1",
            "--height", "1" + "0" * 400, "--out", str(path),
        )
        assert code == 2 and err.startswith("error: width must be > 80")
        assert path.read_text() == "kept"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--width", "-5"),
            ("--width", "0"),
            ("--width", "80"),
            ("--height", "-5"),
            ("--height", "0"),
            ("--height", "100", "-k", "10"),
            ("--height", "120", "-k", "10"),
            ("--format", "json", "--width", "-5"),
            ("-b", "2", "-d", "0,1", "-k", "1", "--width", "1" + "0" * 400),
            ("-b", "2", "-d", "0,1", "-k", "1", "--height", "1" + "0" * 400),
            ("--width", "1000001"),
        ],
    )
    def test_size_must_leave_room_for_the_bands(self, capsys, argv):
        code, out, err = run_cli(capsys, "render", "-b", "4", "-d", "0,1,8,9", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: width must be > 80 and height > ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("-k", "-3", "--width", "5"), "error: level must be >= 1, got -3\n"),
            (("-k", "100"), "error: level 100 too large for base 3"),
            (("-k", "100000000", "--height", "1000000000"), "error: level 100000000 too large"),
        ],
        ids=["below-one", "over-cap", "huge"],
    )
    def test_level_checked_before_the_canvas(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "render", "-b", "3", "-d", "0,1,2", *argv)
        assert code == 2 and out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_smallest_accepted_size(self, capsys, k):
        height = 80 + 4 * k + 1
        code, out, err = run_cli(
            capsys, "render", "-b", "4", "-d", "0,1,8,9", "-k", str(k),
            "--width", "81", "--height", str(height),
        )
        assert code == 0 and err == ""
        assert f'viewBox="0 0 81 {height}"' in out
        heights = re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="([^"]*)"', out)
        assert len(heights) > k and all(float(h) > 0 for h in heights)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_high_tower_streams_in_bounded_memory(self, tmp_path, fmt):
        # level 13 holds 70 537 intervals and the file is 8-11 MB; held
        # whole, the tower and its text peak at 64-86 MB, streamed near 35 MB.
        # The child reads its own high-water mark, VmHWM: Linux carries the
        # launcher's peak across execve into RUSAGE_SELF's ru_maxrss.
        code = (
            "import re, sys\n"
            "from tilescope.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n"
        )
        argv = [
            "render", "-b", "3", "-d", "0,1,11", "-k", "13",
            "--format", fmt, "--out", str(tmp_path / f"tower.{fmt}"),
        ]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
        )
        exit_code, peak_kb = map(int, done.stdout.split())
        assert exit_code == 0 and done.stderr == ""
        assert peak_kb < 50 * 1024


@pytest.mark.parametrize(
    "command", [("analyze", "-b", "5", "--json"), ("render", "-b", "5", "-k", "2")]
)
@pytest.mark.parametrize("flag", ["-d", "--digits"])
def test_digit_list_starting_negative(capsys, command, flag):
    code, joined, _ = run_cli(capsys, *command, f"{flag}=-7,0,3,11,40")
    assert code == 0 and joined
    assert run_cli(capsys, *command, flag, "-7,0,3,11,40") == (0, joined, "")


@pytest.mark.parametrize(
    "command", [("analyze", "-b", "5", "--json"), ("render", "-b", "5", "-k", "2")]
)
@pytest.mark.parametrize("flag", ["--d", "--dig", "--digit"])
def test_digit_list_after_a_prefix_of_digits(capsys, command, flag):
    code, joined, _ = run_cli(capsys, *command, "-d=-7,0,3,11,40")
    assert code == 0 and joined
    assert run_cli(capsys, *command, flag, "-7,0,3,11,40") == (0, joined, "")


@st.composite
def cli_argv(draw):
    """Argv for any command, from bounded ranges, valid or not."""
    command = draw(st.sampled_from(["analyze", "search", "render"]))
    base = draw(st.integers(-1, 8))
    argv = [command, "-b", str(base)]
    level = st.integers(-2, 4).map(str)

    def option(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, draw(values)])

    if command == "search":
        argv += ["--bound", str(draw(st.integers(-3, 14)))]
        option("--mmax", level)
    else:
        size = max(base, 0)
        digits = draw(
            st.lists(st.integers(-40, 40), max_size=10)  # empty, repeated, any count
            | st.lists(st.integers(-40, 40), min_size=size, max_size=size, unique=True)
        )
        argv += ["-d", ",".join(map(str, digits))]
    if command == "analyze":
        option("--mmax", level)
        option("--kmax", level)
        if draw(st.booleans()):
            argv.append("--strict-t2")
    if command == "render":
        option("-k", level)
        option("--format", st.sampled_from(["svg", "json"]))
        option("--width", st.integers(-20, 200).map(str))
        option("--height", st.integers(-20, 200).map(str))
    elif draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_any_argv_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            assert exc.code == 2, argv
            return
    assert code in (0, 2, 3), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_import_builds_nothing(self):
        code = "import tilescope.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "0\n"


PACKAGE = {f"tilescope.{path.stem}" for path in Path(cli.__file__).parent.glob("*.py")}
LAUNCH = {"tilescope", "tilescope.cli", "tilescope.core"}
SEARCH = LAUNCH | {"tilescope.skewform", "tilescope.tiling"}


class TestModulesPerCommand:
    @pytest.mark.parametrize(
        "argv, modules, json_loaded",
        [
            (["--help"], LAUNCH, False),
            (["search", "-b", "3", "--bound", "7"], SEARCH, False),
            (["search", "-b", "3", "--bound", "7", "--json"], SEARCH, True),
            (["render", "-b", "3", "-d", "0,1,2", "-k", "2"], LAUNCH | {"tilescope.geometry"}, None),
            (
                ["analyze", "-b", "4", "-d", "0,1,8,9", "--json"],
                PACKAGE - {"tilescope.__init__", "tilescope.oracles"} | {"tilescope"},
                None,
            ),
        ],
        ids=["help", "search", "search-json", "render", "analyze"],
    )
    def test_fresh_launch_loads_only_its_modules(self, argv, modules, json_loaded):
        # a fresh interpreter per command: what an earlier test imported is not there
        code = (
            "import contextlib, io, sys\n"
            "from tilescope.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(sys.argv[1:])\n"
            "    except SystemExit:\n"  # --help
            "        pass\n"
            "loaded = [m for m in sys.modules if m.partition('.')[0] == 'tilescope']\n"
            "print(' '.join(sorted(loaded)))\n"
            "print('json' in sys.modules, 'fractions' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
        )
        loaded, flags = done.stdout.splitlines()
        assert set(loaded.split()) == modules
        assert "tilescope.oracles" not in loaded.split()
        if json_loaded is not None:  # --help and search: json only for --json, no fractions
            assert flags.split() == [str(json_loaded), "False"]


class TestInstalledEntryPoint:
    def test_cli_import_leaves_numpy_out(self):
        code = "import sys, tilescope.cli; print('numpy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "False\n"
