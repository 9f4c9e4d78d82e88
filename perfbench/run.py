"""tilescope benchmark: four CLI workloads, driven in process, checked, timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-small --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each command is
``tilescope.cli.main(argv)`` with stdout captured, and it starts when the
previous one has returned.  A run repeats passes of its workload (see
``workloads.py``), each pass with fresh inputs drawn from the seed, until
the next pass would end after ``--seconds`` of measured time.  Every
output is checked (``gate.py``) outside the timed region, and pass 0 of
the default seed is compared with its recorded digest in every run.

An item is one analysed set (analyze), one classified set (search) or one
tower (render).  ``items_per_s`` is the median over passes; the item
percentiles are over every item of the run, and a search command's time
is shared evenly by the sets of its corpus.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (``tracer.py``) plus the reference
ladder (``ladder.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0
SETUP_LAUNCHES = 7
IMPORTTIME_LAUNCHES = 3

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _launch(code: str, *flags: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"launch failed: {done.stderr[-500:]}")
    return done


_COLD_START = """\
import time
t = time.perf_counter()
import tilescope.cli
tilescope.cli.build_parser()
print(time.perf_counter() - t, tilescope.cli.__file__)
"""


def setup_seconds() -> float:
    """CLI cold start: median over fresh interpreters of import + parser build."""
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        seconds, path = _launch(_COLD_START).stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"tilescope imported from {path}, not from {SRC}")
        if launch:  # the first launch compiles bytecode, which users pay once
            times.append(float(seconds))
    return statistics.median(times)


def import_seconds() -> dict[str, float]:
    """Cumulative import times of numpy and tilescope, from -X importtime."""
    found: dict[str, list[float]] = {"numpy": [], "tilescope": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        err = _launch("import tilescope.cli", "-X", "importtime").stderr
        for name, cells in found.items():
            match = re.search(rf"^import time:\s*\d+ \|\s*(\d+) \|\s+{name}$", err, re.M)
            cells.append(int(match.group(1)) / 1e6 if match else 0.0)
    return {name: statistics.median(cells) for name, cells in found.items()}


def run_item(cli, item) -> tuple[int, int, bytes, str]:
    """(nanoseconds, exit code, stdout bytes, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(item.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed item, not a crashed run
            code = 1
            traceback.print_exc()
    end = time.perf_counter_ns()
    return end - start, code, out.getvalue().encode(), err.getvalue()


class Run:
    """Outputs checked so far: items attempted, failures and their reasons."""

    def __init__(self, workload: str, cli, gate):
        self.workload, self.cli, self.gate = workload, cli, gate
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, items, tracer=None) -> list[tuple[int, int, bytes, str]]:
        gc.collect()
        results = []
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.begin_item(index, item.kind)
            results.append(run_item(self.cli, item))
        return results

    def check(self, items, results, digest: bool, expect: list[bytes] | None = None) -> None:
        """Gate every output.  With ``digest``, compare its bytes with the
        record; with ``expect``, with the outputs of an earlier pass."""
        outputs = [r[2] for r in results]
        wrong = self.gate.digest_mismatches(self.workload, outputs) if digest else set()
        if expect is not None:
            wrong |= {i for i, (a, b) in enumerate(zip(outputs, expect)) if a != b}
        self.attempted += len(items)
        for index, (item, (_, code, out, err)) in enumerate(zip(items, results)):
            reason = self.gate.check_item(item, code, out, err)
            if reason is None and index in wrong:
                reason = "output bytes differ from the recorded or untraced output"
            if reason is not None:
                self.failures.append(f"{' '.join(item.argv)}: {reason}")

    def reference(self, make_pass, seed: int) -> None:
        """Pass 0 of the default seed against its digest, unless already run."""
        if seed != DEFAULT_SEED:
            items = make_pass(self.workload, DEFAULT_SEED, 0)
            self.check(items, self.run_pass(items), digest=True)


def measure(run: Run, make_pass, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of the passes that fit in ``seconds`` of command time."""
    busy_ns, rates, per_item_ms = 0, [], []
    index = 0
    while True:
        items = make_pass(run.workload, seed, index)
        results = run.run_pass(items)
        pass_ns = sum(r[0] for r in results)
        busy_ns += pass_ns
        rates.append(sum(i.weight for i in items) / (pass_ns / 1e9))
        per_item_ms += [r[0] / 1e6 / i.weight for i, r in zip(items, results)]
        run.check(items, results, digest=seed == DEFAULT_SEED and index == 0)
        index += 1
        if busy_ns / 1e9 * (index + 1) / index > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.reference(make_pass, seed)
    return {
        "items_per_s": statistics.median(rates),
        "item_p50_ms": statistics.median(per_item_ms),
        "item_p90_ms": statistics.quantiles(per_item_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
        "passes": index,
        "items": len(per_item_ms),
    }


DERIVED_UNITS = {
    "core.expand.values": "count",
    "tiling.automaton_states": "count",
    "skewform.skew_decompose.hit_ratio": "ratio",
    "cyclotomic.support.distinct_ratio": "ratio",
    "cyclotomic.cyclotomic_poly.hit_ratio": "ratio",
    "geometry.approx.intervals": "count",
    "setup.numpy_import_s": "s",
    "setup.tilescope_import_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    from ladder import CASES
    from tracer import LAYERS, SPANS

    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.tile_share"] = "ratio"
    units.update(dict.fromkeys(CASES, "s"))
    units["ladder.cases_over_cap"] = "count"
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def trace(run: Run, make_pass, seed: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, between two untraced ones."""
    from ladder import run_ladder
    from tilescope import cyclotomic
    from tracer import LAYERS, SPANS, Tracer

    imports = import_seconds()
    items = make_pass(run.workload, seed, 0)
    cache_info = getattr(getattr(cyclotomic, "cyclotomic_poly", None), "cache_info", None)

    plain = run.run_pass(items)
    before = cache_info() if cache_info else None
    with Tracer() as tracer:
        traced = run.run_pass(items, tracer)
    after = cache_info() if cache_info else None
    plain_again = run.run_pass(items)
    digest = seed == DEFAULT_SEED
    run.check(items, plain, digest)
    run.check(items, traced, digest, expect=[r[2] for r in plain])
    run.check(items, plain_again, digest)
    run.reference(make_pass, seed)

    traced_s = sum(r[0] for r in traced) / 1e9
    plain_s = (sum(r[0] for r in plain) + sum(r[0] for r in plain_again)) / 2e9
    calls, counters = tracer.calls, tracer.counters
    values: dict[str, float] = {}
    for name in SPANS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = tracer.self_ns.get(name, 0) / 1e9
    lookups = (after.hits + after.misses - before.hits - before.misses) if before else 0
    layer_s = tracer.layer_self_s()
    attributed = sum(layer_s.values())
    values.update({
        "core.expand.values": counters["core.expand.values"],
        "tiling.automaton_states": counters["tiling.automaton_states"],
        "skewform.skew_decompose.hit_ratio": _ratio(
            counters["skewform.skew_decompose.hits"], calls.get("skewform.skew_decompose", 0)
        ),
        "cyclotomic.support.distinct_ratio": _ratio(
            len(tracer.support_inputs), calls.get("cyclotomic.support", 0)
        ),
        "cyclotomic.cyclotomic_poly.hit_ratio": _ratio(after.hits - before.hits, lookups)
        if before else 0.0,
        "geometry.approx.intervals": counters["geometry.approx.intervals"],
        "setup.numpy_import_s": imports["numpy"],
        "setup.tilescope_import_s": imports["tilescope"],
        "trace.overhead_ratio": traced_s / plain_s - 1,
        "trace.unattributed_s": traced_s - attributed,
    })
    tile_total = sum(ns for (kind, _), ns in tracer.kind_self_ns.items() if kind == "tile")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_s[layer]
        values[f"{layer}.share"] = _ratio(layer_s[layer], attributed)
        values[f"{layer}.tile_share"] = _ratio(tracer.kind_self_ns.get(("tile", layer), 0), tile_total)
    over = 0
    for name, (seconds, over_cap) in run_ladder(_child_env()).items():
        values[name] = seconds
        over += over_cap
        print(f"  {name}: " + (f"over the {seconds:.1f} s cap" if over_cap else f"{seconds:.3f} s"))
    values["ladder.cases_over_cap"] = over

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{run.workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    if tracer.missing:
        print(f"  not found in the program, reported as 0: {', '.join(tracer.missing)}")
    return {name: values[name] for name in per_layer_units()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tilescope" / "__init__.py").is_file():
        print(f"error: no tilescope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate
    from tilescope import cli
    from workloads import GENERATORS, make_pass

    if args.workload not in GENERATORS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(GENERATORS)}", file=sys.stderr)
        return 2
    run = Run(args.workload, cli, gate)
    if args.trace:
        metrics, units = trace(run, make_pass, args.seed), per_layer_units()
    else:
        setup_s = setup_seconds()
        measured = measure(run, make_pass, args.seed, args.seconds)
        print(f"  {measured['passes']} passes, {measured['items']} items "
              f"({measured['items'] // measured['passes']} per pass)")
        metrics = {"setup_s": setup_s, **{k: measured[k] for k in END_TO_END if k != "setup_s"}}
        units = END_TO_END
    for reason in run.failures[:20]:
        print(f"  FAILED {reason}")
    failed = len(run.failures)
    print(f"  {args.workload}: failed_ratio {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
