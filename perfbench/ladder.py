"""Reference ladder: the slow cases the roadmap timed by hand.

Each case runs once, in its own interpreter, under a time cap; it is
reported as a time, or as over the cap.  The ladder never gates a run.
"""

from __future__ import annotations

import subprocess
import sys
import time

CAP_S = 5.0

# metric name -> statement run after ``from tilescope import cli, core, tiling``
CASES = {
    "ladder.analyze_b3_0_1_2000_s": 'cli.main(["analyze", "-b", "3", "-d", "0,1,2000", "--json"])',
    "ladder.analyze_b3_0_1_5000_s": 'cli.main(["analyze", "-b", "3", "-d", "0,1,5000", "--json"])',
    "ladder.render_b4_0_1_8_9_k10_s": 'cli.main(["render", "-b", "4", "-d", "0,1,8,9", "-k", "10"])',
    "ladder.is_tile_b3_0_1_1000002_s": "tiling.is_tile(core.DigitSet(3, (0, 1, 1_000_002)))",
}

_CHILD = """\
import os, sys, time
from tilescope import cli, core, tiling
sys.stdout = open(os.devnull, "w")
t = time.perf_counter()
{stmt}
print(time.perf_counter() - t, file=sys.stderr)
"""


def run_case(stmt: str, env: dict[str, str], cap: float = CAP_S) -> tuple[float, bool]:
    """(seconds, over_cap) for one statement in a fresh interpreter."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD.format(stmt=stmt)],
            env=env, capture_output=True, text=True, timeout=cap,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, True
    if done.returncode != 0:
        raise RuntimeError(f"ladder case failed: {stmt}\n{done.stderr[-500:]}")
    return float(done.stderr.split()[-1]), False


def run_ladder(env: dict[str, str]) -> dict[str, tuple[float, bool]]:
    """Every case, run with ``env`` (which must put tilescope on the path)."""
    return {name: run_case(stmt, env) for name, stmt in CASES.items()}
