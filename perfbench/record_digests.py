"""Record the digests of pass 0 under the default seed, for every workload.

Run from the root of a checkout, only when output bytes are meant to
change:

    python3 perfbench/record_digests.py

It writes ``perfbench/digests.json``.  Every benchmark run then checks
that the program still produces exactly these bytes.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import gate  # noqa: E402
from tilescope import cli  # noqa: E402
from workloads import GENERATORS, make_pass  # noqa: E402


def main() -> int:
    record = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for workload in GENERATORS:
        items = make_pass(workload, run.DEFAULT_SEED, 0)
        outputs = [run.run_item(cli, item)[2] for item in items]
        record["workloads"][workload] = {
            "sha256": gate.pass_digest(outputs),
            "items": [gate.item_digest(out) for out in outputs],
        }
        print(f"{workload}: {len(items)} outputs, {sum(map(len, outputs))} bytes")
    gate.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
