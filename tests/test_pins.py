"""Output bytes of whole launches, pinned by sha256.

Each row is ``(sha256, seconds, env, argv)``: a fresh
``python -m tilescope.cli ARGV`` with ``PYTHONPATH=src`` and ``env`` added
must exit 0 within ``seconds``, write nothing to stderr, and write stdout
bytes with that sha256. ``TILESCOPE_WORKERS`` is dropped from the inherited
environment unless the row sets it. Under ``python -X dev`` each launch runs
in development mode too, so a warning such as an unclosed file's
``ResourceWarning`` reaches stderr and fails its row.

To pin a new launch, take its hash at the commit before the change:
``PYTHONPATH=src python -m tilescope.cli ARGV | sha256sum``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PINS = [
    # the search corpora of the benchmark: the class-count walk, the
    # difference-set automaton and the shared record tails; (4, 40) at
    # --mmax 1 holds inconclusive records
    ("555eb4a8d18dc4480ebac4c276d25900ad7d69081ccac3d61f91faa26a2b9ee7", 30, {}, "search -b 3 --bound 64 --json"),
    ("ee20264c72d8019f582d7f78caf258456d80ebd12d9a48306e896b5cb911cc88", 30, {}, "search -b 4 --bound 35 --json"),
    ("d5526c037c83de261a392b4e5253d2014a67c1f8f3046e8ce4da7857b10fa1ce", 30, {}, "search -b 5 --bound 14 --json"),
    ("e255f549baede54fc3532a3a5f95d036a30fb57fdb35ec7e4a0fb25cc2ba682a", 30, {}, "search -b 6 --bound 12 --json"),
    ("a48465ed7c4af3a5b907cb78216d950a8995f500473063833d838403d40901cd", 30, {}, "search -b 7 --bound 12 --json"),
    ("b30c16e4878775ef6c30a6ccf1852383bce0c433f7d4778ba1a57e9dff77fb6a", 30, {}, "search -b 6 --bound 16 --mmax 1 --json"),
    ("4ad3427bba9533fa7d03436cb7267beefc949ad2dfa9367bb8d5d873e2a8394e", 30, {}, "search -b 4 --bound 40 --mmax 1 --json"),
    # the same bytes from the serial loop and from the process pool
    ("e09509d2dfb952e5cbea30e2f0ca0b165eb6cd2e0efac306dc1a946f9587a352", 20, {}, "search -b 4 --bound 24 --json"),
    ("e09509d2dfb952e5cbea30e2f0ca0b165eb6cd2e0efac306dc1a946f9587a352", 20, {"TILESCOPE_WORKERS": "2"}, "search -b 4 --bound 24 --json"),
    # the carry automaton near its state cap, and a wide-span non-tile
    ("a4cb9f56aa438490dbf45fa4e2bfb625787d15ebe25679f39f275901d37f62f0", 20, {}, "analyze -b 3 -d 0,1,2000004 --json"),
    ("07df23a521be1a776c75f614f2ab54fa97c5514628175b4fecec09910cd2d5fa", 20, {}, "analyze -b 3 -d 0,36961,60001 --json"),
    # a JSON tower and an SVG one
    ("7cd5db86612386545d035aef87d3e8a02ba3850454752089412380d3f324ec05", 20, {}, "render -b 3 -d 0,1,11 -k 10 --format json"),
    ("4f283160b9de4be1c905bf5d5382a42e9adf58d78fb1a9d0a89fbaa7e58d0f81", 20, {}, "render -b 4 -d 0,1,8,9 -k 6"),
    # towers whose top level, 26 963 intervals, spans many write slices
    ("d32da3a7fc86e5096c04ea83601146c7457d297915f2ba68ecd0aa7edae18fd4", 20, {}, "render -b 3 -d 0,1,11 -k 12 --format json"),
    ("d71c8c0f8448542a7137c57e1339431ef7b062f66ec7d6fb44182bafe8e99d77", 20, {}, "render -b 3 -d 0,1,11 -k 12 --format svg"),
    # weak product forms, stage by stage: gen_weak_product_form([0, 1],
    # [0, 2], m, {(1, 2): 1}) at base 4, stages 3-8
    ("22da00d5d4856522f6951a135366218973ba58a75bc40ef6b3335b55911802ba", 20, {}, "analyze -b 4 -d 0,1,128,385 --kmax 2 --json"),
    ("36b4a489cbc74e2dcbf2c39017ef11841ddadf09d8a89c2e7e55bb44bde419df", 20, {}, "analyze -b 4 -d 0,1,512,1537 --kmax 2 --json"),
    ("e0f04f21f60324e3fbe9c7c58b897550bb695cb7cc7a128025662d0ca9b9570b", 20, {}, "analyze -b 4 -d 0,1,2048,6145 --kmax 2 --json"),
    ("9c489d9bd1d6877cc4566f691791027842d20761d57cb6e56c080f37ad8bc340", 20, {}, "analyze -b 4 -d 0,1,8192,24577 --kmax 2 --json"),
    ("7b011e55cd96644ccd8288159ad946e86eb6fe25149477b8ec2205316fcbe5a2", 20, {}, "analyze -b 4 -d 0,1,32768,98305 --kmax 2 --json"),
    ("be8b190ef19854ab76f966931cf13bdaf8b174d73b203261ca1ce3267a831878", 30, {}, "analyze -b 4 -d 0,1,131072,393217 --kmax 2 --json"),
    # the two-prime controls, where the relaxed and the strict (T2) differ:
    # base 6, gen_weak_product_form([0, 1, 2], [0, 3], m, {(1, 3): 1,
    # (2, 0): 2}), stages 3-7
    ("98abe8384e69dc34109a47fff7b63c93bae8e6cc278d8fdaf3bc4cb6d687d34f", 20, {}, "analyze -b 6 -d 0,1,648,650,1945,2594 --kmax 2 --json"),
    ("fed9f9ad5cd849186eff5f0e01a72d30f7f49c214fc6a21539c712e90f0037a1", 20, {}, "analyze -b 6 -d 0,1,3888,3890,11665,15554 --kmax 2 --json"),
    ("628004f51de6a9bf35f830c27b97632e4dc59d36705ef6c40f7e5b72972863e9", 20, {}, "analyze -b 6 -d 0,1,23328,23330,69985,93314 --kmax 2 --json"),
    ("2eaaa6c09d4276117c56460481f523fd2e400084bd9a7b1bcb1eccbee41ad302", 20, {}, "analyze -b 6 -d 0,1,139968,139970,419905,559874 --kmax 2 --json"),
    ("7c6a492a355538dac9f70ffa791f9aa73a8ed82fc1a58617cd386c1e06127173", 30, {}, "analyze -b 6 -d 0,1,839808,839810,2519425,3359234 --kmax 2 --json"),
    # base 12, gen_weak_product_form([0, 1, 2, 3], [0, 4, 8], m,
    # {(1, 4): 1, (3, 8): 2}), stages 2-5
    ("e24c2db70079330664a9e9dff082cd32a2feea60b6ef0e709d4f0b81dce0a595", 20, {}, "analyze -b 12 -d 0,1,2,3,576,578,579,1152,1153,1154,2305,4611 --kmax 2 --json"),
    ("b3f08a91e63bda0dba2b3c40b4066c9bc6e2c326a6a988d7e790565cecfb460b", 20, {}, "analyze -b 12 -d 0,1,2,3,6912,6914,6915,13824,13825,13826,27649,55299 --kmax 2 --json"),
    ("3c5f987bbe460681816f8efa6d665510cecae9eb104402bfb7667a61ff3b7833", 20, {}, "analyze -b 12 -d 0,1,2,3,82944,82946,82947,165888,165889,165890,331777,663555 --kmax 2 --json"),
    ("4b3dfe630a2ca9268eadaeac53626574e44283678a4696e344dd6b1d095f86ac", 30, {}, "analyze -b 12 -d 0,1,2,3,995328,995330,995331,1990656,1990657,1990658,3981313,7962627 --kmax 2 --json"),
]

IDS = [" ".join([*(f"{k}={v}" for k, v in env.items()), argv]) for _, _, env, argv in PINS]


@pytest.mark.parametrize("sha256, seconds, env, argv", PINS, ids=IDS)
def test_launch_bytes(sha256, seconds, env, argv):
    environ = {k: v for k, v in os.environ.items() if k != "TILESCOPE_WORKERS"}
    environ.update(env, PYTHONPATH=str(SRC))
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    cmd = [sys.executable, *dev, "-m", "tilescope.cli", *argv.split()]
    done = subprocess.run(cmd, env=environ, capture_output=True, timeout=seconds)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == sha256
