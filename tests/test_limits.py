"""The documented prime limit, run at its edge under time and memory budgets.

Each campaign runs in a fresh interpreter, and its peak RSS is that
child's own ru_maxrss from os.wait4. On Linux a child's ru_maxrss also
counts the resident set of the process that spawned it, so the CLI is
spawned by a small launcher interpreter rather than by the test process,
whose own size would otherwise be measured.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# argv: OUT_FILE CMD...; runs CMD with inherited stdio and writes
# [exit code, wall seconds, peak RSS in MB] of that one child to OUT_FILE.
LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as fh:
    json.dump([proc.returncode, seconds, usage.ru_maxrss / 1024], fh)  # KB on Linux
"""

pytestmark = pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")


def run_cli(tmp_path, *argv: str) -> tuple[int, bytes, float, float]:
    """Exit code, stdout, wall seconds and peak RSS in MB of one CLI process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    out_file = tmp_path / "usage.json"
    stdout = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(out_file),
         sys.executable, "-m", "pascalfib.cli", *argv],
        stdout=subprocess.PIPE, env=env, check=True).stdout
    code, seconds, peak_mb = json.loads(out_file.read_text())
    return code, stdout, seconds, peak_mb


def test_order_laws_at_the_largest_primes_below_2_31(tmp_path):
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path,
        "verify", "--laws",
        "scalar-power,p-minus-1,p-plus-1,order-bound,bloom-wall,period-exactness",
        "--n", "2..8", "--primes", "2147483647,2147483629,2147483587")
    report = json.loads(stdout)
    assert code == 0
    assert report["summary"]["fail"] == 0
    assert len(report["checks"]) == 4 * 7 * 3 + 2 * 3
    assert seconds < 30, seconds
    assert peak_mb < 100, peak_mb


def test_scalar_power_near_1e5_stays_small(tmp_path):
    # Entry point p + 1, so the scalar needs F_{e-1} = F_p mod p, whose exact
    # value has about 69 000 bits; it must never be computed or cached exactly.
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path,
        "verify", "--laws", "scalar-power", "--n", "4", "--primes", "99707")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 1, "fail": 0}
    assert peak_mb < 100, peak_mb
