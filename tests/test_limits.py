"""The documented limits (n <= 64, |e| <= 64, primes below 2^31, Fibonacci
indices up to 10^6), run at their edges under time and memory budgets.

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

pytestmark = [pytest.mark.limits,
              pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")]


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


def test_order_laws_at_n_64_and_the_largest_primes_below_2_31(tmp_path):
    # Every power of R_64 mod p comes from one ladder of about 34 rungs
    # per (n, p). Measured on a 2-vCPU x86_64 sandbox: 0.8-1.4 s and 21 MB;
    # one power per exponent with the unpacked multiply took 12.5-17.8 s.
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path,
        "verify", "--laws", "left-order,scalar-power,p-minus-1,p-plus-1,order-bound",
        "--n", "64", "--primes", "2147483629,2147483647")
    report = json.loads(stdout)
    assert code == 0
    # 2147483629 = 4 mod 5 meets only the p-minus-1 hypothesis, and
    # 2147483647 = 2 mod 5 only the p-plus-1 one.
    assert len(report["checks"]) == 5 * 2
    assert report["summary"] == {"pass": 8, "fail": 0}
    assert seconds < 60, seconds
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


def test_right_matrix_power_minus_64_at_n_64(tmp_path):
    # The negative power squares R_64^-1, the backward Taylor shift of I.
    code, stdout, seconds, peak_mb = run_cli(tmp_path, "matrix", "right", "64", "pow", "-64")
    rows = stdout.decode().splitlines()
    assert code == 0
    assert len(rows) == 64 and all(len(row.split()) == 64 for row in rows)
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_left_closed_form_at_e_minus_64_and_n_64(tmp_path):
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws", "left-closed-form", "--n", "64", "--e=-64..-64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 1, "fail": 0}
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_cell_laws_at_e_64_and_n_64(tmp_path):
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws", "fib-recurrence,border-formulas,row-propagation",
        "--n", "64", "--e=64..64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 3, "fail": 0}
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_left_closed_form_over_the_whole_e_range_at_n_64(tmp_path):
    # The walk inverts L_64 once, at e = -64, and steps up from there.
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws", "left-closed-form", "--n", "64", "--e=-64..64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 129, "fail": 0}
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_left_closed_form_over_the_whole_grid(tmp_path):
    # One walk of L_64 over e -64..64, and every L_n**e read off it as
    # its leading block, with or without --fail-fast. Measured on a
    # 2-vCPU x86_64 sandbox: 2.2 s and 35 MB; 16.7 s with one walk per n.
    outputs = []
    for flags in ((), ("--fail-fast",)):
        code, stdout, seconds, peak_mb = run_cli(
            tmp_path, "verify", "--laws", "left-closed-form", "--n", "1..64", "--e=-64..64",
            *flags)
        assert code == 0
        assert json.loads(stdout)["summary"] == {"pass": 64 * 129, "fail": 0}
        assert seconds < 10, (flags, seconds)
        assert peak_mb < 100, (flags, peak_mb)
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_cell_laws_over_e_1_to_64_at_n_64(tmp_path):
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws", "fib-recurrence,border-formulas,row-propagation",
        "--n", "64", "--e", "1..64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 64 + 64 + 63, "fail": 0}
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_the_seven_walked_laws_at_n_64_over_the_whole_e_range(tmp_path):
    # Every law that takes laws.power, in one campaign: left-closed-form
    # walks L_64 first, and then the cell laws walk R_64, with one power
    # of each held. Measured on a 2-vCPU x86_64 sandbox: about 10 s.
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws",
        "left-closed-form,square-recurrence,cube-recurrence,fib-recurrence,"
        "border-formulas,row-expansion,row-propagation",
        "--n", "64", "--e=-64..64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 129 + 3 + 64 + 64 + 63, "fail": 0}
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_pascal_rule_products_at_n_64_over_the_whole_e_range(tmp_path):
    # Every product by the built L_64 or R_64 in one campaign, each a
    # Taylor shift: the walks of L_64 over e -64..64 and of R_64 over
    # e 1..64, and the products of the inverse closed forms with both.
    # eigen-conjecture makes no product: it reads tr(R_64^k), k 1..64,
    # off the R_64 walk. Measured on a 2-vCPU x86_64 host: 3.9-4.6 s
    # and 20 MB, when charpoly(R_64) still made 31 products
    # R_64^j @ R_64; 6.8-7.6 s with the packed and plain dot products
    # that the shifts replaced.
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws",
        "left-closed-form,fib-recurrence,border-formulas,row-propagation,"
        "inverse-closed-forms,eigen-conjecture",
        "--n", "64", "--e=-64..64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 129 + 64 + 64 + 63 + 1 + 1, "fail": 0}
    assert seconds < 60, seconds
    assert peak_mb < 100, peak_mb


def test_eigen_conjecture_at_n_64(tmp_path):
    # One charpoly(R_64): 31 products R_64^j @ R_64 and 64 trace inner
    # products. Measured on a 2-vCPU x86_64 host: 0.65-1.0 s and 18 MB;
    # 1.0-1.3 s with the packed and plain dot products that the shifts
    # replaced, and the 64 products of Faddeev-LeVerrier took 2.2-2.4 s.
    code, stdout, seconds, peak_mb = run_cli(
        tmp_path, "verify", "--laws", "eigen-conjecture", "--n", "64..64")
    assert code == 0
    assert json.loads(stdout)["summary"] == {"pass": 1, "fail": 0}
    assert seconds < 30, seconds
    assert peak_mb < 100, peak_mb


def _last_nine_digits(k: int, a: int, b: int) -> int:
    """Term k of the Fibonacci-type sequence starting a, b, mod 10^9."""
    for _ in range(k):
        a, b = b, (a + b) % 10**9
    return a


@pytest.mark.parametrize("query, start", [("value", (0, 1)), ("lucas", (2, 1))])
def test_fib_index_at_the_limit_of_1e6(tmp_path, query, start):
    # The decimal conversion of a 208 988-digit integer is most of the time.
    code, stdout, seconds, peak_mb = run_cli(tmp_path, "fib", query, "1000000")
    digits = stdout.decode().strip()
    assert code == 0
    assert len(digits) == 208_988 and digits.isdigit()
    assert int(digits[-9:]) == _last_nine_digits(10**6, *start)
    assert seconds < 10, seconds
    assert peak_mb < 100, peak_mb


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("query", ["value", "lucas"])
def test_fib_index_above_the_limit_exits_2(query, fmt):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pascalfib.cli", "fib", query, "1000001", "--format", fmt],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: index 1000001 exceeds the limit 1000000\n"


@pytest.mark.parametrize("kind", ["left", "right"])
def test_determinant_at_n_64(tmp_path, kind):
    # Bareiss elimination over all 64 columns; about 20 ms in process.
    code, stdout, seconds, peak_mb = run_cli(tmp_path, "matrix", kind, "64", "det")
    assert code == 0
    assert stdout == b"1\n"
    assert seconds < 30, seconds
    assert peak_mb < 100, peak_mb
