import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import pascalfib.fib as fib_module
from pascalfib import cli, laws, modorder, spectra
from pascalfib.fib import lucas
from pascalfib.pascal import build_left, build_right, left_power_rows
from pascalfib.report import FAIL, PASS

ALL_LAWS = ",".join(cli.LAW_REGISTRY)
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout=60):
    """`python *args` in a fresh interpreter with src on its path."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=timeout)


class TestMatrixCommand:
    def test_right_pow_plain(self, capsys):
        code, out, _ = run(capsys, "matrix", "right", "2", "pow", "5")
        assert code == 0
        assert out == "3 5\n5 8\n"

    def test_left_inverse_plain(self, capsys):
        code, out, _ = run(capsys, "matrix", "left", "3", "inverse")
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["1", "0", "0"], ["-1", "1", "0"], ["1", "-2", "1"]]

    def test_pow_zero_is_identity(self, capsys):
        code, out, _ = run(capsys, "matrix", "left", "3", "pow", "0")
        assert code == 0
        assert out == "1 0 0\n0 1 0\n0 0 1\n"

    def test_json_round_trip_exact(self, capsys):
        code, out, _ = run(capsys, "matrix", "right", "4", "pow", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0][0] == "0" or isinstance(
            payload["entries"][0][0], str)
        assert payload["modulus"] is None
        assert payload["entries"] == [[str(x) for x in row]
                                      for row in cli.mat_pow(build_right(4), 3).rows]

    def test_json_round_trip_modular(self, capsys):
        code, out, _ = run(capsys, "matrix", "right", "5", "pow", "4",
                           "--mod", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["modulus"] == 7
        assert payload["entries"] == [
            [str(x) for x in row]
            for row in cli.mat_mod(cli.mat_pow(build_right(5), 4), 7).rows]

    def test_json_entries_are_decimal_strings(self, capsys):
        _, out, _ = run(capsys, "matrix", "left", "20", "pow", "3",
                        "--format", "json")
        payload = json.loads(out)
        assert all(isinstance(x, str) for row in payload["entries"] for x in row)

    def test_det(self, capsys):
        code, out, _ = run(capsys, "matrix", "right", "2", "det")
        assert code == 0 and out == "-1\n"

    def test_charpoly_plain(self, capsys):
        code, out, _ = run(capsys, "matrix", "right", "3", "charpoly")
        assert code == 0
        assert out == "x^3 - 2*x^2 - 2*x + 1\n"

    def test_charpoly_json(self, capsys):
        _, out, _ = run(capsys, "matrix", "right", "2", "charpoly",
                        "--format", "json")
        assert json.loads(out)["coeffs"] == ["-1", "-1", "1"]

    def test_csv_matrix(self, capsys):
        _, out, _ = run(capsys, "matrix", "right", "2", "pow", "5",
                        "--format", "csv")
        assert out == "3,5\n5,8\n"

    # ModMatrix takes any modulus, so each command whose theorems need a
    # prime refuses a composite itself, before it builds a matrix.
    COMPOSITE_REFUSALS = {
        "matrix left 3 show --mod 6": "modulus 6 is not prime",
        "order right 4 9": "9 is not prime",
        "verify --laws left-order --primes 4": "invalid prime 4 (must be prime, < 2^31)",
        "fib bloom-wall 9": "bloom-wall requires an odd prime other than 5, got 9",
    }

    @pytest.mark.parametrize("argv", COMPOSITE_REFUSALS)
    def test_composite_modulus_is_usage_error(self, capsys, argv):
        message = self.COMPOSITE_REFUSALS[argv]
        assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    def test_pow_without_exponent(self, capsys):
        code, _, err = run(capsys, "matrix", "left", "3", "pow")
        assert code == 2 and "exponent" in err

    @pytest.mark.parametrize("action, exponent", [
        ("inverse", "-2"), ("show", "5"), ("det", "0"), ("charpoly", "3")])
    def test_exponent_without_pow(self, capsys, action, exponent):
        code, out, err = run(capsys, "matrix", "left", "3", action, exponent)
        assert (code, out, err) == (2, "", f"error: {action} takes no exponent\n")

    @pytest.mark.parametrize("exponent", ["64", "-64"])
    def test_exponent_at_the_limit(self, capsys, exponent):
        code, out, err = run(capsys, "matrix", "left", "2", "pow", exponent)
        assert (code, err) == (0, "")
        assert [line.split() for line in out.splitlines()] == [["1", "0"], [exponent, "1"]]

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("exponent", ["65", "-65"])
    def test_exponent_past_the_limit_exits_2(self, capsys, exponent, fmt):
        code, out, err = run(capsys, "matrix", "right", "64", "pow", exponent,
                             "--format", fmt)
        assert (code, out, err) == (2, "", "error: exponent must be in -64..64\n")

    def test_dimension_cap(self, capsys):
        code, _, err = run(capsys, "matrix", "left", "65", "show")
        assert code == 2

    def test_bad_action_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matrix", "left", "3", "transpose"])
        assert exc.value.code == 2


def _decimal(value: int) -> str:
    """str(value) with the interpreter's int-to-string cap lifted, where it
    has one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(value)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(cap)


class TestFibCommand:
    def test_entry_point(self, capsys):
        assert run(capsys, "fib", "entry-point", "13")[:2] == (0, "7\n")

    def test_period(self, capsys):
        assert run(capsys, "fib", "period", "5")[:2] == (0, "20\n")

    def test_value(self, capsys):
        assert run(capsys, "fib", "value", "10")[:2] == (0, "55\n")

    def test_lucas(self, capsys):
        assert run(capsys, "fib", "lucas", "2")[:2] == (0, "3\n")

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_value_past_the_int_string_cap(self, fmt):
        # F_20578 has 4301 digits, one past the interpreter's default cap on
        # int-to-string conversion; a fresh process starts with that cap.
        proc = run_python("-m", "pascalfib.cli", "fib", "value", "20578", "--format", fmt)
        assert (proc.returncode, proc.stderr) == (0, "")
        value = json.loads(proc.stdout)["value"] if fmt == "json" else proc.stdout[:-1]
        assert value == _decimal(fib_module.fib(20578))
        assert len(value) == 4301

    def test_lucas_past_the_int_string_cap(self):
        proc = run_python("-m", "pascalfib.cli", "fib", "lucas", "21000")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == _decimal(lucas(21000)) + "\n"

    def test_bloom_wall(self, capsys):
        code, out, _ = run(capsys, "fib", "bloom-wall", "13", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entry_point"] == "7"
        assert payload["verdict"] == PASS

    @pytest.mark.parametrize("p, fmt, expected", [
        ("13", "csv", "p,13\nresidue_mod5,3\nentry_point,7\nperiod,28\n"
                      "check:entry-point-divides-p-plus-1,pass\n"
                      "check:period-divides-2p-plus-2,pass\nverdict,pass\n"),
        ("13", "plain", "p: 13\nresidue_mod5: 3\nentry_point: 7\nperiod: 28\n"
                        "check entry-point-divides-p-plus-1: pass\n"
                        "check period-divides-2p-plus-2: pass\nverdict: pass\n"),
        ("19", "csv", "p,19\nresidue_mod5,4\nentry_point,18\nperiod,18\n"
                      "check:period-divides-p-minus-1,pass\nverdict,pass\n"),
        ("19", "plain", "p: 19\nresidue_mod5: 4\nentry_point: 18\nperiod: 18\n"
                        "check period-divides-p-minus-1: pass\nverdict: pass\n"),
    ])
    def test_bloom_wall_csv_and_plain_bytes(self, capsys, p, fmt, expected):
        # One line per check, as `order` writes them, not the checks dict's repr.
        assert run(capsys, "fib", "bloom-wall", p, "--format", fmt) == (0, expected, "")

    def test_bloom_wall_composite_rejected(self, capsys):
        assert run(capsys, "fib", "bloom-wall", "9")[0] == 2

    def test_small_modulus_rejected(self, capsys):
        assert run(capsys, "fib", "entry-point", "1")[0] == 2


class TestOrderCommand:
    def test_right_4_13(self, capsys):
        code, out, _ = run(capsys, "order", "right", "4", "13", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == "28"

    def test_left_5_7(self, capsys):
        code, out, _ = run(capsys, "order", "left", "5", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == "7"

    def test_left_n1_excluded(self, capsys):
        code, _, err = run(capsys, "order", "left", "1", "7")
        assert code == 2

    @pytest.mark.parametrize("kind", ["left", "right"])
    @pytest.mark.parametrize("n", ["0", "1", "65"])
    def test_dimension_outside_2_to_64_is_one_usage_error(self, capsys, kind, n):
        assert run(capsys, "order", kind, n, "7") == (
            2, "", f"error: dimension must be in 2..{cli.MAX_N}\n")

    def test_composite_p_rejected(self, capsys):
        assert run(capsys, "order", "right", "3", "9")[0] == 2

    @pytest.mark.parametrize("argv, fmt, expected", [
        (("right", "4", "13"), "csv",
         "field,value\nkind,right\nn,4\np,13\norder,28\nwitness_exponent_bound,28\n"
         "check:within-2p-plus-2,pass\ncheck:tightness-even-dimension,pass\n"),
        (("right", "4", "13"), "plain",
         "kind: right\nn: 4\np: 13\norder: 28\nwitness_exponent_bound: 28\n"
         "check within-2p-plus-2: pass (order=28 bound=28)\n"
         "check tightness-even-dimension: pass (order=28 bound=28)\n"),
        (("left", "4", "13"), "csv",
         "field,value\nkind,left\nn,4\np,13\norder,13\nwitness_exponent_bound,13\n"
         "check:order-equals-p,pass\ncheck:closed-form-offdiagonal,pass\n"),
        (("left", "4", "13"), "plain",
         "kind: left\nn: 4\np: 13\norder: 13\nwitness_exponent_bound: 13\n"
         "check order-equals-p: pass (order=13)\ncheck closed-form-offdiagonal: pass\n"),
        (("right", "2", "5"), "csv",
         "field,value\nkind,right\nn,2\np,5\norder,20\nwitness_exponent_bound,20\n"
         "check:within-2p-plus-2,hypothesis-not-met\n"
         "check:tightness-even-dimension,hypothesis-not-met\n"),
        (("right", "2", "5"), "plain",
         "kind: right\nn: 2\np: 5\norder: 20\nwitness_exponent_bound: 20\n"
         "check within-2p-plus-2: hypothesis-not-met (order=20)\n"
         "check tightness-even-dimension: hypothesis-not-met (order=20)\n"),
    ])
    def test_csv_and_plain_bytes(self, capsys, argv, fmt, expected):
        assert run(capsys, "order", *argv, "--format", fmt) == (0, expected, "")


class TestModulusLimit:
    # A prime with (P - 1)/2 prime, far above 2^31: factoring P -/+ 1 by
    # trial division would not finish, so it must be refused up front.
    P = "200000000000002799"

    @pytest.mark.parametrize("argv", [
        ("order", "right", "4", P), ("order", "left", "4", P),
        ("fib", "entry-point", P), ("fib", "period", P), ("fib", "bloom-wall", P),
        ("order", "right", "4", "2147483648"), ("fib", "period", "2147483648")],
        ids=" ".join)
    def test_above_2_31_is_usage_error(self, argv):
        proc = run_python("-m", "pascalfib.cli", *argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: modulus {argv[-1]} exceeds the limit 2^31 - 1\n"

    def test_largest_prime_below_2_31_accepted(self, capsys):
        assert run(capsys, "fib", "entry-point", "2147483647")[:2] == (0, "2147483648\n")

    # 1287836182261 * 2575672364521, a strong pseudoprime to the first 12
    # prime bases, so Miller-Rabin alone would take it for a prime.
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("action", ["det", "charpoly", "show"])
    def test_matrix_mod_above_2_31_is_usage_error(self, capsys, action, fmt):
        m = "3317044064679887385961981"
        code, out, err = run(capsys, "matrix", "right", "3", action, "--mod", m,
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: modulus {m} exceeds the limit 2^31 - 1\n"

    def test_matrix_mod_at_the_limit_accepted(self, capsys):
        # det R_3 = -1.
        assert run(capsys, "matrix", "right", "3", "det", "--mod", "2147483647") == (
            0, "2147483646\n", "")

    # 2 * 1073741783, a prime = 3 mod 5: a composite with a large prime
    # factor, answered by factor removal rather than a scan of 6m steps.
    @pytest.mark.parametrize("command, value", [("period", "2147483568"),
                                                ("entry-point", "1073741784")])
    def test_composite_below_2_31_answers(self, command, value):
        proc = run_python("-m", "pascalfib.cli", "fib", command, "2147483566", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, value + "\n", "")


class TestVerifyCommand:
    def test_mod2_campaign(self, capsys):
        code, out, _ = run(capsys, "verify", "--laws", "mod2", "--n", "2..12",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["campaign"] == "mod2"
        assert payload["summary"] == {"pass": 11, "fail": 0}
        assert all(c["verdict"] == PASS for c in payload["checks"])

    def test_schema_shape(self, capsys):
        _, out, _ = run(capsys, "verify", "--laws", "fib-recurrence",
                        "--n", "2..4", "--e", "1..3", "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"campaign", "checks", "summary"}
        for check in payload["checks"]:
            assert set(check) <= {"law", "params", "verdict", "witness"}
            assert check["verdict"] in ("pass", "fail", "hypothesis-not-met")

    def test_unknown_law_rejected_before_computation(self, capsys):
        code, _, err = run(capsys, "verify", "--laws", "no-such-law")
        assert code == 2
        assert "unknown law" in err

    def test_empty_range_rejected(self, capsys):
        assert run(capsys, "verify", "--laws", "mod2", "--n", "9..2")[0] == 2

    def test_largest_prime_below_2_31_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--laws", "bloom-wall",
                           "--primes", "2147483647", "--format", "json")
        assert code == 0
        assert json.loads(out)["checks"][0]["verdict"] == PASS

    def test_next_prime_above_2_31_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--laws", "bloom-wall",
                             "--primes", "2147483659")
        assert code == 2
        assert out == ""
        assert "invalid prime 2147483659 (must be prime, < 2^31)" in err

    def test_tightness_hypothesis_not_met_at_small_entry_point(self, capsys):
        # 4157 = 2 mod 5 has entry point 297 < p + 1.
        code, out, _ = run(capsys, "verify", "--laws", "order-bound",
                           "--n", "2..4", "--primes", "4157", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {"pass": 3, "fail": 0}
        code, out, _ = run(capsys, "order", "right", "4", "4157")
        assert code == 0
        assert "check tightness-even-dimension: hypothesis-not-met" in out

    def test_deterministic_output(self, capsys):
        args = ("verify", "--laws", "identities,hardy-wright", "--e", "1..30",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_threads_match_sequential(self, capsys):
        args = ("verify", "--laws", "scalar-power", "--n", "2..5",
                "--primes", "2,3,5,7", "--format", "json")
        _, sequential, _ = run(capsys, *args)
        _, threaded, _ = run(capsys, *args, "--threads", "4")
        assert sequential == threaded

    def test_threads_below_one_rejected(self, capsys):
        assert run(capsys, "verify", "--laws", "mod2", "--threads", "0") == (
            2, "", "error: threads must be at least 1\n")

    def test_walked_powers_threads_match_sequential(self, capsys):
        args = ("verify", "--laws", "left-closed-form,fib-recurrence,row-propagation",
                "--n", "2..6", "--e=-3..9", "--format", "json")
        _, sequential, _ = run(capsys, *args)
        _, threaded, _ = run(capsys, *args, "--threads", "2")
        assert sequential == threaded

    def test_repeated_law_ids_run_once(self, capsys):
        for fmt in ("json", "plain"):
            once = run(capsys, "verify", "--laws", "mod2", "--n", "2..3", "--format", fmt)
            twice = run(capsys, "verify", "--laws", "mod2,mod2", "--n", "2..3",
                        "--format", fmt)
            assert twice == once

    def test_repeated_primes_run_once(self, capsys):
        for fmt in ("json", "plain"):
            once = run(capsys, "verify", "--laws", "bloom-wall", "--primes", "7",
                       "--format", fmt)
            twice = run(capsys, "verify", "--laws", "bloom-wall", "--primes", "7,7",
                        "--format", fmt)
            assert twice == once
            assert once[0] == 0

    def test_repeats_keep_first_occurrence_order(self, capsys):
        cfg = cli.CampaignConfig(("bloom-wall", "mod2", "bloom-wall"),
                                 primes=(11, 7, 11, 3, 7))
        assert (cfg.laws, cfg.primes) == (("bloom-wall", "mod2"), (11, 7, 3))
        _, out, _ = run(capsys, "verify", "--laws", "bloom-wall,mod2,bloom-wall",
                        "--n", "2", "--primes", "11,7,11,3,7", "--format", "json")
        report = json.loads(out)
        assert report["campaign"] == "bloom-wall+mod2"
        assert report["summary"] == {"pass": 4, "fail": 0}

    def test_hypothesis_not_met_keeps_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--laws", "p-minus-1",
                           "--n", "2..4", "--primes", "13", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(c["verdict"] == "hypothesis-not-met" for c in payload["checks"])
        assert payload["summary"]["fail"] == 0

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "laws": ["mod2"], "n_range": [2, 6], "output_format": "json"}))
        code, out, _ = run(capsys, "verify", "--config", str(config))
        assert code == 0
        assert json.loads(out)["summary"]["pass"] == 5

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({"laws": ["mod2"], "bogus": 1}))
        assert run(capsys, "verify", "--config", str(config))[0] == 2

    @pytest.mark.parametrize("text, message", [
        ('{"laws": ["mod2"], "threads": "2"}', "'threads' must be an integer"),
        ('{"laws": ["mod2"], "n_range": [2, "4"]}', "'n_range' must be a pair"),
        ('{"laws": ["mod2"], "e_range": [1]}', "'e_range' must be a pair"),
        ('["mod2"]', "must be a JSON object"),
        ('7', "must be a JSON object"),
        ('{"laws": ["mod2"], "fail_fast": "no"}', "'fail_fast' must be true or false"),
        ('{"laws": ["left-order"], "primes": [2.0]}', "'primes' must be a list of integers"),
        ('{"laws": ["mod2"], "threads": true}', "'threads' must be an integer"),
        ('{"laws": ["mod2"], "threads": 0}', "threads must be at least 1"),
        ('{"laws": [2]}', "'laws' must be a list of law id strings"),
        pytest.param("[" * 100_000, "cannot read config: maximum recursion depth exceeded",
                     id="deep-nesting"),
    ])
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, text, message):
        config = tmp_path / "campaign.json"
        config.write_text(text)
        code, out, err = run(capsys, "verify", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("data", [b"\xff\xfe", b'{"laws": '], ids=["not-utf-8", "truncated"])
    def test_unreadable_config_is_usage_error(self, capsys, tmp_path, data):
        config = tmp_path / "campaign.json"
        config.write_bytes(data)
        code, out, err = run(capsys, "verify", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config: ") and err.count("\n") == 1

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "laws": ["mod2"], "n_range": [2, 3], "output_format": "json"}))
        _, out, _ = run(capsys, "verify", "--config", str(config), "--n", "2..5")
        assert json.loads(out)["summary"]["pass"] == 4

    def test_csv_campaign(self, capsys):
        _, out, _ = run(capsys, "verify", "--laws", "mod2", "--n", "2..4",
                        "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "law,n,e,p,verdict,witness"
        assert lines[1] == "mod2,2,,,pass,"


FAIL_FAST_REPORT = """\
PASS               border-formulas          n=2 e=1
PASS               border-formulas          n=2 e=2
PASS               border-formulas          n=2 e=3
PASS               border-formulas          n=3 e=1
FAIL               border-formulas          n=3 e=2  witness={"i":1,"j":2,"lhs":"2","rhs":"3","failing_cells":1}
PASS               fib-recurrence           n=2 e=1
PASS               fib-recurrence           n=2 e=2
PASS               fib-recurrence           n=2 e=3
PASS               fib-recurrence           n=3 e=1
PASS               fib-recurrence           n=3 e=2
PASS               fib-recurrence           n=3 e=3
summary: pass=10 fail=1
"""


class TestExitCodeContract:
    def _inject_failing_law(self, monkeypatch):
        def check(n):
            return (FAIL, {"reason": "injected"}) if n == 2 else (PASS, None)
        monkeypatch.setitem(cli.LAW_REGISTRY, "stub", cli.Law(("n",), check))

    def test_failure_exits_one_with_full_report(self, capsys, monkeypatch):
        self._inject_failing_law(monkeypatch)
        code, out, _ = run(capsys, "verify", "--laws", "stub", "--n", "1..3",
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"] == {"pass": 2, "fail": 1}
        failing = [c for c in payload["checks"] if c["verdict"] == FAIL]
        assert failing[0]["witness"] == {"reason": "injected"}

    def test_fail_fast_flushes_partial_report(self, capsys, monkeypatch):
        self._inject_failing_law(monkeypatch)
        code, out, _ = run(capsys, "verify", "--laws", "stub", "--n", "1..3",
                           "--fail-fast", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        # Stopped after the failure: the third check never ran.
        assert len(payload["checks"]) == 2
        assert payload["summary"]["fail"] == 1

    def test_config_fail_fast_holds_without_the_flag(self, capsys, monkeypatch, tmp_path):
        # An unset flag stores None, so it leaves the config's value alone.
        self._inject_failing_law(monkeypatch)
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({"laws": ["stub"], "n_range": [1, 3], "fail_fast": True}))
        from_config = run(capsys, "verify", "--config", str(config))
        assert from_config[0] == 1
        assert len(json.loads(from_config[1])["checks"]) == 2
        assert run(capsys, "verify", "--laws", "stub", "--n", "1..3",
                   "--fail-fast") == from_config

    def test_fail_fast_keeps_request_order(self, capsys, monkeypatch):
        # border-formulas fails first at n = 3, e = 2. Run law by law, as
        # requested, every fib-recurrence check comes before that; run
        # point by point, fib-recurrence at (3, 3) would never run. The
        # report below was recorded before campaigns ran point by point.
        real = laws.binomial
        monkeypatch.setattr(laws, "binomial", lambda n, k: real(n, k) + (n == 2 and k == 1))
        code, out, err = run(capsys, "verify", "--laws", "fib-recurrence,border-formulas",
                             "--n", "2..3", "--e", "1..3", "--fail-fast",
                             "--format", "plain")
        assert (code, err) == (1, "")
        assert out == FAIL_FAST_REPORT

    def test_fail_fast_drops_a_check_past_the_first_failure(self, capsys, monkeypatch):
        # fib-recurrence is requested first and fails at (3, 3), and
        # border-formulas fails at (2, 1), which the walk order meets
        # first. That check runs, but it lies past the first failure in
        # request order, so the report leaves it out; the jobs past it
        # in request order never run.
        ran = []

        def inject(name, bad):
            law = cli.LAW_REGISTRY[name]

            def check(n, e):
                ran.append((name, n, e))
                return (FAIL, {"reason": "injected"}) if (n, e) == bad else law.check(n=n, e=e)
            monkeypatch.setitem(cli.LAW_REGISTRY, name, law._replace(check=check))

        inject("fib-recurrence", (3, 3))
        inject("border-formulas", (2, 1))
        code, out, err = run(capsys, "verify", "--laws", "fib-recurrence,border-formulas",
                             "--n", "2..3", "--e", "1..3", "--fail-fast",
                             "--format", "plain")
        assert (code, err) == (1, "")
        assert ran == [("fib-recurrence", 2, 1), ("border-formulas", 2, 1),
                       ("fib-recurrence", 2, 2), ("fib-recurrence", 2, 3),
                       ("fib-recurrence", 3, 1), ("fib-recurrence", 3, 2),
                       ("fib-recurrence", 3, 3)]
        assert out == (
            "PASS               fib-recurrence           n=2 e=1\n"
            "PASS               fib-recurrence           n=2 e=2\n"
            "PASS               fib-recurrence           n=2 e=3\n"
            "PASS               fib-recurrence           n=3 e=1\n"
            "PASS               fib-recurrence           n=3 e=2\n"
            'FAIL               fib-recurrence           n=3 e=3  witness={"reason":"injected"}\n'
            "summary: pass=5 fail=1\n")

    def test_fail_fast_prints_what_the_walk_order_prints(self, capsys):
        # A passing campaign runs every check in the walk order either
        # way, so --fail-fast changes none of its bytes.
        args = ("verify", "--laws", "eigen-conjecture,square-recurrence,cube-recurrence,"
                "row-expansion,fib-recurrence,border-formulas,row-propagation",
                "--n", "1..9", "--e", "1..9", "--format", "plain")
        walked = run(capsys, *args)
        assert walked[0] == 0
        assert run(capsys, *args, "--fail-fast") == walked

    LEFT_ORDER_FAIL_FAST = {
        # The bytes the campaign printed while left-order still ran by
        # (n, e) beside scalar-power; json by digest.
        "json": "1eb80a9d376f6e602d3c98dbc25606c8ee612403019828f691d3dcc014cfd5d2",
        "csv": (
            "law,n,e,p,verdict,witness\n"
            "left-order,2,,5,pass,\n"
            "left-order,2,,7,pass,\n"
            "left-order,3,,5,pass,\n"
            'left-order,3,,7,fail,{"order":"7";"checks":{"order-equals-p":"pass";'
            '"closed-form-offdiagonal":"fail"}}\n'),
        "plain": (
            "PASS               left-order               n=2 p=5\n"
            "PASS               left-order               n=2 p=7\n"
            "PASS               left-order               n=3 p=5\n"
            'FAIL               left-order               n=3 p=7  witness={"order":"7",'
            '"checks":{"order-equals-p":"pass","closed-form-offdiagonal":"fail"}}\n'
            "summary: pass=3 fail=1\n"),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_left_order_fail_fast_keeps_request_order(self, capsys, monkeypatch, fmt):
        # left-order fails at (3, 7) and (4, 5). Its walk runs p ascending
        # and n descending, so it meets (4, 5) first and then (3, 7), the
        # first failure in request order; the report is the request
        # order's prefix through (3, 7), and no scalar-power check is in it.
        real, ran = modorder.verify_left_order, []

        def failing(n, p):
            ran.append((n, p))
            report = real(n, p)
            if (n, p) not in ((3, 7), (4, 5)):
                return report
            checks = {**report.theorem_checks,
                      "closed-form-offdiagonal": modorder.CheckResult(FAIL, {})}
            return report._replace(theorem_checks=checks)

        monkeypatch.setattr(modorder, "verify_left_order", failing)
        code, out, err = run(capsys, "verify", "--laws", "left-order,scalar-power",
                             "--n", "2..4", "--primes", "5,7", "--fail-fast",
                             "--format", fmt)
        assert (code, err) == (1, "")
        assert ran == [(4, 5), (3, 5), (2, 5), (3, 7), (2, 7)]
        expected = self.LEFT_ORDER_FAIL_FAST[fmt]
        if fmt == "json":
            out = hashlib.sha256(out.encode()).hexdigest()
        assert out == expected


class TestFalseLeftOrderTheorem:
    """R_n in place of L_n makes L_n**p != I: a fail verdict, exit 1."""

    WITNESS = ('{"order":null,"checks":{"order-equals-p":"fail",'
               '"closed-form-offdiagonal":"pass"}}')

    @pytest.fixture(autouse=True)
    def right_for_left(self, monkeypatch):
        monkeypatch.setattr(modorder, "build_left", build_right)
        monkeypatch.setattr(modorder, "_left_held", None)

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_verify_left_order_fails(self, capsys, fmt):
        code, out, err = run(capsys, "verify", "--laws", "left-order", "--n", "3",
                             "--primes", "7", "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "json":
            assert json.loads(out)["checks"] == [
                {"law": "left-order", "params": {"n": 3, "p": 7}, "verdict": FAIL,
                 "witness": json.loads(self.WITNESS)}]
        elif fmt == "csv":
            assert out == ("law,n,e,p,verdict,witness\n"
                           f"left-order,3,,7,fail,{self.WITNESS.replace(',', ';')}\n")
        else:
            assert out == ("FAIL               left-order               n=3 p=7  "
                           f"witness={self.WITNESS}\nsummary: pass=0 fail=1\n")

    def test_order_left_fails(self, capsys):
        code, out, err = run(capsys, "order", "left", "3", "7", "--format", "json")
        assert (code, err) == (1, "")
        assert '"order": null' in out
        report = json.loads(out)
        assert report["order"] is None
        assert report["theorem_checks"] == {
            "order-equals-p": {"verdict": FAIL, "values": {}},
            "closed-form-offdiagonal": {"verdict": PASS, "values": {}}}

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "field,value\nkind,left\nn,3\np,7\norder,None\nwitness_exponent_bound,7\n"
                "check:order-equals-p,fail\ncheck:closed-form-offdiagonal,pass\n"),
        ("plain", "kind: left\nn: 3\np: 7\norder: None\nwitness_exponent_bound: 7\n"
                  "check order-equals-p: fail\ncheck closed-form-offdiagonal: pass\n"),
    ])
    def test_order_left_csv_and_plain_bytes(self, capsys, fmt, expected):
        assert run(capsys, "order", "left", "3", "7", "--format", fmt) == (1, expected, "")


class TestFalseFourthPowerTheorem:
    """A wrong entry point makes R_n**(4e) != I: a fail verdict, exit 1."""

    @pytest.fixture(autouse=True)
    def wrong_entry_point_at_13(self, monkeypatch):
        _wrong_entry_point_at_13(monkeypatch)

    def test_verify_scalar_power_fails(self, capsys):
        code, out, err = run(capsys, "verify", "--laws", "scalar-power", "--n", "4",
                             "--primes", "13", "--format", "json")
        assert code == 1
        assert err == ""
        (check,) = json.loads(out)["checks"]
        assert check["verdict"] == FAIL
        assert check["witness"]["order"] is None
        assert check["witness"]["checks"]["fourth-power-identity"] == FAIL

    @pytest.mark.parametrize("law", ["p-minus-1", "p-plus-1", "order-bound"])
    def test_other_right_order_laws_fail(self, capsys, law):
        code, out, _ = run(capsys, "verify", "--laws", law, "--n", "4",
                           "--primes", "11,13", "--format", "json")
        assert code == 1
        verdicts = {c["params"]["p"]: c["verdict"] for c in json.loads(out)["checks"]}
        assert verdicts[13] == FAIL
        assert verdicts[11] != FAIL

    def test_order_right_fails(self, capsys):
        code, out, err = run(capsys, "order", "right", "4", "13", "--format", "json")
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["order"] is None
        assert report["witness_exponent_bound"] == "32"
        assert report["theorem_checks"]["fourth-power-identity"] == {
            "verdict": FAIL, "values": {"entry_point": "8"}}

    @pytest.mark.parametrize("fmt, expected", [
        ("csv", "field,value\nkind,right\nn,4\np,13\norder,None\n"
                "witness_exponent_bound,32\ncheck:fourth-power-identity,fail\n"),
        ("plain", "kind: right\nn: 4\np: 13\norder: None\nwitness_exponent_bound: 32\n"
                  "check fourth-power-identity: fail (entry_point=8)\n"),
    ])
    def test_order_right_csv_and_plain_bytes(self, capsys, fmt, expected):
        assert run(capsys, "order", "right", "4", "13", "--format", fmt) == (1, expected, "")


class TestGoldenCampaign:
    """All 19 laws over a small grid, byte for byte as recorded."""

    ARGS = ("verify", "--laws", ALL_LAWS, "--n", "1..12", "--e=-4..12",
            "--primes", "2,3,5,7,11,13")
    DIGESTS = {
        "json": "c3562add3881a8b831042979facf94449db78884ea0def3d17244312f6629a38",
        "csv": "006c6660641a0448d660006c67c543e0563e4663fd168f65188977e93743f4c8",
        "plain": "fd180b47710f2bb6d006366bf0cd80271229c3c4798d9a64c1fb3de4e6c337d3",
    }

    @pytest.mark.parametrize("fmt, threads", [
        ("json", "1"), ("csv", "1"), ("plain", "1"), ("json", "2")])
    def test_stdout_digest(self, capsys, fmt, threads):
        code, out, err = run(capsys, *self.ARGS, "--format", fmt, "--threads", threads)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[fmt]


class TestGoldenOffChainCampaign:
    """The p -/+ 1 laws at primes where p -/+ 1 is off the entry point's
    chain e, 2e, 4e (47: p + 1 = 3e; 89: p - 1 = 8e; 4157: p + 1 = 14e),
    byte for byte as recorded when both powers came from the rungs."""

    ARGS = ("verify", "--laws", "scalar-power,p-minus-1,p-plus-1,order-bound",
            "--n", "2..8", "--primes", "2,5,47,89,4157")
    DIGESTS = {
        "json": "040d5b4cf86f5589e39101f9751d508dd51a82088483b7c955889929d381f84f",
        "csv": "6712aaa9c3805e6f8b4d750e0d931b34151ea65e8c7cc9c618f5a979a7422e1d",
        "plain": "a8265ded12300bbcc426623a52092b09f8b540db26c87f0ece83842039d400e2",
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_stdout_digest(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(modorder, "_right_orders", {})
        code, out, err = run(capsys, *self.ARGS, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[fmt]


class TestImportCost:
    # concurrent.futures brings in logging, traceback and string, and
    # every CLI process imports cli; no campaign needs it.
    def test_cli_import_loads_no_thread_pool(self):
        probe = "import sys, pascalfib.cli; print('concurrent.futures' in sys.modules)"
        assert run_python("-c", probe).stdout == "False\n"

    def test_cli_import_loads_no_dataclasses(self):
        # The value and report types are NamedTuples: no dataclasses import
        # chain (inspect, ast, dis) in a fresh CLI process.
        probe = ("import sys, pascalfib.cli; print(sorted(m for m in "
                 "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))")
        assert run_python("-c", probe).stdout == "[]\n"

    def test_package_import_loads_no_submodule(self):
        # Names are imported from their own modules; the package re-exports none.
        probe = ("import sys, pascalfib; print(sorted(m for m in sys.modules "
                 "if m.startswith('pascalfib.')))")
        assert run_python("-c", probe).stdout == "[]\n"

    def test_threaded_campaign_loads_no_thread_pool(self):
        probe = ("import sys, pascalfib.cli as cli; code = cli.main(sys.argv[1:]); "
                 "print(code, 'concurrent.futures' in sys.modules, file=sys.stderr)")
        proc = run_python("-c", probe, "verify", "--laws", "scalar-power", "--n", "2..4",
                          "--primes", "7,13", "--threads", "2")
        assert proc.stderr == "0 False\n"


def _cell_failure(monkeypatch, verifier):
    monkeypatch.setattr(laws, verifier, lambda *args: laws.CellLawReport(
        "stub", 3, None, 9, ((2, 1, 5, 6), (3, 2, 7, 8))))


def _corrupt_pisano(monkeypatch):
    real = fib_module.pisano_period
    monkeypatch.setattr(fib_module, "pisano_period", lambda p: 3 * real(p))


def _wrong_entry_point_at_13(monkeypatch):
    real = modorder.entry_point
    monkeypatch.setattr(modorder, "_right_orders", {})
    monkeypatch.setattr(modorder, "entry_point", lambda p: 8 if p == 13 else real(p))


def _row_propagation_failures(monkeypatch, square, cube):
    failures = {2: square, 3: cube}
    monkeypatch.setattr(laws, "verify_row_propagation", lambda n, e: laws.CellLawReport(
        "stub", n, e, (n - 1) * n, failures[e]))


CELL_WITNESS = {"i": 2, "j": 1, "lhs": "5", "rhs": "6", "failing_cells": 2}


class TestFailingWitnesses:
    """The exact witness each law attaches to a failing check."""

    @pytest.mark.parametrize("law, argv, patch, params, witness", [
        ("mod2", ("--n", "3"),
         lambda mp: mp.setattr(cli, "build_right", build_left),
         {"n": 3}, {"left_square": True, "right_cube": False}),
        ("left-closed-form", ("--n", "3", "--e=-2"),
         lambda mp: mp.setattr(cli, "left_power_rows", lambda n, e: (
             tuple(x + (i == 3 and j == 1) for j, x in enumerate(row, 1))
             for i, row in enumerate(left_power_rows(n, e), 1))),
         {"n": 3, "e": -2}, {"i": 3, "j": 1, "lhs": "4", "rhs": "5"}),
        ("square-recurrence", ("--n", "3"),
         lambda mp: _cell_failure(mp, "verify_fib_recurrence"),
         {"n": 3}, CELL_WITNESS),
        ("cube-recurrence", ("--n", "3"),
         lambda mp: _cell_failure(mp, "verify_fib_recurrence"),
         {"n": 3}, CELL_WITNESS),
        ("fib-recurrence", ("--n", "3", "--e", "2"),
         lambda mp: _cell_failure(mp, "verify_fib_recurrence"),
         {"n": 3, "e": 2}, CELL_WITNESS),
        ("border-formulas", ("--n", "3", "--e", "2"),
         lambda mp: _cell_failure(mp, "verify_border_formulas"),
         {"n": 3, "e": 2}, CELL_WITNESS),
        # Both row propagations fail at the same two cells.
        ("row-expansion", ("--n", "3"),
         lambda mp: _cell_failure(mp, "verify_row_propagation"),
         {"n": 3}, CELL_WITNESS | {"failing_cells": 4}),
        ("row-propagation", ("--n", "3", "--e", "2"),
         lambda mp: _cell_failure(mp, "verify_row_propagation"),
         {"n": 3, "e": 2}, CELL_WITNESS),
        ("scalar-power", ("--n", "4", "--primes", "13"), _wrong_entry_point_at_13,
         {"n": 4, "p": 13},
         {"order": None, "checks": {"scalar-form": FAIL, "signed-scalar-even": FAIL,
                                    "fourth-power-identity": FAIL}}),
        ("bloom-wall", ("--primes", "7"), _corrupt_pisano,
         {"p": 7}, {"entry_point": "8", "period": "48"}),
        ("period-exactness", ("--primes", "7"), _corrupt_pisano,
         {"p": 7}, {"entry_point": "8", "period": "48",
                    "branch": "entry-point-is-p-plus-1"}),
        ("eigen-conjecture", ("--n", "2"),
         lambda mp: mp.setattr(spectra, "lucas", lambda k: lucas(k) + 1),
         {"n": 2}, {"first_mismatch_degree": 1, "computed": ["-1", "-1", "1"],
                    "conjectured": ["-1", "-2", "1"]}),
        # row-expansion merges the failures of row propagation at e = 2
        # and 3 row-major. Here the cube fails first, at (2, 1), before
        # the square's (2, 3); appending the cube's list to the square's
        # would show (2, 3). Both fail at (3, 2).
        ("row-expansion", ("--n", "3"),
         lambda mp: _row_propagation_failures(
             mp, ((2, 3, 1, 2), (3, 2, 3, 4)), ((2, 1, 5, 6), (3, 2, 7, 8))),
         {"n": 3}, CELL_WITNESS | {"failing_cells": 4}),
        # On a tie at the first failing cell the square's failure comes first.
        ("row-expansion", ("--n", "3"),
         lambda mp: _row_propagation_failures(
             mp, ((3, 2, 3, 4),), ((3, 2, 7, 8), (3, 3, 9, 10))),
         {"n": 3}, {"i": 3, "j": 2, "lhs": "3", "rhs": "4", "failing_cells": 3}),
    ])
    def test_witness(self, capsys, monkeypatch, law, argv, patch, params, witness):
        patch(monkeypatch)
        code, out, _ = run(capsys, "verify", "--laws", law, *argv, "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"law": law, "params": params, "verdict": FAIL, "witness": witness}]


class TestNegativeRanges:
    def test_spaced_negative_range_matches_glued_form(self, capsys):
        glued = run(capsys, "verify", "--laws", "left-closed-form", "--n", "2..3",
                    "--e=-3..-1")
        spaced = run(capsys, "verify", "--laws", "left-closed-form", "--n", "2..3",
                     "--e", "-3..-1")
        assert spaced[0] == 0
        assert spaced == glued

    def test_spaced_negative_n_is_a_range_error(self, capsys):
        code, out, err = run(capsys, "verify", "--laws", "mod2", "--n", "-3..2")
        assert (code, out) == (2, "")
        assert err == f"error: n range must be nonempty within 1..{cli.MAX_N}\n"


class TestLawIdsDocumented:
    """README and the --laws help list the registry's ids, in order."""

    def test_readme_law_block(self):
        text = open(README, encoding="utf-8").read()
        block = re.search(r"Law ids:\n\n```\n(.*?)```", text, re.S).group(1)
        assert block.split() == list(cli.LAW_REGISTRY)

    def test_laws_help(self):
        (laws_option,) = [a for a in _verify_parser()._actions
                          if "--laws" in a.option_strings]
        assert laws_option.help.split(": ")[1].split(",") == list(cli.LAW_REGISTRY)


VERIFY_USAGE = """\
usage: pascalfib verify [-h] [--laws LAWS] [--n N] [--e E] [--primes PRIMES]
                        [--format {json,csv,plain}] [--fail-fast]
                        [--threads THREADS] [--config CONFIG]
"""

VERIFY_HELP = VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --laws LAWS           comma-separated law ids: mod2,left-closed-form,square-
                        recurrence,cube-recurrence,fib-recurrence,border-
                        formulas,row-expansion,row-propagation,left-
                        order,scalar-power,p-minus-1,p-plus-1,order-
                        bound,bloom-wall,period-exactness,identities,hardy-
                        wright,inverse-closed-forms,eigen-conjecture
  --n N                 dimension range A..B
  --e E                 exponent range A..B
  --primes PRIMES       comma-separated primes
  --format {json,csv,plain}
  --fail-fast
  --threads THREADS
  --config CONFIG       JSON campaign config file
"""


E_RANGE_ERROR = "e range must be nonempty within -64..64"


def _verify_parser():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices["verify"]


class TestVerifyUsageErrors:
    """Each usage error of `verify`, its whole stderr and exit code 2."""

    @pytest.mark.parametrize("argv, config, message", [
        (("--laws", "mod2", "--primes", "7,x"), None, "bad integer list '7,x'"),
        (("--laws", "mod2", "--e", "1..x"), None, "bad range '1..x' (expected A..B)"),
        ((), {"laws": ["mod2"], "output_format": "xml"}, "unknown output format 'xml'"),
        ((), {"laws": ["mod2"], "output_format": 3},
         "config key 'output_format' must be a string, got 3"),
        (("--laws", ","), None, "at least one law id is required"),
        ((), {"laws": []}, "at least one law id is required"),
        ((), {"n_range": [2, 3]}, "no laws requested (use --laws or a config file)"),
        ((), None, "no laws requested (use --laws or a config file)"),
        ((), {"laws": ["mod2"], "zzz": 1, "bogus": 2}, "unknown config keys: bogus, zzz"),
        (("--laws", "mod2", "--e", "5..1"), None, E_RANGE_ERROR),
        (("--laws", "mod2", "--e=-65..1"), None, E_RANGE_ERROR),
        (("--laws", "mod2", "--primes", "4"), None,
         "invalid prime 4 (must be prime, < 2^31)"),
    ], ids=["primes-not-integers", "e-not-a-range", "config-format-xml",
            "config-format-number", "laws-flag-empty", "laws-config-empty",
            "config-without-laws", "bare-verify", "unknown-config-keys",
            "e-range-reversed", "e-range-below-limit", "composite-prime"])
    def test_message(self, capsys, tmp_path, argv, config, message):
        if config is not None:
            path = tmp_path / "campaign.json"
            path.write_text(json.dumps(config))
            argv = (*argv, "--config", str(path))
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


class TestVerifyArgparseSurface:
    """`verify --help` and the argparse errors, byte for byte at 80 columns."""

    @pytest.fixture(autouse=True)
    def eighty_columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr() == (VERIFY_HELP, "")

    @pytest.mark.parametrize("argv, message", [
        (("--n",), "argument --n: expected one argument"),
        (("--threads", "x"), "argument --threads: invalid int value: 'x'"),
        (("--format", "xml"), "argument --format: invalid choice: 'xml' "
                              "(choose from 'json', 'csv', 'plain')"),
    ], ids=["n-without-value", "threads-not-integer", "format-not-a-choice"])
    def test_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", *argv])
        assert exit_info.value.code == 2
        assert capsys.readouterr() == (
            "", f"{VERIFY_USAGE}pascalfib verify: error: {message}\n")


class TestVerifyTables:
    """The settings table, the flags, the axes and the walk agree."""

    def test_schema_keys_are_the_config_fields(self):
        assert tuple(cli.CONFIG_SCHEMA) == cli.CampaignConfig._fields

    def test_one_flag_stores_under_each_key(self):
        dests = [a.dest for a in _verify_parser()._actions]
        assert sorted(d for d in dests if d in cli.CONFIG_SCHEMA) == sorted(cli.CONFIG_SCHEMA)
        assert set(dests) - set(cli.CONFIG_SCHEMA) == {"help", "config"}

    def test_law_axes_follow_axes_order(self):
        for law in cli.LAW_REGISTRY.values():
            remaining = iter(cli.AXES)
            assert law.axes and all(axis in remaining for axis in law.axes)

    def test_only_laws_on_the_n_axis_alone_set_a_walk_position(self):
        for name, law in cli.LAW_REGISTRY.items():
            assert law.walk_e == 0 or law.axes == ("n",), name
