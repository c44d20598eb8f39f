import json

import pytest

from pascalfib import cli
from pascalfib.core import ModMatrix
from pascalfib.pascal import build_right
from pascalfib.report import FAIL, PASS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        parsed = cli.matrix_from_payload(payload)
        assert parsed == cli.mat_pow(build_right(4), 3)

    def test_json_round_trip_modular(self, capsys):
        code, out, _ = run(capsys, "matrix", "right", "5", "pow", "4",
                           "--mod", "7", "--format", "json")
        assert code == 0
        parsed = cli.matrix_from_payload(json.loads(out))
        assert isinstance(parsed, ModMatrix)
        assert parsed == cli.mat_mod(cli.mat_pow(build_right(5), 4), 7)

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

    def test_composite_modulus_is_usage_error(self, capsys):
        code, _, err = run(capsys, "matrix", "left", "3", "show", "--mod", "6")
        assert code == 2
        assert "prime" in err

    def test_pow_without_exponent(self, capsys):
        code, _, err = run(capsys, "matrix", "left", "3", "pow")
        assert code == 2 and "exponent" in err

    def test_dimension_cap(self, capsys):
        code, _, err = run(capsys, "matrix", "left", "65", "show")
        assert code == 2

    def test_bad_action_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matrix", "left", "3", "transpose"])
        assert exc.value.code == 2


class TestFibCommand:
    def test_entry_point(self, capsys):
        assert run(capsys, "fib", "entry-point", "13")[:2] == (0, "7\n")

    def test_period(self, capsys):
        assert run(capsys, "fib", "period", "5")[:2] == (0, "20\n")

    def test_value(self, capsys):
        assert run(capsys, "fib", "value", "10")[:2] == (0, "55\n")

    def test_lucas(self, capsys):
        assert run(capsys, "fib", "lucas", "2")[:2] == (0, "3\n")

    def test_bloom_wall(self, capsys):
        code, out, _ = run(capsys, "fib", "bloom-wall", "13", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entry_point"] == "7"
        assert payload["verdict"] == PASS

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

    def test_composite_p_rejected(self, capsys):
        assert run(capsys, "order", "right", "3", "9")[0] == 2


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

    def test_composite_prime_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--laws", "left-order",
                         "--primes", "4")
        assert code == 2

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


class TestExitCodeContract:
    def _inject_failing_law(self, monkeypatch):
        def jobs(cfg):
            def ok():
                return {"law": "stub", "params": {"n": 1}, "verdict": PASS}
            def bad():
                return {"law": "stub", "params": {"n": 2}, "verdict": FAIL,
                        "witness": {"reason": "injected"}}
            return [("stub", {"n": 1}, ok), ("stub", {"n": 2}, bad),
                    ("stub", {"n": 3}, ok)]
        monkeypatch.setitem(cli.LAW_REGISTRY, "stub", jobs)

    def test_failure_exits_one_with_full_report(self, capsys, monkeypatch):
        self._inject_failing_law(monkeypatch)
        code, out, _ = run(capsys, "verify", "--laws", "stub", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"] == {"pass": 2, "fail": 1}
        failing = [c for c in payload["checks"] if c["verdict"] == FAIL]
        assert failing[0]["witness"] == {"reason": "injected"}

    def test_fail_fast_flushes_partial_report(self, capsys, monkeypatch):
        self._inject_failing_law(monkeypatch)
        code, out, _ = run(capsys, "verify", "--laws", "stub", "--fail-fast",
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        # Stopped after the failure: the third check never ran.
        assert len(payload["checks"]) == 2
        assert payload["summary"]["fail"] == 1
