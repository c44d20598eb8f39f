"""Command line front end.

Four subcommands: `matrix` builds, powers, inverts, and summarizes the
Pascal matrices; `fib` queries Fibonacci values and modular data;
`order` computes matrix orders modulo a prime with their theorem
checks; `verify` runs named verification campaigns over parameter
grids and emits a machine-readable report.

Output is byte-deterministic for a fixed invocation. JSON serializes
every computed integer (matrix entries, determinants, coefficients,
orders, witnesses) as a decimal string so consumers without big-integer
support cannot silently overflow; grid parameters (n, e, p) stay plain
numbers. Exit codes: 0 all checks passed (or hypothesis not met),
1 at least one verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import laws, modorder, spectra
from .core import (
    ExactMatrix,
    IntPolynomial,
    ModMatrix,
    charpoly,
    det,
    is_prime,
    mat_mod,
    mat_mul,
    mat_pow,
    modmat_pow,
)
from .fib import (
    bloom_wall_check,
    check_identities,
    entry_point,
    fib,
    fib_via_binomials,
    lucas,
    period_exactness_check,
    pisano_period,
)
from .pascal import build_left, build_right, left_inverse, left_power_entry, right_inverse
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS

MAX_N = 64
MAX_E = 64
MAX_P = 2**31 - 1

USAGE_ERROR = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization


def matrix_payload(m: ExactMatrix | ModMatrix, kind: str | None = None,
                   **extra: Any) -> dict[str, Any]:
    payload: dict[str, Any] = {"object": "matrix", "n": m.n}
    if kind is not None:
        payload["kind"] = kind
    payload["modulus"] = m.p if isinstance(m, ModMatrix) else None
    payload["entries"] = [[str(x) for x in row] for row in m.rows]
    payload.update(extra)
    return payload


def matrix_from_payload(payload: dict[str, Any]) -> ExactMatrix | ModMatrix:
    """Inverse of matrix_payload; JSON round-trips to an equal matrix."""
    rows = tuple(tuple(int(x) for x in row) for row in payload["entries"])
    n = int(payload["n"])
    modulus = payload.get("modulus")
    if modulus is None:
        return ExactMatrix(n, rows)
    return ModMatrix(n, int(modulus), rows)


def poly_payload(poly: IntPolynomial) -> dict[str, Any]:
    return {"object": "polynomial", "degree": poly.degree,
            "coeffs": [str(c) for c in poly.coeffs]}


def format_poly(poly: IntPolynomial) -> str:
    if not poly.coeffs:
        return "0"
    parts: list[tuple[str, str]] = []
    for d in range(poly.degree, -1, -1):
        c = poly.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif d == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{d}" if mag == 1 else f"{mag}*x^{d}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def emit(payload: dict[str, Any], fmt: str) -> None:
    # The "object" key only drives formatting; it is not part of any
    # output contract, so JSON consumers never see it.
    if fmt == "json":
        print(json.dumps({k: v for k, v in payload.items() if k != "object"},
                         indent=2))
    elif fmt == "csv":
        print(_to_csv(payload), end="")
    else:
        print(_to_plain(payload), end="")


def _to_csv(payload: dict[str, Any]) -> str:
    obj = payload.get("object")
    if obj == "matrix":
        return "".join(",".join(row) + "\n" for row in payload["entries"])
    if obj == "polynomial":
        return ",".join(payload["coeffs"]) + "\n"
    if obj == "integer":
        return payload["value"] + "\n"
    if obj == "pair":
        return f"{payload['first']},{payload['second']}\n"
    if obj == "campaign":
        lines = ["law,n,e,p,verdict,witness\n"]
        for check in payload["checks"]:
            params = check["params"]
            witness = check.get("witness")
            lines.append(",".join([
                check["law"],
                str(params.get("n", "")),
                str(params.get("e", "")),
                str(params.get("p", "")),
                check["verdict"],
                json.dumps(witness, separators=(",", ":")).replace(",", ";")
                if witness is not None else "",
            ]) + "\n")
        return "".join(lines)
    if obj == "order-report":
        lines = ["field,value\n"]
        for key in ("kind", "n", "p", "order", "witness_exponent_bound"):
            lines.append(f"{key},{payload[key]}\n")
        for name, check in payload["theorem_checks"].items():
            lines.append(f"check:{name},{check['verdict']}\n")
        return "".join(lines)
    # generic report: one key,value line each
    return "".join(f"{k},{v}\n" for k, v in payload.items() if k != "object")


def _to_plain(payload: dict[str, Any]) -> str:
    obj = payload.get("object")
    if obj == "matrix":
        widths = [max(len(row[j]) for row in payload["entries"])
                  for j in range(payload["n"])]
        return "".join(" ".join(x.rjust(w) for x, w in zip(row, widths)) + "\n"
                       for row in payload["entries"])
    if obj == "polynomial":
        return payload["text"] + "\n"
    if obj == "integer":
        return payload["value"] + "\n"
    if obj == "pair":
        return f"{payload['first']} {payload['second']}\n"
    if obj == "campaign":
        lines = []
        for check in payload["checks"]:
            params = " ".join(f"{k}={v}" for k, v in check["params"].items())
            line = f"{check['verdict'].upper():<18} {check['law']:<24} {params}"
            witness = check.get("witness")
            if witness is not None:
                line += f"  witness={json.dumps(witness, separators=(',', ':'))}"
            lines.append(line + "\n")
        summary = payload["summary"]
        lines.append(f"summary: pass={summary['pass']} fail={summary['fail']}\n")
        return "".join(lines)
    if obj == "order-report":
        lines = [f"kind: {payload['kind']}", f"n: {payload['n']}",
                 f"p: {payload['p']}", f"order: {payload['order']}",
                 f"witness_exponent_bound: {payload['witness_exponent_bound']}"]
        for name, check in payload["theorem_checks"].items():
            values = " ".join(f"{k}={v}" for k, v in check.get("values", {}).items())
            lines.append(f"check {name}: {check['verdict']}"
                         + (f" ({values})" if values else ""))
        return "\n".join(lines) + "\n"
    return "\n".join(f"{k}: {v}" for k, v in payload.items() if k != "object") + "\n"


def order_report_payload(report: modorder.OrderReport) -> dict[str, Any]:
    return {
        "object": "order-report",
        "kind": report.matrix_kind,
        "n": report.n,
        "p": report.p,
        "order": str(report.order),
        "witness_exponent_bound": str(report.witness_exponent_bound),
        "theorem_checks": {
            name: {"verdict": check.verdict,
                   "values": {k: str(v) for k, v in check.values.items()}}
            for name, check in report.theorem_checks.items()
        },
    }


# ---------------------------------------------------------------------------
# matrix subcommand


def _build(kind: str, n: int) -> ExactMatrix:
    if n < 1 or n > MAX_N:
        raise UsageError(f"dimension must be in 1..{MAX_N}")
    return build_left(n) if kind == "left" else build_right(n)


def cmd_matrix(args: argparse.Namespace) -> int:
    n = args.n
    base = _build(args.kind, n)
    modulus = args.mod
    if modulus is not None and not is_prime(modulus):
        raise UsageError(f"modulus {modulus} is not prime")
    action = args.action
    if action == "pow" and args.exponent is None:
        raise UsageError("pow requires an exponent")
    if action == "show":
        result = base
    elif action == "pow":
        result = mat_pow(base, args.exponent)
    elif action == "inverse":
        result = left_inverse(n) if args.kind == "left" else right_inverse(n)
    elif action == "det":
        value = det(base)
        if modulus is not None:
            value %= modulus
        emit({"object": "integer", "value": str(value)}, args.format)
        return 0
    else:  # charpoly
        poly = charpoly(base)
        coeffs = poly.coeffs if modulus is None else tuple(c % modulus
                                                           for c in poly.coeffs)
        reduced = IntPolynomial(coeffs)
        emit(poly_payload(reduced) | {"text": format_poly(reduced)}, args.format)
        return 0
    if modulus is not None:
        result = mat_mod(result, modulus)
    emit(matrix_payload(result, kind=args.kind), args.format)
    return 0


# ---------------------------------------------------------------------------
# fib subcommand


def cmd_fib(args: argparse.Namespace) -> int:
    query, value = args.query, args.arg
    fmt = args.format
    if query in ("entry-point", "period"):
        if value < 2:
            raise UsageError("modulus must be at least 2")
        result = (entry_point(value) if query == "entry-point"
                  else pisano_period(value))
        emit({"object": "integer", "value": str(result)}, fmt)
        return 0
    if query in ("value", "lucas"):
        if value < 0:
            raise UsageError("index must be nonnegative")
        result = fib(value) if query == "value" else lucas(value)
        emit({"object": "integer", "value": str(result)}, fmt)
        return 0
    # bloom-wall
    if not is_prime(value) or value in (2, 5):
        raise UsageError(f"bloom-wall requires an odd prime other than 5, got {value}")
    report = bloom_wall_check(value)
    payload = {
        "object": "bloom-wall",
        "p": report.p,
        "residue_mod5": report.residue_mod5,
        "entry_point": str(report.entry_point),
        "period": str(report.period),
        "checks": {name: PASS if ok else FAIL for name, ok in report.checks},
        "verdict": PASS if report.passed else FAIL,
    }
    emit(payload, fmt)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# order subcommand


def cmd_order(args: argparse.Namespace) -> int:
    if not is_prime(args.p):
        raise UsageError(f"{args.p} is not prime")
    if args.n < 1 or args.n > MAX_N:
        raise UsageError(f"dimension must be in 1..{MAX_N}")
    try:
        if args.kind == "left":
            report = modorder.verify_left_order(args.n, args.p)
        else:
            report = modorder.verify_order_bound(args.n, args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    emit(order_report_payload(report), args.format)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify subcommand: campaign configuration and law registry


@dataclass(frozen=True)
class CampaignConfig:
    laws: tuple[str, ...]
    n_range: tuple[int, int] = (2, 10)
    e_range: tuple[int, int] = (1, 10)
    primes: tuple[int, ...] = (2, 3, 5, 7, 11, 13)
    output_format: str = "json"
    fail_fast: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        unknown = [law for law in self.laws if law not in LAW_REGISTRY]
        if unknown:
            raise UsageError(f"unknown law id(s): {', '.join(unknown)}")
        if not self.laws:
            raise UsageError("at least one law id is required")
        lo, hi = self.n_range
        if lo > hi or lo < 1 or hi > MAX_N:
            raise UsageError(f"n range must be nonempty within 1..{MAX_N}")
        lo, hi = self.e_range
        if lo > hi or abs(lo) > MAX_E or abs(hi) > MAX_E:
            raise UsageError(f"e range must be nonempty within -{MAX_E}..{MAX_E}")
        if not self.primes:
            raise UsageError("prime list must be nonempty")
        for p in self.primes:
            if p > MAX_P or not is_prime(p):
                raise UsageError(f"invalid prime {p} (must be prime, < 2^31)")
        if self.output_format not in ("json", "csv", "plain"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        if self.threads < 1:
            raise UsageError("threads must be at least 1")


Check = dict[str, Any]
Job = tuple[str, dict[str, int], Callable[[], Check]]


def _cell_report_check(law: str, params: dict[str, int],
                       report: laws.CellLawReport) -> Check:
    check: Check = {"law": law, "params": params,
                    "verdict": PASS if report.passed else FAIL}
    if report.failures:
        i, j, lhs, rhs = report.failures[0]
        check["witness"] = {"i": i, "j": j, "lhs": str(lhs), "rhs": str(rhs),
                            "failing_cells": len(report.failures)}
    return check


def _order_report_check(law: str, params: dict[str, int],
                        report: modorder.OrderReport,
                        check_ids: Iterable[str] | None = None) -> Check:
    names = tuple(check_ids) if check_ids else tuple(report.theorem_checks)
    verdicts = [report.theorem_checks[name].verdict for name in names]
    if FAIL in verdicts:
        verdict = FAIL
    elif all(v == HYPOTHESIS_NOT_MET for v in verdicts):
        verdict = HYPOTHESIS_NOT_MET
    else:
        verdict = PASS
    check: Check = {"law": law, "params": params, "verdict": verdict}
    if verdict == FAIL:
        check["witness"] = {
            "order": str(report.order),
            "checks": {name: report.theorem_checks[name].verdict for name in names},
        }
    return check


def _ns(cfg: CampaignConfig, lo: int = 1) -> range:
    return range(max(cfg.n_range[0], lo), cfg.n_range[1] + 1)


def _es(cfg: CampaignConfig, lo: int) -> range:
    return range(max(cfg.e_range[0], lo), cfg.e_range[1] + 1)


def _jobs_mod2(cfg: CampaignConfig) -> list[Job]:
    def job(n: int) -> Callable[[], Check]:
        def run() -> Check:
            ident = ModMatrix.identity(n, 2)
            left_ok = modmat_pow(mat_mod(build_left(n), 2), 2) == ident
            right_ok = modmat_pow(mat_mod(build_right(n), 2), 3) == ident
            check: Check = {"law": "mod2", "params": {"n": n},
                            "verdict": PASS if left_ok and right_ok else FAIL}
            if not (left_ok and right_ok):
                check["witness"] = {"left_square": left_ok, "right_cube": right_ok}
            return check
        return run
    return [("mod2", {"n": n}, job(n)) for n in _ns(cfg, 2)]


def _jobs_left_closed_form(cfg: CampaignConfig) -> list[Job]:
    def job(n: int, e: int) -> Callable[[], Check]:
        def run() -> Check:
            power = mat_pow(build_left(n), e)
            bad = next(((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                        if power.entry(i, j) != left_power_entry(e, i, j)), None)
            check: Check = {"law": "left-closed-form", "params": {"n": n, "e": e},
                            "verdict": PASS if bad is None else FAIL}
            if bad is not None:
                i, j = bad
                check["witness"] = {"i": i, "j": j,
                                    "lhs": str(power.entry(i, j)),
                                    "rhs": str(left_power_entry(e, i, j))}
            return check
        return run
    return [("left-closed-form", {"n": n, "e": e}, job(n, e))
            for n in _ns(cfg) for e in range(cfg.e_range[0], cfg.e_range[1] + 1)]


def _jobs_cell_law(law: str, runner: Callable[..., laws.CellLawReport],
                   cfg: CampaignConfig, with_e: bool, e_lo: int = 1,
                   n_lo: int = 2) -> list[Job]:
    def job(n: int, e: int | None) -> Callable[[], Check]:
        def run() -> Check:
            report = runner(n, e) if e is not None else runner(n)
            params = {"n": n} if e is None else {"n": n, "e": e}
            return _cell_report_check(law, params, report)
        return run
    if with_e:
        return [(law, {"n": n, "e": e}, job(n, e))
                for n in _ns(cfg, n_lo) for e in _es(cfg, e_lo)]
    return [(law, {"n": n}, job(n, None)) for n in _ns(cfg, n_lo)]


def _jobs_inverses(cfg: CampaignConfig) -> list[Job]:
    def job(n: int) -> Callable[[], Check]:
        def run() -> Check:
            ident = ExactMatrix.identity(n)
            left, right = build_left(n), build_right(n)
            linv, rinv = left_inverse(n), right_inverse(n)
            ok = (mat_mul(left, linv) == ident and mat_mul(linv, left) == ident
                  and mat_mul(right, rinv) == ident and mat_mul(rinv, right) == ident)
            return {"law": "inverse-closed-forms", "params": {"n": n},
                    "verdict": PASS if ok else FAIL}
        return run
    return [("inverse-closed-forms", {"n": n}, job(n)) for n in _ns(cfg)]


def _jobs_order_law(law: str, runner: Callable[[int, int], modorder.OrderReport],
                    cfg: CampaignConfig) -> list[Job]:
    def job(n: int, p: int) -> Callable[[], Check]:
        def run() -> Check:
            return _order_report_check(law, {"n": n, "p": p}, runner(n, p))
        return run
    return [(law, {"n": n, "p": p}, job(n, p))
            for n in _ns(cfg, 2) for p in cfg.primes]


def _jobs_bloom_wall(cfg: CampaignConfig) -> list[Job]:
    def job(p: int) -> Callable[[], Check]:
        def run() -> Check:
            if p in (2, 5):
                return {"law": "bloom-wall", "params": {"p": p},
                        "verdict": HYPOTHESIS_NOT_MET}
            report = bloom_wall_check(p)
            check: Check = {"law": "bloom-wall", "params": {"p": p},
                            "verdict": PASS if report.passed else FAIL}
            if not report.passed:
                check["witness"] = {"entry_point": str(report.entry_point),
                                    "period": str(report.period)}
            return check
        return run
    return [("bloom-wall", {"p": p}, job(p)) for p in cfg.primes]


def _jobs_period_exactness(cfg: CampaignConfig) -> list[Job]:
    def job(p: int) -> Callable[[], Check]:
        def run() -> Check:
            if p in (2, 5):
                return {"law": "period-exactness", "params": {"p": p},
                        "verdict": HYPOTHESIS_NOT_MET}
            report = period_exactness_check(p)
            check: Check = {"law": "period-exactness", "params": {"p": p},
                            "verdict": report.verdict}
            if report.verdict == FAIL:
                check["witness"] = {"entry_point": str(report.entry_point),
                                    "period": str(report.period),
                                    "branch": report.branch}
            return check
        return run
    return [("period-exactness", {"p": p}, job(p)) for p in cfg.primes]


def _jobs_identities(cfg: CampaignConfig) -> list[Job]:
    def job(e: int) -> Callable[[], Check]:
        def run() -> Check:
            report = check_identities(e)
            return {"law": "identities", "params": {"e": e},
                    "verdict": PASS if report.passed else FAIL}
        return run
    return [("identities", {"e": e}, job(e)) for e in _es(cfg, 1)]


def _jobs_hardy_wright(cfg: CampaignConfig) -> list[Job]:
    def job(e: int) -> Callable[[], Check]:
        def run() -> Check:
            ok = fib_via_binomials(e) == fib(e)
            return {"law": "hardy-wright", "params": {"e": e},
                    "verdict": PASS if ok else FAIL}
        return run
    return [("hardy-wright", {"e": e}, job(e)) for e in _es(cfg, 1)]


def _jobs_eigen(cfg: CampaignConfig) -> list[Job]:
    def job(n: int) -> Callable[[], Check]:
        def run() -> Check:
            report = spectra.check_eigen_conjecture(n)
            check: Check = {"law": "eigen-conjecture", "params": {"n": n},
                            "verdict": report.verdict}
            if report.verdict == FAIL:
                check["witness"] = {
                    "first_mismatch_degree": report.first_mismatch_degree,
                    "computed": [str(c) for c in report.computed_charpoly.coeffs],
                    "conjectured": [str(c) for c in report.conjectured_charpoly.coeffs],
                }
            return check
        return run
    return [("eigen-conjecture", {"n": n}, job(n)) for n in _ns(cfg)]


LAW_REGISTRY: dict[str, Callable[[CampaignConfig], list[Job]]] = {
    "mod2": _jobs_mod2,
    "left-closed-form": _jobs_left_closed_form,
    "square-recurrence": lambda cfg: _jobs_cell_law(
        "square-recurrence", lambda n: laws.verify_square_recurrence(n), cfg, False),
    "cube-recurrence": lambda cfg: _jobs_cell_law(
        "cube-recurrence", lambda n: laws.verify_cube_recurrence(n), cfg, False),
    "fib-recurrence": lambda cfg: _jobs_cell_law(
        "fib-recurrence", laws.verify_fib_recurrence, cfg, True, e_lo=1),
    "border-formulas": lambda cfg: _jobs_cell_law(
        "border-formulas", laws.verify_border_formulas, cfg, True, e_lo=1, n_lo=1),
    "row-expansion": lambda cfg: _jobs_cell_law(
        "row-expansion", lambda n: laws.verify_row_expansion_23(n), cfg, False),
    "row-propagation": lambda cfg: _jobs_cell_law(
        "row-propagation", laws.verify_row_propagation, cfg, True, e_lo=2),
    "left-order": lambda cfg: _jobs_order_law(
        "left-order", modorder.verify_left_order, cfg),
    "scalar-power": lambda cfg: _jobs_order_law(
        "scalar-power", modorder.verify_scalar_power, cfg),
    "p-minus-1": lambda cfg: _jobs_order_law(
        "p-minus-1", modorder.verify_pminus1, cfg),
    "p-plus-1": lambda cfg: _jobs_order_law(
        "p-plus-1", modorder.verify_pplus1, cfg),
    "order-bound": lambda cfg: _jobs_order_law(
        "order-bound", modorder.verify_order_bound, cfg),
    "bloom-wall": _jobs_bloom_wall,
    "period-exactness": _jobs_period_exactness,
    "identities": _jobs_identities,
    "hardy-wright": _jobs_hardy_wright,
    "inverse-closed-forms": _jobs_inverses,
    "eigen-conjecture": _jobs_eigen,
}


def _sort_key(check: Check) -> tuple:
    params = check["params"]
    return (check["law"], params.get("n", 0), params.get("e", 0), params.get("p", 0))


def run_campaign(cfg: CampaignConfig) -> dict[str, Any]:
    """Execute every requested law over its grid; deterministic report."""
    jobs: list[Job] = []
    for law in cfg.laws:
        jobs.extend(LAW_REGISTRY[law](cfg))
    checks: list[Check] = []
    if cfg.fail_fast or cfg.threads == 1:
        for _, _, thunk in jobs:
            check = thunk()
            checks.append(check)
            if cfg.fail_fast and check["verdict"] == FAIL:
                break
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            checks = list(pool.map(lambda job: job[2](), jobs))
    checks.sort(key=_sort_key)
    summary = {
        "pass": sum(1 for c in checks if c["verdict"] == PASS),
        "fail": sum(1 for c in checks if c["verdict"] == FAIL),
    }
    return {"object": "campaign", "campaign": "+".join(cfg.laws),
            "checks": checks, "summary": summary}


def cmd_verify(args: argparse.Namespace) -> int:
    settings: dict[str, Any] = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        allowed = {"laws", "n_range", "e_range", "primes", "output_format",
                   "fail_fast", "threads"}
        bad = set(raw) - allowed
        if bad:
            raise UsageError(f"unknown config keys: {', '.join(sorted(bad))}")
        settings.update(raw)
    if args.laws is not None:
        settings["laws"] = [law.strip() for law in args.laws.split(",") if law.strip()]
    if args.n is not None:
        settings["n_range"] = _parse_range(args.n)
    if args.e is not None:
        settings["e_range"] = _parse_range(args.e)
    if args.primes is not None:
        settings["primes"] = _parse_int_list(args.primes)
    if args.format is not None:
        settings["output_format"] = args.format
    if args.fail_fast:
        settings["fail_fast"] = True
    if args.threads is not None:
        settings["threads"] = args.threads
    if "laws" not in settings:
        raise UsageError("no laws requested (use --laws or a config file)")
    settings["laws"] = tuple(settings["laws"])
    if "n_range" in settings:
        settings["n_range"] = tuple(settings["n_range"])
    if "e_range" in settings:
        settings["e_range"] = tuple(settings["e_range"])
    if "primes" in settings:
        settings["primes"] = tuple(settings["primes"])
    cfg = CampaignConfig(**settings)
    payload = run_campaign(cfg)
    emit(payload, cfg.output_format)
    return 0 if payload["summary"]["fail"] == 0 else 1


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise UsageError(f"bad range {text!r} (expected A..B)") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascalfib",
        description="Exact Pascal-matrix arithmetic, Fibonacci data, "
                    "matrix orders, and verification campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    mat = sub.add_parser("matrix", help="build, power, invert, or summarize a matrix")
    mat.add_argument("kind", choices=("left", "right"))
    mat.add_argument("n", type=int)
    mat.add_argument("action", choices=("show", "pow", "inverse", "charpoly", "det"))
    mat.add_argument("exponent", type=int, nargs="?", default=None)
    mat.add_argument("--mod", type=int, default=None,
                     help="reduce the result modulo this prime")
    mat.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    fib_parser = sub.add_parser("fib", help="Fibonacci values and modular data")
    fib_parser.add_argument("query", choices=("entry-point", "period", "value",
                                              "lucas", "bloom-wall"))
    fib_parser.add_argument("arg", type=int)
    fib_parser.add_argument("--format", choices=("json", "csv", "plain"),
                            default="plain")

    order = sub.add_parser("order", help="matrix order modulo a prime")
    order.add_argument("kind", choices=("left", "right"))
    order.add_argument("n", type=int)
    order.add_argument("p", type=int)
    order.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify.add_argument("--laws", default=None,
                        help="comma-separated law ids: " + ",".join(LAW_REGISTRY))
    verify.add_argument("--n", default=None, help="dimension range A..B")
    verify.add_argument("--e", default=None, help="exponent range A..B")
    verify.add_argument("--primes", default=None, help="comma-separated primes")
    verify.add_argument("--format", choices=("json", "csv", "plain"), default=None)
    verify.add_argument("--fail-fast", action="store_true")
    verify.add_argument("--threads", type=int, default=None)
    verify.add_argument("--config", default=None, help="JSON campaign config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"matrix": cmd_matrix, "fib": cmd_fib,
                "order": cmd_order, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
