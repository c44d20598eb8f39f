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
import itertools
import json
import sys
from typing import Any, Callable, NamedTuple

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
from .pascal import build_left, build_right, left_inverse, left_power_rows, right_inverse
from .report import FAIL, HYPOTHESIS_NOT_MET, PASS

MAX_N = 64
MAX_E = 64
MAX_P = 2**31 - 1
# F_K has about 0.21 K digits, and int-to-decimal conversion is quadratic.
MAX_FIB_INDEX = 10**6

USAGE_ERROR = 2


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization


def matrix_payload(m: ExactMatrix | ModMatrix, kind: str) -> dict[str, Any]:
    return {"object": "matrix", "n": m.n, "kind": kind,
            "modulus": m.p if isinstance(m, ModMatrix) else None,
            "entries": [[str(x) for x in row] for row in m.rows]}


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
    if obj == "campaign":
        lines = [",".join(["law", *AXES, "verdict", "witness"]) + "\n"]
        for check in payload["checks"]:
            params = check["params"]
            witness = check.get("witness")
            lines.append(",".join([
                check["law"],
                *(str(params.get(axis, "")) for axis in AXES),
                check["verdict"],
                json.dumps(witness, separators=(",", ":")).replace(",", ";")
                if witness is not None else "",
            ]) + "\n")
        return "".join(lines)
    header = "field,value\n" if obj == "order-report" else ""
    return header + _report_lines(payload, "csv")


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
    return _report_lines(payload, "plain")


def _report_lines(payload: dict[str, Any], fmt: str) -> str:
    """An order or bloom-wall report: one `key,value` (csv) or `key: value`
    (plain) line per field, except that its dict of checks becomes one
    `check:<name>,<verdict>` or `check <name>: <verdict> (<values>)` line
    per check."""
    lines = []
    for key, value in payload.items():
        if key == "object":
            continue
        if not isinstance(value, dict):
            value = "null" if value is None else value  # as json prints it
            lines.append(f"{key},{value}\n" if fmt == "csv" else f"{key}: {value}\n")
            continue
        for name, check in value.items():
            # An order check carries its values; a bloom-wall check is a verdict.
            verdict, values = ((check["verdict"], check["values"])
                               if isinstance(check, dict) else (check, {}))
            if fmt == "csv":
                lines.append(f"check:{name},{verdict}\n")
            else:
                shown = " ".join(f"{k}={v}" for k, v in values.items())
                lines.append(f"check {name}: {verdict}"
                             + (f" ({shown})" if shown else "") + "\n")
    return "".join(lines)


def _order_text(order: int | None) -> str | None:
    # None (JSON null) when the fourth-power premise failed and no order
    # was searched for.
    return None if order is None else str(order)


def order_report_payload(report: modorder.OrderReport) -> dict[str, Any]:
    return {
        "object": "order-report",
        "kind": report.matrix_kind,
        "n": report.n,
        "p": report.p,
        "order": _order_text(report.order),
        "witness_exponent_bound": str(report.witness_exponent_bound),
        "theorem_checks": {
            name: {"verdict": check.verdict,
                   "values": {k: str(v) for k, v in check.values.items()}}
            for name, check in report.theorem_checks.items()
        },
    }


def _check_modulus(m: int) -> None:
    # Entry points and periods factor m and a multiple of its period, and
    # orders factor p -/+ 1, all by trial division, too slow past MAX_P.
    if m > MAX_P:
        raise UsageError(f"modulus {m} exceeds the limit 2^31 - 1")


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
    if modulus is not None:
        # is_prime is exact only below 3.3e24, so the limit comes first.
        _check_modulus(modulus)
        if not is_prime(modulus):
            raise UsageError(f"modulus {modulus} is not prime")
    action = args.action
    if action == "pow" and args.exponent is None:
        raise UsageError("pow requires an exponent")
    if action != "pow" and args.exponent is not None:
        raise UsageError(f"{action} takes no exponent")
    if action == "pow" and abs(args.exponent) > MAX_E:
        raise UsageError(f"exponent must be in -{MAX_E}..{MAX_E}")
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
        _check_modulus(value)
        result = (entry_point(value) if query == "entry-point"
                  else pisano_period(value))
        emit({"object": "integer", "value": str(result)}, fmt)
        return 0
    if query in ("value", "lucas"):
        if value < 0:
            raise UsageError("index must be nonnegative")
        if value > MAX_FIB_INDEX:
            raise UsageError(f"index {value} exceeds the limit {MAX_FIB_INDEX}")
        result = fib(value) if query == "value" else lucas(value)
        emit({"object": "integer", "value": str(result)}, fmt)
        return 0
    # bloom-wall
    _check_modulus(value)
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
    _check_modulus(args.p)
    if not is_prime(args.p):
        raise UsageError(f"{args.p} is not prime")
    # L_1 and R_1 are the 1x1 identity: the order theorems start at n = 2.
    if args.n < 2 or args.n > MAX_N:
        raise UsageError(f"dimension must be in 2..{MAX_N}")
    if args.kind == "left":
        report = modorder.verify_left_order(args.n, args.p)
    else:
        report = modorder.verify_order_bound(args.n, args.p)
    emit(order_report_payload(report), args.format)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify subcommand: campaign configuration and law registry


class _CampaignFields(NamedTuple):
    laws: tuple[str, ...]
    n_range: tuple[int, int] = (2, 10)
    e_range: tuple[int, int] = (1, 10)
    primes: tuple[int, ...] = (2, 3, 5, 7, 11, 13)
    output_format: str = "json"
    fail_fast: bool = False
    threads: int = 1  # validated, and reserved for a process pool; unused


class CampaignConfig(_CampaignFields):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "CampaignConfig":
        cfg = super().__new__(cls, *args, **kwargs)
        # A repeated law id or prime names the same checks again; keep the
        # first occurrence so the report does not depend on the spelling.
        cfg = cfg._replace(laws=tuple(dict.fromkeys(cfg.laws)),
                           primes=tuple(dict.fromkeys(cfg.primes)))
        unknown = [law for law in cfg.laws if law not in LAW_REGISTRY]
        if unknown:
            raise UsageError(f"unknown law id(s): {', '.join(unknown)}")
        if not cfg.laws:
            raise UsageError("at least one law id is required")
        lo, hi = cfg.n_range
        if lo > hi or lo < 1 or hi > MAX_N:
            raise UsageError(f"n range must be nonempty within 1..{MAX_N}")
        lo, hi = cfg.e_range
        if lo > hi or abs(lo) > MAX_E or abs(hi) > MAX_E:
            raise UsageError(f"e range must be nonempty within -{MAX_E}..{MAX_E}")
        if not cfg.primes:
            raise UsageError("prime list must be nonempty")
        for p in cfg.primes:
            if p > MAX_P or not is_prime(p):
                raise UsageError(f"invalid prime {p} (must be prime, < 2^31)")
        if cfg.output_format not in ("json", "csv", "plain"):
            raise UsageError(f"unknown output format {cfg.output_format!r}")
        if cfg.threads < 1:
            raise UsageError("threads must be at least 1")
        return cfg


Check = dict[str, Any]
Verdict = tuple[str, dict[str, Any] | None]
Job = tuple[str, dict[str, int]]


# The grid axes, in the order of params, CSV columns and sort keys.
AXES = ("n", "e", "p")


class Law(NamedTuple):
    """One campaign law. `axes` names its grid axes, in AXES order; n and e
    start no lower than `n_lo`/`e_lo`, and p takes each requested prime.
    `check(**params)` returns the verdict and a witness, or None when there
    is none to show. `walk_e`, set only on a law on the n axis alone, is
    its place in the R_n walk: it runs with the checks at that e (the
    default 0 is before them all)."""

    axes: tuple[str, ...]
    check: Callable[..., Verdict]
    n_lo: int = 1
    e_lo: int = 1
    walk_e: float = 0


def _cell_verdict(report: laws.CellLawReport) -> Verdict:
    if not report.failures:
        return PASS, None
    i, j, lhs, rhs = report.failures[0]
    return FAIL, {"i": i, "j": j, "lhs": str(lhs), "rhs": str(rhs),
                  "failing_cells": len(report.failures)}


def _row_expansion(n: int) -> laws.CellLawReport:
    """The row expansions of R_n**2 and R_n**3, which are row propagation
    at e = 2 and 3. Their failures merge row-major by a stable sort, so
    at a shared cell the square's comes first."""
    square = laws.verify_row_propagation(n, 2)
    cube = laws.verify_row_propagation(n, 3)
    failures = sorted(square.failures + cube.failures, key=lambda f: f[:2])
    return laws.CellLawReport("row-expansion", n, None,
                              square.checked_cells + cube.checked_cells, tuple(failures))


def _order_verdict(report: modorder.OrderReport) -> Verdict:
    checks = {name: check.verdict for name, check in report.theorem_checks.items()}
    if FAIL in checks.values():
        return FAIL, {"order": _order_text(report.order), "checks": checks}
    if all(v == HYPOTHESIS_NOT_MET for v in checks.values()):
        return HYPOTHESIS_NOT_MET, None
    return PASS, None


def _check_mod2(n: int) -> Verdict:
    ident = ModMatrix.identity(n, 2)
    left_ok = modmat_pow(mat_mod(build_left(n), 2), 2) == ident
    right_ok = modmat_pow(mat_mod(build_right(n), 2), 3) == ident
    if left_ok and right_ok:
        return PASS, None
    return FAIL, {"left_square": left_ok, "right_cube": right_ok}


def _check_left_closed_form(n: int, e: int) -> Verdict:
    walked = laws.power(build_left(n), e).rows
    for i, (row, law_row) in enumerate(zip(walked, left_power_rows(n, e)), 1):
        if row != law_row:
            j = next(j for j in range(n) if row[j] != law_row[j])
            return FAIL, {"i": i, "j": j + 1, "lhs": str(row[j]), "rhs": str(law_row[j])}
    return PASS, None


def _check_inverses(n: int) -> Verdict:
    ident = ExactMatrix.identity(n)
    left, right = build_left(n), build_right(n)
    linv, rinv = left_inverse(n), right_inverse(n)
    ok = (mat_mul(left, linv) == ident and mat_mul(linv, left) == ident
          and mat_mul(right, rinv) == ident and mat_mul(rinv, right) == ident)
    return PASS if ok else FAIL, None


def _check_bloom_wall(p: int) -> Verdict:
    if p in (2, 5):
        return HYPOTHESIS_NOT_MET, None
    report = bloom_wall_check(p)
    if report.passed:
        return PASS, None
    return FAIL, {"entry_point": str(report.entry_point), "period": str(report.period)}


def _check_period_exactness(p: int) -> Verdict:
    if p in (2, 5):
        return HYPOTHESIS_NOT_MET, None
    report = period_exactness_check(p)
    if report.verdict != FAIL:
        return report.verdict, None
    return FAIL, {"entry_point": str(report.entry_point), "period": str(report.period),
                  "branch": report.branch}


def _check_eigen(n: int) -> Verdict:
    report = spectra.check_eigen_conjecture(n)
    if report.verdict != FAIL:
        return report.verdict, None
    return FAIL, {
        "first_mismatch_degree": report.first_mismatch_degree,
        "computed": [str(c) for c in report.computed_charpoly.coeffs],
        "conjectured": [str(c) for c in report.conjectured_charpoly.coeffs],
    }


# Library calls go through their module at call time, so a tracer or a
# test that rebinds `laws.verify_*` or `modorder.verify_*` sees them.
# row-expansion asks for R_n**2 and then R_n**3, so it runs after every
# other check at e = 2 and before every other check at e = 3.
LAW_REGISTRY: dict[str, Law] = {
    "mod2": Law(("n",), _check_mod2, n_lo=2),
    "left-closed-form": Law(("n", "e"), _check_left_closed_form, e_lo=-MAX_E),
    "square-recurrence": Law(
        ("n",), lambda n: _cell_verdict(laws.verify_fib_recurrence(n, 2)), n_lo=2, walk_e=2),
    "cube-recurrence": Law(
        ("n",), lambda n: _cell_verdict(laws.verify_fib_recurrence(n, 3)), n_lo=2, walk_e=3),
    "fib-recurrence": Law(
        ("n", "e"), lambda n, e: _cell_verdict(laws.verify_fib_recurrence(n, e)), n_lo=2),
    "border-formulas": Law(
        ("n", "e"), lambda n, e: _cell_verdict(laws.verify_border_formulas(n, e))),
    "row-expansion": Law(
        ("n",), lambda n: _cell_verdict(_row_expansion(n)), n_lo=2, walk_e=2.5),
    "row-propagation": Law(
        ("n", "e"), lambda n, e: _cell_verdict(laws.verify_row_propagation(n, e)),
        n_lo=2, e_lo=2),
    "left-order": Law(
        ("n", "p"), lambda n, p: _order_verdict(modorder.verify_left_order(n, p)), n_lo=2),
    "scalar-power": Law(
        ("n", "p"), lambda n, p: _order_verdict(modorder.verify_scalar_power(n, p)), n_lo=2),
    "p-minus-1": Law(
        ("n", "p"), lambda n, p: _order_verdict(modorder.verify_pminus1(n, p)), n_lo=2),
    "p-plus-1": Law(
        ("n", "p"), lambda n, p: _order_verdict(modorder.verify_pplus1(n, p)), n_lo=2),
    "order-bound": Law(
        ("n", "p"), lambda n, p: _order_verdict(modorder.verify_order_bound(n, p)), n_lo=2),
    "bloom-wall": Law(("p",), _check_bloom_wall),
    "period-exactness": Law(("p",), _check_period_exactness),
    "identities": Law(
        ("e",), lambda e: (PASS if check_identities(e).passed else FAIL, None)),
    "hardy-wright": Law(
        ("e",), lambda e: (PASS if fib_via_binomials(e) == fib(e) else FAIL, None)),
    "inverse-closed-forms": Law(("n",), _check_inverses),
    "eigen-conjecture": Law(("n",), _check_eigen, walk_e=MAX_E + 1),
}


def _grid(name: str, cfg: CampaignConfig) -> list[Job]:
    """Every (law id, params) point of one law over the campaign's ranges."""
    law = LAW_REGISTRY[name]
    values = {"n": range(max(cfg.n_range[0], law.n_lo), cfg.n_range[1] + 1),
              "e": range(max(cfg.e_range[0], law.e_lo), cfg.e_range[1] + 1),
              "p": cfg.primes}
    return [(name, dict(zip(law.axes, point)))
            for point in itertools.product(*(values[axis] for axis in law.axes))]


def _run(job: Job) -> Check:
    name, params = job
    verdict, witness = LAW_REGISTRY[name].check(**params)
    check: Check = {"law": name, "params": params, "verdict": verdict}
    if witness is not None:
        check["witness"] = witness
    return check


def _sort_key(check: Check) -> tuple:
    return (check["law"], *(check["params"].get(axis, 0) for axis in AXES))


def _walk_order(job: Job) -> tuple[int, float, float]:
    """left-closed-form first, e ascending and n descending, so that one
    walk of the largest L_n serves every n; then left-order, p ascending
    and n descending, so that one L_N**p mod p serves every n at p; then
    every other job by (n, e), with each law that sets `walk_e` at that
    place in the R_n walk."""
    name, params = job
    n, e, p = (params.get(axis, 0) for axis in AXES)
    if name == "left-closed-form":
        return (0, e, -n)
    if name == "left-order":
        return (1, p, -n)
    # Only a law with no e axis, where e reads 0, sets walk_e.
    return (2, n, e + LAW_REGISTRY[name].walk_e)


def run_campaign(cfg: CampaignConfig) -> dict[str, Any]:
    """Execute every requested law over its grid on the calling thread (a
    thread pool measured slower); deterministic report.

    The jobs run in `_walk_order`, which keeps request order within a
    grid point: every L_n**e that `laws.power` hands out is a block of
    one walked L_N**e, every L_n**p mod p that left-order reads is a
    block of one L_N**p mod p per prime, the laws at one (n, e) share
    the R_n**e that `laws.power` holds, and a law on the n axis alone
    runs at its `walk_e`, so that eigen-conjecture at n reads the traces
    of the whole R_n walk. Under fail-fast, `stop` is the request index
    of the earliest failure met so far: jobs past it are skipped or
    dropped. Checks are deterministic, so the report is the request
    order's prefix through its first failure.
    """
    jobs = [job for name in cfg.laws for job in _grid(name, cfg)]
    stop, ran = len(jobs), {}
    for k in sorted(range(len(jobs)), key=lambda k: _walk_order(jobs[k])):
        if k < stop:
            ran[k] = check = _run(jobs[k])
            if cfg.fail_fast and check["verdict"] == FAIL:
                stop = k
    checks = sorted((check for k, check in ran.items() if k <= stop), key=_sort_key)
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
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
        settings.update(_typed_config(raw))
    # An unset flag is None, so it leaves the config file's value alone.
    for key, (_, _, parse) in CONFIG_SCHEMA.items():
        value = getattr(args, key)
        if value is not None:
            settings[key] = parse(value)
    if "laws" not in settings:
        raise UsageError("no laws requested (use --laws or a config file)")
    cfg = CampaignConfig(**{key: tuple(value) if isinstance(value, list) else value
                            for key, value in settings.items()})
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


def _is_int(value: Any) -> bool:
    # JSON true/false load as bools, which Python also counts as ints.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_int_pair(value: Any) -> bool:
    return _is_int_list(value) and len(value) == 2


# Config key -> (what its value must be, type check, parser of its flag's
# text). argparse has already typed --format, --fail-fast and --threads.
CONFIG_SCHEMA: dict[str, tuple[str, Callable[[Any], bool], Callable[[Any], Any]]] = {
    "laws": ("a list of law id strings",
             lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
             lambda text: [law.strip() for law in text.split(",") if law.strip()]),
    "n_range": ("a pair of integers [A, B]", _is_int_pair, _parse_range),
    "e_range": ("a pair of integers [A, B]", _is_int_pair, _parse_range),
    "primes": ("a list of integers", _is_int_list, _parse_int_list),
    "output_format": ("a string", lambda v: isinstance(v, str), str),
    "fail_fast": ("true or false", lambda v: isinstance(v, bool), bool),
    "threads": ("an integer", _is_int, int),
}


def _typed_config(raw: Any) -> dict[str, Any]:
    """The settings of a loaded JSON config, each checked against CONFIG_SCHEMA."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    bad = set(raw) - set(CONFIG_SCHEMA)
    if bad:
        raise UsageError(f"unknown config keys: {', '.join(sorted(bad))}")
    for key, value in raw.items():
        what, ok, _ = CONFIG_SCHEMA[key]
        if not ok(value):
            raise UsageError(f"config key {key!r} must be {what}, "
                             f"got {json.dumps(value)}")
    return raw


# ---------------------------------------------------------------------------
# argument parsing


def _glue_negative_ranges(argv: list[str]) -> list[str]:
    # argparse takes a value such as "-3..-1" for an option, so glue it to
    # its flag: `--e -3..-1` becomes `--e=-3..-1`, and likewise for --n.
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--n", "--e") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
    # Each campaign flag stores under its CONFIG_SCHEMA key.
    verify.add_argument("--laws", help="comma-separated law ids: " + ",".join(LAW_REGISTRY))
    verify.add_argument("--n", dest="n_range", metavar="N", help="dimension range A..B")
    verify.add_argument("--e", dest="e_range", metavar="E", help="exponent range A..B")
    verify.add_argument("--primes", help="comma-separated primes")
    verify.add_argument("--format", dest="output_format", choices=("json", "csv", "plain"))
    verify.add_argument("--fail-fast", action="store_true", default=None)
    verify.add_argument("--threads", type=int)
    verify.add_argument("--config", help="JSON campaign config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact values print in full: F_20578 alone has 4301 digits, past
        # the interpreter's default cap on int-to-string conversion.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(_glue_negative_ranges(
        sys.argv[1:] if argv is None else argv))
    handlers = {"matrix": cmd_matrix, "fib": cmd_fib,
                "order": cmd_order, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
