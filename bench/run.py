"""pascalfib benchmark: campaign time to solution, peak RSS and set-up
time on three workloads, plus a traced run with per-module metrics.

Usage, from the repository root:

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --out bench/BENCH_baseline.json

Each workload (see workloads.py) is a fixed sequence of `pascalfib` CLI
invocations, each a fresh `python3 -m pascalfib.cli` process with
PYTHONPATH=src, run in a closed loop by one client: an iteration runs
the sequence once, and iterations repeat until --seconds have passed.
Every output is checked (exit code 0, the campaign's exact set of checks,
no `fail` verdict, the stdout digests in digests.json); an invocation
with any mismatch counts as failed.

--trace 0 reports the end-to-end metrics, as medians over iterations:
  wall_s       time to solution of one iteration, tracing off
  peak_rss_mb  largest resident set of any process in an iteration
  setup_s      time for a fresh interpreter to import pascalfib.cli
wall_s is given at reference speed: multiplied by REFERENCE_S over the
median time of reference_work(), a fixed pure-Python load that the
harness times in its own process after every iteration. A shared host's
speed drifts by tens of percent over minutes, which a 40-second run
cannot average out; the scaling cancels most of that drift. The `#`
lines show the raw median beside it. setup_s is not scaled: the import
is dominated by interpreter start-up, which the reference does not track.
--trace 1 alternates untraced iterations with iterations run through
tracer.py and reports the per-module metrics (PER_LAYER below) and
trace.overhead_frac, the traced wall time over the untraced one, minus 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all every workload runs
in turn and ends with one such line each; --out merges the results,
stamped with machine, Python, nproc and commit, into a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 1
SETUP_PER_ITERATION = 2
REFERENCE_S = 0.07
INVOCATION_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAW_VERIFIERS = ("verify_fib_recurrence", "verify_border_formulas",
                 "verify_row_propagation", "verify_square_recurrence",
                 "verify_cube_recurrence", "verify_row_expansion_23")

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER: dict[str, str] = {}
for _fn in ("core.mat_mul", "core.mat_pow", "core.unimodular_inverse", "core.charpoly",
            "core.modmat_mul", "core.modmat_pow", "core.is_prime",
            "pascal.build_right", "pascal.build_left", "fib.fib", "fib.fib_mod_data",
            "modorder.matrix_order_mod"):
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
PER_LAYER.update({
    "core.mat_mul.max_entry_bits": "bits",
    "fib.fib.max_index": "index",
    "fib.fib_mod_data.hit_ratio": "ratio",
    "fib.fib_pair_mod.calls": "count",
    **{f"laws.{name}.self_s": "s" for name in LAW_VERIFIERS},
    "laws.cells_checked": "count",
    "laws.mat_pow_per_check": "ratio",
    "laws.distinct_power_ratio": "ratio",
    "modorder.modmat_mul_per_order": "ratio",
    "modorder.order_searches_per_np": "ratio",
    "modorder.verifiers.self_s": "s",
    "spectra.check_eigen_conjecture.self_s": "s",
    "spectra.conjectured_charpoly.self_s": "s",
    "cli.run_campaign.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.cpu_util": "ratio",
    "cli.checks": "count",
    "trace.overhead_frac": "ratio",
})


# ---------------------------------------------------------------------------
# processes


@dataclass
class Process:
    stdout: bytes
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def run_process(argv: list[str]) -> Process:
    """Run one child to completion; its rusage comes from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return Process(stdout, proc.returncode, time.perf_counter() - start,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_argv(args: tuple[str, ...], trace_out: str | None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "pascalfib.cli", *args]
    return [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), trace_out, *args]


def time_import() -> float:
    """Time for a fresh interpreter to import pascalfib.cli."""
    proc = run_process([sys.executable, "-c", "import pascalfib.cli"])
    if proc.code != 0:
        raise RuntimeError("importing pascalfib.cli failed")
    return proc.wall_s


def reference_work() -> int:
    """Fixed pure-Python work like the program's kernels: repeated
    squaring of an 8 x 8 matrix modulo a small and a 256-bit prime."""
    out = 0
    for modulus, rounds in ((1_000_003, 300), ((1 << 256) - 189, 120)):
        m = [[(3 * i + j) % 101 for j in range(8)] for i in range(8)]
        for _ in range(rounds):
            m = [[sum(a * b for a, b in zip(row, col)) % modulus for col in zip(*m)]
                 for row in m]
        out += m[0][0]
    return out


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# iterations


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    process_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    stdouts: list[bytes] = field(default_factory=list)
    traces: list[dict[str, Any]] = field(default_factory=list)


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run_iteration(invocations: list[workloads.Invocation], digests: dict[str, str],
                  traced: bool) -> Iteration:
    it = Iteration()
    start = time.perf_counter()
    for number, inv in enumerate(invocations):
        trace_out = (os.path.join(TRACE_DIR, f"trace-{os.getpid()}-{number}.json")
                     if traced else None)
        proc = run_process(cli_argv(inv.argv, trace_out))
        it.cpu_s += proc.cpu_s
        it.process_wall_s += proc.wall_s
        it.peak_rss_mb = max(it.peak_rss_mb, proc.maxrss_mb)
        it.stdouts.append(proc.stdout)
        reasons = []
        if proc.code != 0:
            reasons.append(f"exit code {proc.code}")
        if inv.key in digests and digests[inv.key] != sha256(proc.stdout):
            reasons.append("stdout digest mismatch")
        reason = inv.check(proc.stdout)
        if reason is not None:
            reasons.append(reason)
        if trace_out is not None:
            try:
                with open(trace_out, encoding="utf-8") as fh:
                    it.traces.append(json.load(fh))
                os.remove(trace_out)
            except (OSError, ValueError) as exc:
                reasons.append(f"no trace: {exc}")
                it.traces.append({"spans": {}, "counts": {}, "maxima": {}})
        if reasons:
            it.failures.append(f"{inv.key[:60]}...: {'; '.join(reasons)}")
    it.wall_s = time.perf_counter() - start
    return it


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Run:
    plain: list[Iteration] = field(default_factory=list)
    traced: list[Iteration] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)


def run_loop(invocations: list[workloads.Invocation], digests: dict[str, str],
             seconds: float, traced: bool) -> Run:
    """Closed loop for `seconds`. Each untraced iteration is followed by
    a traced one when `traced`, else by SETUP_PER_ITERATION import
    timings, each followed by a reference timing, so set-up and host
    speed are sampled across the same window as the iterations. A new
    iteration starts only if the last one would still fit, so a run
    overshoots `seconds` only when the first iteration already does."""
    run = Run()
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
    else:
        time_import()  # writes the bytecode cache on a fresh checkout
        time_reference()
    start = time.perf_counter()
    last = 0.0
    while not run.plain or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        run.plain.append(run_iteration(invocations, digests, traced=False))
        if traced:
            run.traced.append(run_iteration(invocations, digests, traced=True))
        else:
            for _ in range(SETUP_PER_ITERATION):
                run.setup_s.append(time_import())
                run.reference_s.append(time_reference())
        last = time.perf_counter() - t0
    return run


# ---------------------------------------------------------------------------
# metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(it: Iteration) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, summed over its processes."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for trace in it.traces:
        for name, values in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += values[k]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in trace["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        fn, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(fn)
        elif kind == "self_s":
            out[metric] = self_s(fn)
    law_checks = sum(calls(f"laws.{name}") for name in LAW_VERIFIERS)
    order_searches = calls("modorder.matrix_order_mod")
    fib_mod_calls = calls("fib.fib_mod_data")
    out.update({
        "core.mat_mul.max_entry_bits": maxima.get("core.mat_mul.max_entry_bits", 0),
        "fib.fib.max_index": maxima.get("fib.fib.max_index", 0),
        "fib.fib_mod_data.hit_ratio": _ratio(
            fib_mod_calls - counts.get("distinct.fib.moduli", 0), fib_mod_calls),
        "laws.cells_checked": counts.get("laws.cells_checked", 0),
        "laws.mat_pow_per_check": _ratio(counts.get("laws.mat_pow", 0), law_checks),
        "laws.distinct_power_ratio": _ratio(counts.get("distinct.laws.powers", 0),
                                            counts.get("laws.mat_pow", 0)),
        "modorder.modmat_mul_per_order": _ratio(
            counts.get("modorder.modmat_mul_in_order", 0), order_searches),
        "modorder.order_searches_per_np": _ratio(
            order_searches, counts.get("distinct.modorder.order_inputs", 0)),
        "modorder.verifiers.self_s": sum(v[2] for name, v in spans.items()
                                         if name.startswith("modorder.verify_")),
        "cli.cpu_util": _ratio(it.cpu_s, it.process_wall_s),
        "cli.checks": counts.get("cli.checks", 0),
    })
    return out


def median(values: list[float]) -> float:
    """The median; for whole-number samples, such as counts, the lower middle one."""
    if all(isinstance(x, int) for x in values):
        return statistics.median_low(values)
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    invocations = workloads.build(workload, seed)
    digests = load_digests().get(workload, {})
    run = run_loop(invocations, digests, seconds, trace)
    plain, traced = run.plain, run.traced
    iterations = plain + traced
    failures = [f for it in iterations for f in it.failures]
    if trace:
        per_iteration = [layer_metrics(it) for it in traced]
        overhead = (statistics.median(it.wall_s for it in traced)
                    / statistics.median(it.wall_s for it in plain) - 1)
        samples = {name: [m[name] for m in per_iteration] for name in PER_LAYER
                   if name != "trace.overhead_frac"}
        samples["trace.overhead_frac"] = [overhead]
        units = PER_LAYER
    else:
        scale = REFERENCE_S / statistics.median(run.reference_s)
        samples = {"wall_s": [it.wall_s * scale for it in plain],
                   "peak_rss_mb": [it.peak_rss_mb for it in plain],
                   "setup_s": run.setup_s}
        units = END_TO_END
    metrics = {name: {"value": median(samples[name]), "unit": units[name]} for name in units}
    return {
        "correct": not failures,
        "attempted": len(iterations) * len(invocations),
        "failed": len(failures),
        "metrics": metrics,
        "samples": samples,
        "iterations": len(plain),
        "failures": failures,
        "reference_s": run.reference_s,
    }


def stamp() -> dict[str, Any]:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"machine": platform.machine(), "platform": platform.platform(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit}


def report(workload: str, result: dict[str, Any]) -> None:
    print(f"# {workload}: {result['iterations']} untraced iterations, "
          f"{result['attempted']} invocations, {result['failed']} failed, "
          f"fail_frac {result['failed'] / result['attempted']:.4g}")
    for failure in sorted(set(result["failures"])):
        print(f"#   {result['failures'].count(failure)}x FAIL {failure}")
    if result["reference_s"]:
        reference = statistics.median(result["reference_s"])
        raw_wall = median(result["samples"]["wall_s"]) * reference / REFERENCE_S
        print(f"# reference_work median {reference:.4g} s of {len(result['reference_s'])}; "
              f"raw wall_s {raw_wall:.4g} s")
    for name, metric in result["metrics"].items():
        samples = result["samples"][name]
        q1, _, q3 = quartiles(samples)
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}"
              f"  (median of {len(samples)}, q1 {q1:.6g}, q3 {q3:.6g})")
        if len(samples) > 1:
            print(f"#   samples: {' '.join(f'{x:.4g}' for x in samples)}")


def record_digests(seed: int) -> None:
    """Store the stdout digest of every invocation of every workload."""
    table = {}
    for workload in workloads.WORKLOADS:
        invocations = workloads.build(workload, seed)
        it = run_iteration(invocations, {}, traced=False)
        for failure in it.failures:
            print(f"# {workload}: recorded although it fails: {failure}", file=sys.stderr)
        table[workload] = {inv.key: sha256(out)
                           for inv, out in zip(invocations, it.stdouts)}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "digests": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_out(path: str, seed: int, seconds: float, trace: bool,
              results: dict[str, dict[str, Any]]) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.update({"stamp": stamp(), "seed": seed, "seconds": seconds})
    for workload, result in results.items():
        entry = data.setdefault("results", {}).setdefault(workload, {})
        entry["per_layer" if trace else "end_to_end"] = {
            key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="merge the results, with a machine stamp, into this JSON file")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the outputs for --seed, then exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pascalfib", "cli.py")):
        print(f"error: no pascalfib sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    if args.record_digests:
        record_digests(args.seed)
        return 0
    print("# " + json.dumps(stamp(), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        results[workload] = summarize(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, results[workload])
    if args.out is not None:
        write_out(args.out, args.seed, args.seconds, bool(args.trace), results)
    for workload in names:
        result = results[workload]
        print(json.dumps({key: result[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
