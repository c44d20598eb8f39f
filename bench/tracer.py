"""Run the pascalfib CLI with every public function of the package traced.

Usage: python3 bench/tracer.py TRACE_OUT CLI_ARGS...

The tracer wraps, from outside and without editing the program, each
public function of each `pascalfib` module, and rebinds the wrapper in
every `pascalfib` module namespace that holds the original (so
`core.mat_mul`, `laws.mat_pow`, `cli.run_campaign` and the like are all
covered). Each call is a span named `<module>.<function>`; a span's
self time is its duration minus that of its child spans. Span stacks
are thread-local, so the spans of a `--threads` pool job nest under
that job, not under whatever the other thread is running. Spans are
folded into per-thread totals kept in memory and written to TRACE_OUT
as JSON when the CLI returns; stdout is left untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

PACKAGE = "pascalfib"


class _ThreadState:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.child_time: list[float] = []
        # name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)


class Tracer:
    """Thread-local span stacks with per-function totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[_ThreadState, tuple, Any], None] | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            state.names.append(name)
            state.child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                state.names.pop()
                child = state.child_time.pop()
                totals = state.spans[name]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - child
                if state.child_time:
                    state.child_time[-1] += duration
            if observe is not None:
                observed = perf_counter()
                observe(state, args, result)
                if state.child_time:
                    # Observer time is tracing cost: keep it out of the parent's self time.
                    state.child_time[-1] += perf_counter() - observed
            return result
        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded pascalfib module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrapped: dict[int, Callable] = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, OBSERVERS.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def summary(self) -> dict[str, Any]:
        spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: dict[str, int] = defaultdict(int)
        maxima: dict[str, int] = defaultdict(int)
        keys: dict[str, set] = defaultdict(set)
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.spans.items():
                acc = spans[name]
                acc[0] += calls
                acc[1] += total
                acc[2] += own
            for name, value in state.counts.items():
                counts[name] += value
            for name, value in state.maxima.items():
                maxima[name] = max(maxima[name], value)
            for name, value in state.keys.items():
                keys[name] |= value
        counts.update({f"distinct.{name}": len(value) for name, value in keys.items()})
        return {"spans": dict(spans), "counts": dict(counts), "maxima": dict(maxima)}


# ---------------------------------------------------------------------------
# observers: counters read from arguments and results, keyed by span name


def _mat_mul(state: _ThreadState, args: tuple, result: Any) -> None:
    bits = max(abs(x).bit_length() for row in result.rows for x in row)
    if bits > state.maxima["core.mat_mul.max_entry_bits"]:
        state.maxima["core.mat_mul.max_entry_bits"] = bits


def _mat_pow(state: _ThreadState, args: tuple, result: Any) -> None:
    if state.names and state.names[-1].startswith("laws."):
        state.counts["laws.mat_pow"] += 1
        matrix, e = args
        state.keys["laws.powers"].add((hash(matrix), e))


def _modmat_mul(state: _ThreadState, args: tuple, result: Any) -> None:
    if "modorder.matrix_order_mod" in state.names:
        state.counts["modorder.modmat_mul_in_order"] += 1


def _fib(state: _ThreadState, args: tuple, result: Any) -> None:
    if args[0] > state.maxima["fib.fib.max_index"]:
        state.maxima["fib.fib.max_index"] = args[0]


def _fib_mod_data(state: _ThreadState, args: tuple, result: Any) -> None:
    state.keys["fib.moduli"].add(args[0])


def _matrix_order_mod(state: _ThreadState, args: tuple, result: Any) -> None:
    matrix = args[0]
    state.keys["modorder.order_inputs"].add((hash(matrix), matrix.p))


def _cell_law(state: _ThreadState, args: tuple, result: Any) -> None:
    state.counts["laws.cells_checked"] += result.checked_cells


def _run_campaign(state: _ThreadState, args: tuple, result: Any) -> None:
    state.counts["cli.checks"] += len(result["checks"])


OBSERVERS: dict[str, Callable[[_ThreadState, tuple, Any], None]] = {
    "core.mat_mul": _mat_mul,
    "core.mat_pow": _mat_pow,
    "core.modmat_mul": _modmat_mul,
    "fib.fib": _fib,
    "fib.fib_mod_data": _fib_mod_data,
    "modorder.matrix_order_mod": _matrix_order_mod,
    "cli.run_campaign": _run_campaign,
    **{f"laws.{name}": _cell_law for name in (
        "verify_square_recurrence", "verify_cube_recurrence", "verify_fib_recurrence",
        "verify_border_formulas", "verify_row_expansion_23", "verify_row_propagation")},
}


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from pascalfib import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
