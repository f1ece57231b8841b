"""The in-process part of one benchmark run, in a fresh process started by run.py.

Closed loop, one op at a time, no threads: make the op's input, time the op,
check its answer outside the timed region, repeat.  One untimed warm-up
cycle comes first.  With ``--trace 0`` the loop runs for ``--seconds`` of op
time.  With ``--trace 1`` it runs half of that untraced, then half with the
`spans.Tracer` installed, then times the workload's CLI command through
``mastforge.cli.main`` in this process.  The worker also writes the input
files of the CLI runs that run.py makes after it exits.  Prints one JSON
line for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path

import mastforge
import numpy
from mastforge import cli

import workloads
from answers import check_cli
from spans import OP_SPAN, Tracer, layer_metrics
from speed import Timed

ROOT = Path(__file__).resolve().parent.parent
CLI_RUNS = 9  # CLI child processes per run (made by run.py)
CLI_MAIN_RUNS = 3  # in-process cli.main calls per traced run
TAIL_BEYOND = 10  # op_s_tail: highest percentile with this many ops above it


class Loop:
    """The closed loop over one workload, with its op and failure counts."""

    def __init__(self, workload):
        self.workload = workload
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.factors: dict[int, float] = {}  # op index -> host-speed factor
        self.raw: list[float] = []  # unscaled wall times of passed ops

    def run(self, budget_s: float, tracer: Tracer | None = None) -> list[float]:
        """Ops until ``budget_s`` seconds of op time are spent, in whole
        cycles (at least one).  Returns the host-scaled times (see `speed`)
        of the ops that passed."""
        wl = self.workload
        times: list[float] = []
        self.raw = []
        spent = 0.0
        start = self.next_index
        while True:
            index = self.next_index
            self.next_index += 1
            self.attempted += 1
            inp = wl.make_input(index)
            gc.collect()  # the checks' garbage is not the next op's to collect
            out = None
            with Timed() as timer, tracer.op(index) if tracer else contextlib.nullcontext():
                try:
                    out = wl.run(inp)
                except Exception:  # a failed op is counted, not fatal
                    traceback.print_exc()
            self.factors[index] = timer.factor
            spent += timer.wall_s
            if out is not None and self._passes(inp, out):
                times.append(timer.scaled_s)
                self.raw.append(timer.wall_s)
            else:
                self.failed += 1
                print(f"{wl.name} op {index} failed", file=sys.stderr)
            if spent >= budget_s and (self.next_index - start) % wl.cycle == 0:
                if not times:
                    raise RuntimeError(f"no {wl.name} op passed its check")
                return times

    def _passes(self, inp, out) -> bool:
        try:
            return bool(self.workload.check(inp, out))
        except Exception:  # a malformed answer fails its check
            traceback.print_exc()
            return False

    def cli_main(self, cases: list[dict]) -> list[float]:
        """Host-scaled times of ``cli.main(argv)`` in this process."""
        times = []
        for case in cases:
            self.attempted += 1
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), Timed() as timer:
                code = cli.main(list(case["argv"]))
            if check_cli(case["expect"], code, buf.getvalue()):
                times.append(timer.scaled_s)
            else:
                self.failed += 1
                print(f"cli.main {case['argv']} failed", file=sys.stderr)
        return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops above it) of the highest percentile of op
    time with ``TAIL_BEYOND`` ops beyond it (fewer if the run is short)."""
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def measure(args) -> dict:
    src = ROOT / "src"
    if Path(mastforge.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"mastforge imported from {mastforge.__file__}, not {src}")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    loop = Loop(wl)
    loop.run(0.0)  # warm-up cycle: lazy set-up and caches, checked but untimed

    metrics: dict[str, tuple[float, str]] = {}
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    if args.trace:
        plain = loop.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics.update(layer_metrics(tracer, loop.factors))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        calls, _, _ = tracer.span_totals(loop.factors)
        detail.update(
            traced_ops=calls[OP_SPAN],
            span_calls=dict(calls),
            counts=dict(tracer.counts),
            bindings=dict(tracer.bindings),
        )
    else:
        times = loop.run(args.seconds)
        tail_value, tail_pct, beyond = tail(times)
        metrics["op_s_p50"] = (statistics.median(times), "s")
        metrics["op_s_tail"] = (tail_value, "s")
        metrics["ops_per_s"] = (len(times) / sum(times), "1/s")
        detail.update(
            ops=len(times),
            op_s_tail_percentile=tail_pct,
            op_s_tail_ops_beyond=beyond,
            raw_op_s_p50=statistics.median(loop.raw),
            host_factor_p50=statistics.median(loop.factors.values()),
        )

    cases = [wl.cli_case(j, Path(args.workdir)) for j in range(CLI_RUNS)]
    if args.trace:
        main_s = loop.cli_main(cases[:CLI_MAIN_RUNS])
        metrics["cli.main_s"] = (statistics.median(main_s) if main_s else 0.0, "s")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "cases": cases,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True, help="where CLI input files go")
    print(json.dumps(measure(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
