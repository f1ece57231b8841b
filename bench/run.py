"""Benchmark entry point: one run of one workload, result as the last stdout line.

    python3 bench/run.py --workload golden --seed 1 --seconds 12 --trace 0

Run from anywhere inside a source checkout; nothing is installed.  Every
process here starts with a pinned environment: ``PYTHONHASHSEED=0``,
``MAST_FORGE_THREADS`` unset, and ``src`` first on ``PYTHONPATH``.  In order:

1. ``--trace 0``: fresh interpreters that only ``import mastforge``
   (``setup_s``); ``--trace 1``: fresh interpreters timing
   ``import mastforge.cli`` from inside (``cli.import_s``).
2. The workload's worker process (worker.py), whose own ``wait4`` rusage
   gives ``peak_rss_mb``.
3. The workload's CLI command as ``python -m mastforge.cli`` children, each
   timed from spawn to exit, with its peak RSS from its own ``wait4``
   rusage.  Children are spawned from this small process because a child's
   ``ru_maxrss`` starts from its parent's resident size at the fork.

Every process of the run is pinned to one CPU, and every time is scaled to a
reference host speed (see speed.py and README.md).

The line before the result is a JSON ``detail`` record (versions, ``nproc``,
``fail_frac``, the percentile behind ``op_s_tail``, op counts).  Exits
nonzero without a result when the checkout lacks the package or its golden
data, or when a step fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from answers import check_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("golden", "extremal", "probe", "deep")
REQUIRED = (
    Path("src/mastforge/__init__.py"),
    Path("tests/data/balanced2048_s.nwk"),
    Path("tests/data/balanced2048_t.nwk"),
)
SETUP_RUNS = 9  # fresh interpreters per run; the median is reported
DEADLINE_S = 170.0  # the whole run, every child included
MB = 1e6
# Child times are scaled by a reference child run before and after each
# child (see speed.py): seconds on a host where it takes REFERENCE_CHILD_S.
REFERENCE_CHILD = [sys.executable, "-c", "s = 0\nfor i in range(300_000): s += i"]
REFERENCE_CHILD_S = 0.11


class StepFailed(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MAST_FORGE_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    wall_s: float  # spawn to exit
    scaled_s: float  # wall_s at the reference host speed (see speed.py)
    factor: float
    peak_rss_mb: float  # the child's own ru_maxrss from wait4

    def peak(self) -> float:
        """Peak RSS, refused when it may be the spawner's: a child's
        ru_maxrss starts from its parent's peak at the spawn."""
        floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        if self.peak_rss_mb <= floor_mb:
            raise StepFailed(f"a child's peak RSS is hidden by this process's {floor_mb} MB")
        return self.peak_rss_mb


class Children:
    """Runs child processes one at a time, all before one deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = pinned_env()
        self.count = 0
        self._last_reference_s: float | None = None  # if nothing ran after it

    def _spawn(self, argv: list[str]) -> tuple[int, str, float, float]:
        """(exit code, stdout, wall s, peak RSS MB) of one child.

        The child leads its own process group; past the deadline the whole
        group is killed and reaped, and `StepFailed` is raised.
        """
        self.count += 1
        out_path = self.workdir / f"child{self.count}.out"
        err_path = self.workdir / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )
            fd = os.pidfd_open(proc.pid)
            try:
                wait = max(0.0, self.deadline - time.perf_counter())
                ready, _, _ = select.select([fd], [], [], wait)
                if not ready:
                    os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(fd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace"))
        if not ready:
            raise StepFailed(f"{argv[1:3]} did not finish before the deadline")
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, stdout, wall, usage.ru_maxrss * 1024 / MB

    def _reference(self) -> float:
        code, _, wall, _ = self._spawn(REFERENCE_CHILD)
        if code != 0:
            raise StepFailed("the reference interpreter failed")
        self._last_reference_s = wall
        return wall

    def run(self, *args: str) -> Child:
        """A Python child whose time is not a metric."""
        code, stdout, wall, peak = self._spawn([sys.executable, *args])
        self._last_reference_s = None
        return Child(code, stdout, wall, wall, 1.0, peak)

    def timed(self, *args: str) -> Child:
        """A Python child between two reference children (see speed.py)."""
        before = self._last_reference_s or self._reference()
        code, stdout, wall, peak = self._spawn([sys.executable, *args])
        factor = REFERENCE_CHILD_S / ((before + self._reference()) / 2)
        return Child(code, stdout, wall, wall * factor, factor, peak)


def median(values: list[float]) -> float:
    if not values:
        raise StepFailed("no successful sample to take a median of")
    return statistics.median(values)


def measure(args, children: Children) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict = {}
    if args.trace:
        code = "import time; t = time.perf_counter(); import mastforge.cli; " \
               "print(time.perf_counter() - t)"
        imports = [children.timed("-c", code) for _ in range(SETUP_RUNS)]
        if any(c.code != 0 for c in imports):
            raise StepFailed("import mastforge.cli failed")
        metrics["cli.import_s"] = (median([float(c.stdout) * c.factor for c in imports]), "s")
    else:
        # the first, discarded run leaves the bytecode cache warm
        setups = [children.timed("-c", "import mastforge") for _ in range(SETUP_RUNS + 1)]
        if any(c.code != 0 for c in setups):
            raise StepFailed("import mastforge failed")
        metrics["setup_s"] = (median([c.scaled_s for c in setups[1:]]), "s")
        detail["raw_setup_s"] = median([c.wall_s for c in setups[1:]])

    run = children.run(
        str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(children.workdir),
    )
    lines = run.stdout.strip().splitlines()
    if run.code != 0 or not lines:
        raise StepFailed(f"worker failed with exit code {run.code}")
    worker = json.loads(lines[-1])
    metrics.update({k: tuple(v) for k, v in worker["metrics"].items()})
    attempted, failed = worker["attempted"], worker["failed"]

    clis: list[Child] = []
    for case in worker["cases"]:
        child = children.timed("-m", "mastforge.cli", *case["argv"])
        attempted += 1
        if check_cli(case["expect"], child.code, child.stdout):
            clis.append(child)
        else:
            failed += 1
            print(f"CLI run {case['argv']} gave a wrong answer", file=sys.stderr)

    cli_wall = median([c.scaled_s for c in clis])
    if args.trace:
        metrics["cli.overhead_s"] = (cli_wall - metrics["cli.main_s"][0], "s")
    else:
        metrics["peak_rss_mb"] = (run.peak(), "MB")
        metrics["cli_wall_s"] = (cli_wall, "s")
        metrics["cli_peak_rss_mb"] = (median([c.peak() for c in clis]), "MB")
        detail.update(
            raw_cli_wall_s=median([c.wall_s for c in clis]), setup_runs=SETUP_RUNS
        )
    detail = {**worker["detail"], **detail}
    detail.update(cli_runs=len(worker["cases"]), fail_frac=failed / attempted)
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)  # the probe table's seed
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a mastforge checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    # One CPU for every process of the run: the calibration runs on the
    # CPU it calibrates, and the ops are single-threaded anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = measure(args, Children(workdir, time.perf_counter() + DEADLINE_S))
    except StepFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
