"""Tests of the benchmark itself: output contract, span coverage, repeatable counts.

    python3 -m pytest -q bench/test_bench.py

Runs the real benchmark with short runs (about two minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import answers
import trees

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The workloads whose ops reach each span, from the per-layer table in
# README.md; every other workload must record no call at all.
SPAN_USERS = {
    "newick.parse": {"golden", "deep"},
    "newick.serialize": {"golden"},
    "tree.build": set(WORKLOADS),
    "tree.restrict": {"golden", "extremal", "deep"},
    "tree.pendant": {"extremal"},
    "tree.canonical": {"golden", "extremal", "deep"},
    "mast.dp": {"golden", "extremal", "deep"},
    "mast.table_fill": set(WORKLOADS),
    "construct.build": {"extremal"},
    "construct.verify": {"extremal"},
    "bounds.trial": {"probe"},
}
COUNT_USERS = {"construct.anticat_calls": {"extremal"}}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@lru_cache(maxsize=None)
def traced(workload: str, repeat: int) -> tuple[dict, dict]:
    """(detail, result) of a short traced run; ``repeat`` tells runs apart."""
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def assert_contract(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs
    }


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_bench("--workload", "extremal", "--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    assert_contract(json.loads(result), SPEC["end_to_end"])
    detail = json.loads(detail)
    assert detail["fail_frac"] == 0
    assert {"python", "numpy", "nproc"} <= set(detail)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    _, result = traced(workload, 0)
    assert_contract(result, SPEC["per_layer"])


@pytest.mark.parametrize("span", sorted(SPAN_USERS))
def test_each_span_is_called_exactly_where_the_table_says(span):
    called = {w for w in WORKLOADS if traced(w, 0)[0]["span_calls"].get(span, 0) > 0}
    assert called == SPAN_USERS[span]


@pytest.mark.parametrize("count", sorted(COUNT_USERS))
def test_each_counter_moves_exactly_where_the_table_says(count):
    called = {w for w in WORKLOADS if traced(w, 0)[0]["counts"].get(count, 0) > 0}
    assert called == COUNT_USERS[count]


def test_functions_are_wrapped_where_they_are_bound():
    bindings = traced("golden", 0)[0]["bindings"]
    # mast, construct, cli and the package namespace
    assert bindings["mast_dp"] == 4
    # tree, construct, bounds and the package namespace
    assert bindings["make_balanced"] == 4
    # mast, bounds and the package namespace
    assert bindings["mast_size_matrix"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_with_the_same_seed(workload):
    # per-op figures: the two runs may trace different numbers of ops
    first = traced(workload, 0)[1]["metrics"]
    second = traced(workload, 1)[1]["metrics"]
    counts = [s["name"] for s in SPEC["per_layer"] if s["unit"] in ("count", "B", "MB")]
    for name in counts + ["tree.restrict_keep_ratio"]:
        assert first[name] == second[name], name


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "golden", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_restriction_oracle_tells_trees_apart():
    s = trees.caterpillar(["a", "b", "c", "d"])
    t = trees.caterpillar(["d", "c", "b", "a"])
    assert trees.same_restrictions(s, t, {"a", "b"})
    assert not trees.same_restrictions(s, t, {"a", "b", "c"})
    assert trees.restricted_form(trees.parse(trees.to_newick(s)), {"c", "d"}) == "(c,d)"


def test_cli_check_rejects_wrong_answers():
    expect = {"json": {"min_mast": 84}}
    assert answers.check_cli(expect, 0, '{"min_mast": 84}')
    assert not answers.check_cli(expect, 0, '{"min_mast": 83}')
    assert not answers.check_cli(expect, 1, '{"min_mast": 84}')
    assert not answers.check_cli({"stdout": "32"}, 0, "Traceback")
