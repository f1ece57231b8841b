"""The four workloads: seeded inputs, one op, and the answer check for each.

An op calls only the public mastforge API.  Inputs are made outside the
timed region from the workload seed and the op index, so the same seed gives
the same inputs and no two ops of ``golden`` or ``deep`` send the same bytes.
`check` runs outside the timed region too; for ``golden`` and ``deep`` it
uses the mastforge-free helpers in `trees`.  README.md in this directory says
why each workload exists and what it predicts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import mastforge as mf

import trees

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
CLI_INDEX = 90_000  # op indices from here on feed the CLI runs, never the loop


def op_key(seed: int, index: int) -> int:
    """The integer every random choice of op ``index`` derives from."""
    return seed * 100_000 + index


def _write(path: Path, text: str) -> str:
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


class Golden:
    """The committed 2048-leaf pair, relabelled and child-swapped per op."""

    name = "golden"
    cycle = 1
    expected = 32

    def __init__(self, root: Path, seed: int):
        data = root / "tests" / "data"
        self.seed = seed
        self.s = trees.parse((data / "balanced2048_s.nwk").read_text(encoding="utf-8"))
        self.t = trees.parse((data / "balanced2048_t.nwk").read_text(encoding="utf-8"))
        self.labels = trees.leaves(self.s)

    def make_input(self, index: int):
        rng = random.Random(op_key(self.seed, index))
        mapping = dict(zip(self.labels, rng.sample(self.labels, len(self.labels))))
        s = trees.relabel(self.s, mapping)
        t = trees.relabel(self.t, mapping)
        return s, t, trees.to_newick(s, rng), trees.to_newick(t, rng)

    def run(self, inp):
        s = mf.parse(inp[2])
        t = mf.parse(inp[3])
        result = mf.mast_dp(s, t)
        return result.size, result.witness_labels, mf.serialize(result.agreement_tree)

    def check(self, inp, out) -> bool:
        size, labels, witness = out
        return (
            size == self.expected
            and len(labels) == size
            and trees.same_restrictions(inp[0], inp[1], labels, trees.parse(witness))
        )

    def cli_case(self, j: int, workdir: Path) -> dict:
        _, _, s_text, t_text = self.make_input(CLI_INDEX + j)
        tag = f"golden{j}"
        paths = {
            "s": _write(workdir / f"{tag}_s.nwk", s_text),
            "t": _write(workdir / f"{tag}_t.nwk", t_text),
            "w": str(workdir / f"{tag}_w.nwk"),
        }
        return {
            "argv": ["mast", paths["s"], paths["t"], "--witness", paths["w"]],
            "expect": {"stdout": str(self.expected), "witness": paths},
        }


class Extremal:
    """Build the k=3 pair and verify it; there are no inputs to seed."""

    name = "extremal"
    cycle = 1
    expected = 32

    def __init__(self, root: Path, seed: int):
        pass

    def make_input(self, index: int):
        return None

    def run(self, inp):
        pair = mf.build_counterexample(3)
        return pair, mf.verify_counterexample(pair)

    def check(self, inp, out) -> bool:
        pair, report = out
        return (
            pair.n == 2048
            and report.passed
            and report.record("mast_size").observed == self.expected
        )

    def cli_case(self, j: int, workdir: Path) -> dict:
        return {
            "argv": ["verify", "--k", "3"],
            "expect": {"report": {"mast_size": self.expected}},
        }


class Probe:
    """One uniformly labelled balanced pair on 2048 leaves per op."""

    name = "probe"
    cycle = 1
    m = 11
    reference_file = HERE / "probe_reference.json"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.floor = (1 << self.m) ** 0.17
        self.known = {
            int(k): v for k, v in json.loads(self.reference_file.read_text())["sizes"].items()
        }

    def make_input(self, index: int):
        return op_key(self.seed, index)

    def run(self, inp):
        return mf.empirical_probe(self.m, 1, inp)

    def expected_size(self, pair_seed: int) -> int:
        """MAST of the probe pair of ``pair_seed``: from the committed table
        (default seed), else recomputed once by `mast_dp` on the pair
        rebuilt through `make_balanced`."""
        if pair_seed not in self.known:
            self.known[pair_seed] = rebuilt_probe_size(self.m, pair_seed)
        return self.known[pair_seed]

    def check(self, inp, out) -> bool:
        return (
            out.n == 1 << self.m
            and out.trials == 1
            and out.seed == inp
            and out.all_above
            and out.min_mast >= self.floor
            and out.min_mast == self.expected_size(inp)
        )

    def cli_case(self, j: int, workdir: Path) -> dict:
        # the pair of timed op j + 1, already solved and checked by the loop
        pair_seed = op_key(self.seed, j + 1)
        want = self.expected_size(pair_seed)
        return {
            "argv": ["probe", "--m", str(self.m), "--trials", "1", "--seed", str(pair_seed)],
            "expect": {"json": {"n": 1 << self.m, "all_above": True, "min_mast": want}},
        }


def rebuilt_probe_size(m: int, pair_seed: int) -> int:
    """The probe's documented seeding: trial 0 of seed ``pair_seed`` labels
    both balanced trees by permutations drawn from
    ``default_rng([pair_seed, 0])``."""
    rng = np.random.default_rng([pair_seed & 0xFFFFFFFFFFFFFFFF, 0])
    n = 1 << m
    labels_s = [str(x) for x in rng.permutation(n) + 1]
    labels_t = [str(x) for x in rng.permutation(n) + 1]
    return mf.mast_dp(mf.make_balanced(m, labels_s), mf.make_balanced(m, labels_t)).size


class Deep:
    """400-leaf caterpillar pairs: anti-caterpillars on even ops (MAST 2),
    a caterpillar against a child-swapped copy on odd ops (MAST 400)."""

    name = "deep"
    cycle = 2
    n = 400

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.labels = [str(x) for x in range(1, self.n + 1)]

    def make_input(self, index: int):
        rng = random.Random(op_key(self.seed, index))
        order = rng.sample(self.labels, self.n)
        s = trees.caterpillar(order)
        if index % 2 == 0:
            t, expected = trees.caterpillar(order[::-1]), 2
        else:
            t, expected = s, self.n
        return s, t, trees.to_newick(s, rng), trees.to_newick(t, rng), expected

    def run(self, inp):
        result = mf.mast_dp(mf.parse(inp[2]), mf.parse(inp[3]))
        return result.size, result.witness_labels

    def check(self, inp, out) -> bool:
        size, labels = out
        return (
            size == inp[4]
            and len(labels) == size
            and trees.same_restrictions(inp[0], inp[1], labels)
        )

    def cli_case(self, j: int, workdir: Path) -> dict:
        # odd index: the full-witness kind, so every CLI run does the same work
        _, _, s_text, t_text, expected = self.make_input(CLI_INDEX + 2 * j + 1)
        tag = f"deep{j}"
        return {
            "argv": ["mast", _write(workdir / f"{tag}_s.nwk", s_text),
                     _write(workdir / f"{tag}_t.nwk", t_text)],
            "expect": {"stdout": str(expected)},
        }


WORKLOADS = {cls.name: cls for cls in (Golden, Extremal, Probe, Deep)}
