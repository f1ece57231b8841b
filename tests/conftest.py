"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: nested
isomorphism is checked by exhaustive recursive matching, and the space of
all rooted binary leaf-labelled trees on a small label set is enumerated
directly, so canonical forms and the MAST solver can be validated against
something that cannot share their bugs.  Caterpillar embeddings are
re-checked by restricting a concrete host, independently of the position
arithmetic `PackingPlan` validates itself with.
"""

import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

from mastforge import (
    Tree,
    TreeError,
    build_overlap_pair,
    make_balanced,
    make_caterpillar,
    mast_size_matrix,
    parse,
)
from mastforge import mast as mast_module

DATA_DIR = Path(__file__).parent / "data"

# Balanced 8-leaf tree arranged so {1,2,3,4} and {5,6,7,8} restrict to the
# caterpillars (1,2,3,4) and (5,6,7,8): the smallest perfectly packed shape.
PACKED_8_LEAVES = ["1", "2", "3", "8", "5", "6", "7", "4"]


@pytest.fixture(scope="session")
def packed8() -> Tree:
    return make_balanced(3, PACKED_8_LEAVES)


@pytest.fixture(scope="session")
def golden_s() -> Tree:
    return parse((DATA_DIR / "balanced2048_s.nwk").read_text())


@pytest.fixture(scope="session")
def golden_t() -> Tree:
    return parse((DATA_DIR / "balanced2048_t.nwk").read_text())


def assert_fills_match_naive(s, t, block_leaves=None):
    """Both modes' fills against :func:`naive_mast_table`, cell by cell: the
    full table is its rows at S's internal nodes, in postorder, and the root
    row is its root's row.  With ``block_leaves`` both fills split S into
    blocks of at most that many leaves: BATCH_CELLS is divided by
    height(T) + 1 for the full table and by |T| for the root row."""
    naive = naive_mast_table(s, t)
    full_cells = root_cells = mast_module.BATCH_CELLS
    if block_leaves:
        full_cells = block_leaves * (t.height + 1)
        root_cells = block_leaves * len(t.label)
    with mock.patch.object(mast_module, "BATCH_CELLS", full_cells):
        table = mast_size_matrix(s, t)
    with mock.patch.object(mast_module, "BATCH_CELLS", root_cells):
        root = mast_size_matrix(s, t, root_only=True)
    assert table.tolist() == [row for row, a in zip(naive, s.left) if a >= 0]
    assert root.tolist() == [naive[s.root]]


def backtrack_cells(s, t) -> list[list[int]]:
    """Every cell ``[u][v]`` as ``mast_dp``'s backtrack reads it from the
    full table: an internal node's from its row, a leaf's derived."""
    cell = mast_module._cells(s, t, mast_size_matrix(s, t))
    return [[cell(u, v) for v in range(len(t.label))] for u in range(len(s.label))]


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates above what is live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def random_tree(rng: random.Random, labels) -> Tree:
    """Uniformly merge subtrees until one remains (random topology)."""
    parts = list(labels)
    assert parts, "need at least one label"
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        parts.append((a, b))
    return Tree.from_nested(parts[0])


def random_overlapping_pair(rng: random.Random, max_common: int = 10):
    """Two random trees sharing between 1 and ``max_common`` labels, each
    padded with its own private labels."""
    n_common = rng.randint(1, max_common)
    common = [f"c{i}" for i in range(n_common)]
    extra_s = [f"s{i}" for i in range(rng.randint(0, 6))]
    extra_t = [f"t{i}" for i in range(rng.randint(0, 6))]
    return (
        random_tree(rng, common + extra_s),
        random_tree(rng, common + extra_t),
        common,
    )


def overlap_instance(h1: int, h2: int, p: int, q: int) -> tuple[Tree, Tree]:
    """Slice a grid pair down to p and q pendant subtrees per side (p, q
    powers of two at most 2**h1), preserving the equal-overlap and
    anti-caterpillar hypotheses with possibly different label sets.
    """
    for name, val in (("p", p), ("q", q)):
        if val < 1 or val & (val - 1):
            raise ValueError(f"{name} must be a positive power of two, got {val}")
        if val > 1 << h1:
            raise ValueError(f"{name}={val} exceeds the {1 << h1} available subtrees")
    s, t = build_overlap_pair(h1, h2)
    s_slice = s.pendant_subtrees_at_depth(h1 - p.bit_length() + 1)[0]
    t_slice = t.pendant_subtrees_at_depth(h1 - q.bit_length() + 1)[0]
    return s_slice, t_slice


def _rebuild(tree: Tree, leaf, join) -> Tree:
    """A new tree from a postorder fold over ``tree``'s ids: ``leaf(label)``
    at each leaf, ``join(a, b)`` of the children's nested forms above it.
    Iterative, so caterpillars of any height rebuild."""
    built: list = []
    for a, b, lab in zip(tree.left, tree.right, tree.label):
        built.append(leaf(lab) if a < 0 else join(built[a], built[b]))
    return Tree.from_nested(built[-1])


def relabel(tree: Tree, mapping: dict) -> Tree:
    """Rebuild ``tree`` with every leaf label passed through ``mapping``."""
    return _rebuild(tree, mapping.__getitem__, lambda a, b: (a, b))


def shuffle_children(tree: Tree, rng: random.Random) -> Tree:
    """Rebuild ``tree`` with child order randomly flipped at every node
    (one draw per internal node, in postorder)."""
    return _rebuild(tree, str, lambda a, b: (b, a) if rng.random() < 0.5 else (a, b))


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def nested_forms(tree: Tree) -> list:
    """The nested form of the subtree at every node id (postorder fold)."""
    forms: list = []
    for a, b, lab in zip(tree.left, tree.right, tree.label):
        forms.append(lab if a < 0 else (forms[a], forms[b]))
    return forms


def to_nested(tree: Tree):
    """The nested form (labels and pairs) of ``tree``."""
    return nested_forms(tree)[-1]


def nested_height(nested) -> int:
    """The deepest leaf's depth in a nested form, by a walk from the root
    that shares nothing with ``Tree.height``'s fold over postorder ids.
    Iterative, so caterpillars of any height are measured."""
    deepest, stack = 0, [(nested, 0)]
    while stack:
        item, depth = stack.pop()
        if isinstance(item, str):
            deepest = max(deepest, depth)
        else:
            stack.extend((child, depth + 1) for child in item)
    return deepest


def nested_isomorphic(a, b) -> bool:
    """Unordered rooted isomorphism on nested forms by direct matching."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a1, a2 = a
    b1, b2 = b
    return (nested_isomorphic(a1, b1) and nested_isomorphic(a2, b2)) or (
        nested_isomorphic(a1, b2) and nested_isomorphic(a2, b1)
    )


def all_tree_shapes(labels: tuple):
    """Every rooted binary leaf-labelled tree on ``labels`` as a nested form
    ((2n-3)!! of them), enumerated by anchored bipartitions."""
    if len(labels) == 1:
        return [labels[0]]
    first, rest = labels[0], labels[1:]
    shapes = []
    for mask in range(1 << len(rest)):
        left = [rest[i] for i in range(len(rest)) if mask >> i & 1]
        right = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
        if not right:
            continue
        for ls in all_tree_shapes(tuple([first] + left)):
            for rs in all_tree_shapes(right):
                shapes.append((ls, rs))
    return shapes


def displayed_triple(tree: Tree, a: str, b: str, c: str) -> str:
    """Canonical form of the induced 3-leaf restriction."""
    return tree.restrict({a, b, c}).canonical_form()


def naive_mast_table(s: Tree, t: Tree) -> list[list[int]]:
    """Reference MAST size of every node pair, ``[u][v]`` as in
    ``mast_size_matrix``: memoized recursion written directly from the
    recurrence, sharing no code with the vectorized solver."""
    from functools import cache

    @cache
    def go(u: int, v: int) -> int:
        a, b = s.left[u], s.right[u]
        c, d = t.left[v], t.right[v]
        if a < 0 and c < 0:
            return int(s.label[u] == t.label[v])
        if a < 0:
            return max(go(u, c), go(u, d))
        if c < 0:
            return max(go(a, v), go(b, v))
        return max(
            go(a, c) + go(b, d),
            go(a, d) + go(b, c),
            go(u, c),
            go(u, d),
            go(a, v),
            go(b, v),
        )

    # postorder rows and columns: each cell's terms are already cached, so
    # the recursion stays shallow on deep trees
    return [[go(u, v) for v in range(len(t.label))] for u in range(len(s.label))]


def naive_mast_size(s: Tree, t: Tree) -> int:
    """Reference MAST size: the root cell of :func:`naive_mast_table`."""
    return naive_mast_table(s, t)[s.root][t.root]


@dataclass(frozen=True)
class CaterpillarEmbedding:
    """An ordered leaf sequence realizing a caterpillar inside a host tree.

    Restricting ``host`` to the sequence must yield exactly the caterpillar
    in that order (checked on construction).
    """

    host: Tree
    leaves: tuple[str, ...]

    def __post_init__(self):
        if not self.leaves:
            raise TreeError("embedding needs at least one leaf")
        realized = self.host.restrict(self.leaves)
        if not realized.is_isomorphic(make_caterpillar(list(self.leaves))):
            raise TreeError(
                f"leaves {self.leaves} do not realize a caterpillar in the host"
            )


def embeddings(plan, host: Tree) -> list[CaterpillarEmbedding]:
    """Bind a packing plan's position sequences to the leaves of a concrete
    balanced host of matching height (validates each embedding via
    restriction)."""
    if not host.is_balanced() or host.height != plan.host_height:
        raise TreeError(
            f"host must be balanced of height {plan.host_height}, "
            f"got height {host.height}"
        )
    leaves = host.leaf_labels_in_order()
    return [
        CaterpillarEmbedding(host, tuple(leaves[p] for p in cat))
        for cat in plan.caterpillars
    ]
