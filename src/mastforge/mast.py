"""Maximum agreement subtree (MAST) computation for rooted binary trees.

For trees S and T with maximal pendant subtrees S_L, S_R and T_L, T_R the
MAST size satisfies the recursion

    mast(S, T) = max{ mast(S_L, T_L) + mast(S_R, T_R),
                      mast(S_L, T_R) + mast(S_R, T_L),
                      mast(S, T_L), mast(S, T_R),
                      mast(S_L, T), mast(S_R, T) }

with base cases mast(leaf x, T) = 1 if x is a label of T else 0 (and
symmetrically).  `mast_dp` evaluates it bottom-up over all node pairs, an
O(|S| * |T|) table, and reconstructs one witness label set by backtracking.
`mast_bruteforce` is a deliberately independent oracle that enumerates label
subsets and compares restrictions, usable only for small intersections.

Witnesses are not unique; ties are broken in the fixed order the terms are
listed above, so repeated runs return identical witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tree import Tree

BRUTEFORCE_LIMIT = 16


@dataclass(frozen=True)
class MastResult:
    """MAST size with one witness.

    Restricting either input tree to ``witness_labels`` yields a tree
    isomorphic to ``agreement_tree``.  When the leaf sets are disjoint the
    size is 0 and the agreement tree is absent.
    """

    size: int
    witness_labels: frozenset[str]
    agreement_tree: Tree | None


def mast_size_matrix(s: Tree, t: Tree) -> np.ndarray:
    """Pairwise subtree MAST sizes.

    Entry ``[u, v]`` (node ids of ``s`` and ``t``; ids are postorder, the
    roots are ``s.root`` and ``t.root``) is the MAST size of the subtree of
    ``s`` at ``u`` versus the subtree of ``t`` at ``v``.
    """
    matrix = np.zeros((len(s.label), len(t.label)), dtype=np.int32)

    # T-side geometry, used to evaluate every row in vectorized form.
    t_left = np.asarray(t.left, dtype=np.int64)
    t_right = np.asarray(t.right, dtype=np.int64)
    t_height = np.asarray(t.heights, dtype=np.int64)
    internal = np.flatnonzero(t_left >= 0)
    left = t_left[internal]
    right = t_right[internal]
    t_parent = np.full(len(t.label), -1, dtype=np.int64)
    t_parent[left] = internal
    t_parent[right] = internal
    t_leaf_at = {lab: v for v, lab in enumerate(t.label) if lab is not None}

    # internal nodes grouped by height: within one group the subtree-max
    # updates are independent, and all children live in lower groups
    levels = []
    for h in range(1, t.height + 1):
        mask = t_height[internal] == h
        if mask.any():
            levels.append((internal[mask], left[mask], right[mask]))

    # postorder: child rows exist before parent rows
    for u, (a, b, lab) in enumerate(zip(s.left, s.right, s.label)):
        row = matrix[u]
        if a < 0:
            v = t_leaf_at.get(lab)
            if v is not None:
                row[v] = 1
                p = t_parent[v]
                while p >= 0:  # a single common leaf contributes 1 everywhere above
                    row[p] = 1
                    p = t_parent[p]
            continue
        row_a = matrix[a]
        row_b = matrix[b]
        np.maximum(row_a, row_b, out=row)  # terms (S_L, T) and (S_R, T)
        if internal.size:
            # terms LL+RR and LR+RL at every internal node of T
            paired = np.maximum(
                row_a[left] + row_b[right], row_a[right] + row_b[left]
            )
            np.maximum(row[internal], paired, out=paired)
            row[internal] = paired
            # terms (S, T_L) and (S, T_R): max over the subtree below each node
            for ids, lf, rg in levels:
                scratch = paired[: len(ids)]
                np.maximum(row[ids], np.maximum(row[lf], row[rg]), out=scratch)
                row[ids] = scratch
    return matrix


def _backtrack(s: Tree, t: Tree, matrix: np.ndarray) -> list[str]:
    """One maximizing label set, following the fixed tie-break order."""
    labels: list[str] = []
    stack = [(s.root, t.root)]
    while stack:
        u, v = stack.pop()
        val = matrix[u, v]
        if val == 0:
            continue
        a, b = s.left[u], s.right[u]
        if a < 0:
            labels.append(s.label[u])
            continue
        c, d = t.left[v], t.right[v]
        if c < 0:
            labels.append(t.label[v])
            continue
        if matrix[a, c] + matrix[b, d] == val:
            stack.append((a, c))
            stack.append((b, d))
        elif matrix[a, d] + matrix[b, c] == val:
            stack.append((a, d))
            stack.append((b, c))
        elif matrix[u, c] == val:
            stack.append((u, c))
        elif matrix[u, d] == val:
            stack.append((u, d))
        elif matrix[a, v] == val:
            stack.append((a, v))
        else:
            assert matrix[b, v] == val, "no recursion term attains the table value"
            stack.append((b, v))
    return labels


def mast_dp(s: Tree, t: Tree) -> MastResult:
    """MAST size and one witness via the recursion above.

    The witness is validated before returning: both restrictions must be
    isomorphic to the reported agreement tree.
    """
    matrix = mast_size_matrix(s, t)
    size = int(matrix[s.root, t.root])
    labels = _backtrack(s, t, matrix)
    if len(labels) != size:
        raise RuntimeError(
            f"backtracking produced {len(labels)} labels for table value {size}"
        )
    if size == 0:
        return MastResult(0, frozenset(), None)
    witness = frozenset(labels)
    in_s = s.restrict(witness)
    in_t = t.restrict(witness)
    if not in_s.is_isomorphic(in_t):
        raise RuntimeError("witness restrictions disagree; table is inconsistent")
    return MastResult(size, witness, in_s)


def mast_bruteforce(s: Tree, t: Tree) -> int:
    """Independent MAST-size oracle: enumerate common-label subsets in
    decreasing cardinality and return the first size admitting isomorphic
    restrictions.  Refuses more than ``BRUTEFORCE_LIMIT`` common labels.
    """
    common = sorted(s.leaf_set() & t.leaf_set())
    if len(common) > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"brute force supports at most {BRUTEFORCE_LIMIT} common labels, "
            f"got {len(common)}"
        )
    for size in range(len(common), 0, -1):
        for subset in itertools.combinations(common, size):
            if s.restrict(subset).is_isomorphic(t.restrict(subset)):
                return size
    return 0
