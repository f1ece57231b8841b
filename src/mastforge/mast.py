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

A row of the table (a node u of S with children a and b) is filled over all
of T at once, and changes only where it can, in the spirit of Farach &
Thorup's sparse DP (SIAM J. Comput. 1997).  Row u is max(row a, row b)
except on D, the nodes of T where both child rows are positive, since a
pair term can exceed that maximum only there.  D is closed upward:

* when b is a leaf of S, D lies on the root path of b's leaf in T, and
  row u is row a raised along that path by a running maximum;
* otherwise the subtree maxima over D come from one sparse table over D's
  compacted postorder ids (Bender & Farach-Colton, LATIN 2000), in which
  the part of D in a subtree first(w)..w is one id range.

A row thus costs a few O(|T|) numpy passes plus O(|D| log |D|) element work
in O(log |D|) numpy calls, whatever the shape of T.

Cells are int16: a MAST size never exceeds the smaller leaf count, so the
table is exact for trees below 2**15 leaves and takes 2 * |S| * |T| bytes.
`mast_dp` keeps the whole table, since its backtrack reads any cell.  A
caller that needs only sizes asks for the root row (``root_only``), which
the same fill computes while holding at most height(S) + 2 rows, so memory
is O(|T| * height(S)).  Both modes refuse, before allocating, inputs whose
rows would not fit in physical memory or whose sizes int16 cannot hold.

Witnesses are not unique; ties are broken in the fixed order the terms are
listed above, so repeated runs return identical witnesses.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

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


def _physical_memory_bytes() -> int:
    """This machine's physical memory: no table may need more."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def mast_size_matrix(s: Tree, t: Tree, *, root_only: bool = False) -> np.ndarray:
    """Pairwise subtree MAST sizes, as an int16 array.

    Entry ``[u, v]`` (node ids of ``s`` and ``t``; ids are postorder, the
    roots are ``s.root`` and ``t.root``) is the MAST size of the subtree of
    ``s`` at ``u`` versus the subtree of ``t`` at ``v``.  A cell, and the sum
    of the two cells a term adds, counts at most min(s.size, t.size) leaves,
    so int16 is exact below 2**15 leaves.  The full table takes
    2 * |S| * |T| bytes: 34 MB for two 2048-leaf trees.

    Rows are filled in postorder, each from its two child rows: row u
    starts from one child's row and is raised only at the nodes of T
    where both child rows are positive (see the module docstring), so a
    row costs a few passes over T plus a sparse table over those nodes.

    With ``root_only`` the result is row ``s.root`` alone, shape (1, |T|).
    The same fill then keeps only the live rows, those whose parent row is
    not filled yet, at most ``s.height + 2`` of them: kilobytes for
    balanced trees.

    Raises ValueError, before allocating anything, if both trees have 2**15
    leaves or more, or if the rows held need more than this machine's
    physical memory.
    """
    n = len(t.label)
    rows = min(len(s.label), s.height + 2) if root_only else len(s.label)
    need = rows * n * 2
    budget = _physical_memory_bytes()
    if min(s.size, t.size) >= 1 << 15 or need > budget:
        raise ValueError(
            f"a MAST table for {s.size} and {t.size} leaves needs "
            f"{need / 1e9:.3g} GB; the limits are {budget / 1e9:.3g} GB and "
            f"fewer than {1 << 15} leaves in the smaller tree"
        )
    import numpy as np
    cell = np.int16

    # T-side geometry, shared by every row
    t_left = np.asarray(t.left, dtype=np.int64)
    t_right = np.asarray(t.right, dtype=np.int64)
    first = []  # the leftmost leaf under each node: its subtree is first..w
    for w, a in enumerate(t.left):
        first.append(w if a < 0 else first[a])
    first = np.asarray(first, dtype=np.int64)
    # sparse table over a row's compacted D ids; level i, offset x holds the
    # max of the 2**i values from x on, and is read at flat index i * n + x
    windows = np.zeros((n.bit_length(), n), dtype=cell)
    t_leaf_at = {lab: v for v, lab in enumerate(t.label) if lab is not None}

    def leaf_row(u, row):
        v = t_leaf_at.get(s.label[u], n)  # n: no common leaf, an empty range
        row[v:][first[v:] <= v] = 1  # 1 at v and every node above it
        return row

    if root_only:
        live = {}  # filled rows whose parent row is not filled yet

        def take(x):  # the parent's one read of row x, which then goes
            return live.pop(x) if s.left[x] >= 0 else leaf_row(x, np.zeros(n, cell))

        def row_from(u, x):  # row u starts as row x, reused in place
            live[u] = take(x)
            return live[u]
    else:
        matrix = np.zeros((len(s.label), n), dtype=cell)
        take = matrix.__getitem__

        def row_from(u, x):
            matrix[u] = matrix[x]
            return matrix[u]

    # postorder: child rows exist before parent rows
    for u, (a, b) in enumerate(zip(s.left, s.right)):
        if a < 0:  # kept in the full table; made by `take` otherwise
            if not root_only:
                leaf_row(u, matrix[u])
            continue
        if s.left[a] < 0:  # a leaf child, if there is one, is b
            a, b = b, a
        if s.left[b] < 0:
            # row b is 1 on the root path of b's T leaf v and 0 elsewhere, so
            # row u is row a raised on that path: a path node w gets at least
            # 1, and 1 + row a at the off-path child of each path node up to w
            row = row_from(u, a)
            v = t_leaf_at.get(s.label[b])
            if v is not None:
                path = v + (first[v:] <= v).nonzero()[0]
                off = t_left[path[1:]] + t_right[path[1:]] - path[:-1]
                lift = np.empty(len(path), dtype=cell)
                lift[0] = 1
                np.add(row[off], 1, out=lift[1:])
                row[path] = np.maximum(row[path], np.maximum.accumulate(lift))
            continue
        # A pair term LL+RR or LR+RL at w exceeds max(row a, row b) only if
        # both rows are positive at w.  Those nodes, D, are closed upward, so
        # the part of D in the subtree first(w)..w of a node w in D is one
        # range of D's compacted ids; off D, row u is max(row a, row b).
        row_b = take(b)
        row = row_from(u, a)
        d = np.minimum(row, row_b).nonzero()[0]
        c, e = t_left[d], t_right[d]  # every node in D is internal
        own = np.maximum(row[c] + row_b[e], row[e] + row_b[c])
        np.maximum(row, row_b, out=row)  # terms (S_L, T) and (S_R, T)
        # terms (S, T_L) and (S, T_R): the max of own over each range
        k = len(d)
        np.maximum(own, row[d], out=windows[0, :k])
        for i in range(1, k.bit_length()):
            prev, half = windows[i - 1], 1 << (i - 1)
            np.maximum(prev[: k - half], prev[half:k], out=windows[i, : k - half])
        lo = np.searchsorted(d, first[d])
        width = np.arange(1, k + 1) - lo
        j = np.frexp(width)[1].astype(np.int64) - 1
        lo += j * n
        row[d] = np.maximum(windows.take(lo), windows.take(lo + width - (1 << j)))
    return take(s.root)[None] if root_only else matrix


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
