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

* when a and b are both leaves of S (a cherry), cell (u, w) is the number
  of its two labels whose T leaf lies in w's subtree first(w)..w, so the
  row is a count over the root paths of those leaves;
* when only b is a leaf, D lies on the root path of b's leaf in T, and
  row u is row a raised along that path by a running maximum;
* otherwise the subtree maxima over D come from a sparse table over D's
  compacted postorder ids (Bender & Farach-Colton, LATIN 2000), in which
  the part of D in a subtree first(w)..w is one id range.

One schedule, `_fill_order`, places every row and fills rows in batches
whose child rows are all done: inside each block, a maximal pendant
subtree of S, the nodes of one height; above the blocks, one node per
batch in postorder.  A block's leaves bound what its mode holds.  In the
full table that is a batch's root-path and D cells, at most
(its leaves) x (height(T) + 1), so a block has at most
max(1, BATCH_CELLS // (height(T) + 1)) leaves; for the root row it is the
rows held, so max(1, BATCH_CELLS // |T|).  A batch's cherries share one
pass: their T leaves, sorted, give the (leaf, ancestor) pairs of all their
root paths in O(1) numpy calls, which are added into the cherry rows.
Each other row keeps its few O(|T|) numpy passes (max(row a, row b), and
D from where both are positive), while a batch makes one pass for the
pair terms of all its D cells, one sparse table over them and one
write-back: O(log |D|) numpy calls per batch rather than per row, whatever
the shape of T.  A caterpillar S gets one-row batches.  The table has no
rows for S's leaves, which no fill step reads; the backtrack derives them.

Cells are int16: a MAST size never exceeds the smaller leaf count, so the
table is exact for trees below 2**15 leaves and takes 2 * (|S| - 1) * |T|
bytes, in one plain numpy array.
`mast_dp` keeps the whole table, since its backtrack reads any cell.  A
caller that needs only sizes asks for the root row (``root_only``), which
the same fill computes holding only the rows still to be read: the
schedule counts them exactly, at most
max(1, BATCH_CELLS // |T|) + height(S) + 2, so memory is
O(BATCH_CELLS + |T| * height(S)).  Both modes refuse, before allocating,
inputs whose rows would not fit in available memory or whose sizes int16
cannot hold.

Witnesses are not unique; ties are broken in the fixed order the terms are
listed above, so repeated runs return identical witnesses.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .tree import Tree

BRUTEFORCE_LIMIT = 16

# Cells a block of S may span in each mode (see the module docstring): a
# root-row fill then holds about 1 MB of rows beyond height(S) + 2.
BATCH_CELLS = 1 << 19


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


def _available_memory_bytes() -> int:
    """MemAvailable from /proc/meminfo, else physical memory: a table's limit."""
    try:
        with open("/proc/meminfo") as info:
            fields = dict(line.split(":", 1) for line in info)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError, IndexError):
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _internal_rank(s: Tree) -> list[int]:
    """Each internal node's rank among S's internal nodes, in postorder."""
    return [r - 1 for r in itertools.accumulate(a >= 0 for a in s.left)]


def _first_leaves(t: Tree) -> list[int]:
    """The leftmost leaf under each node: its subtree is ids first..w."""
    first: list[int] = []
    for w, a in enumerate(t.left):
        first.append(w if a < 0 else first[a])
    return first


def _t_leaves(s: Tree, t: Tree) -> list[int]:
    """The T leaf id of each S node's label, or |T| where there is none (an
    internal node, or a label not in T): an id that lies below no T node."""
    at = {lab: v for v, lab in enumerate(t.label) if lab is not None}
    return [at.get(lab, len(t.label)) for lab in s.label]


def _fill_order(s: Tree, block_leaves: int, root_only: bool):
    """Where and when the fill makes each row of S: ``(batches, slot, rows)``.

    ``batches`` lists S's internal nodes as batches whose child rows are all
    filled before the batch starts.  A block is a maximal pendant subtree of
    S with at most ``block_leaves`` leaves.  A block gives one batch per
    height, lowest first, scheduled just before its root's parent; each node
    above the blocks is a batch of its own, in postorder.

    Row u lives in row ``slot[u]`` of a store of ``rows`` rows; a leaf has
    none.  The full table is its own store, row ``slot[u]`` the postorder
    rank of u among the |S| - 1 internal nodes.  For the root row alone the
    store holds the internal rows whose parent's batch is not done: each
    takes any free store row, in no order the fill relies on, and its child
    rows are freed when its batch is done.  ``rows`` is then the most held
    at once.
    """
    span = 2 * block_leaves - 2  # u - first(u) at a subtree of that many leaves
    first = _first_leaves(s)
    height: list[int] = []
    batches: list[list[int]] = []

    def block(c):  # the block rooted at c, one batch per height
        levels = [[] for _ in range(height[c])]
        for u in range(first[c], c + 1):
            if height[u]:
                levels[height[u] - 1].append(u)
        batches.extend(levels)

    for u, (a, b) in enumerate(zip(s.left, s.right)):
        height.append(0 if a < 0 else 1 + max(height[a], height[b]))
        if u - first[u] > span:  # u is above the blocks
            for c in (a, b):
                if c - first[c] <= span:
                    block(c)
            batches.append([u])
    if s.root - first[s.root] <= span:  # S is one block
        block(s.root)
    if not root_only:
        return batches, _internal_rank(s), s.size - 1
    slot = [0] * len(s.label)
    free: list[int] = []
    rows = 0
    for batch in batches:
        for u in batch:
            if free:
                slot[u] = free.pop()
            else:
                slot[u], rows = rows, rows + 1
        for u in batch:  # the child rows were read for the last time
            for c in (s.left[u], s.right[u]):
                if s.left[c] >= 0:
                    free.append(slot[c])
    return batches, slot, rows


def mast_size_matrix(s: Tree, t: Tree, *, root_only: bool = False) -> np.ndarray:
    """Pairwise subtree MAST sizes, as an int16 array.

    Row i of the (|S| - 1, |T|) table is S's i-th internal node in
    postorder, the root last: entry ``[i, v]`` is the MAST size of its
    subtree versus the subtree of ``t`` at postorder id ``v``.  A leaf of S
    has no row: its cell at v is 1 iff its label's T leaf lies below v.  A
    cell, and the sum of two cells a term adds, counts at most
    min(s.size, t.size) leaves, so int16 is exact below 2**15 leaves.  The
    table takes 2 * (|S| - 1) * |T| bytes: 16.8 MB for two 2048-leaf trees.

    Each row is made from its two child rows: it is their maximum, raised
    only at the nodes of T where both child rows are positive (see the
    module docstring).  Rows are filled in batches of rows whose children
    are done, from blocks of S sized per mode by what each holds (see
    BATCH_CELLS), and a row costs a few passes over T, while the raising of
    all rows of a batch shares one sparse table.  A cherry's row counts, at
    w, its two labels below w in T, for all cherries of a batch from one
    set of root paths.

    With ``root_only`` the result is row ``s.root`` alone, shape (1, |T|).
    The same fill then holds only the rows whose parent's batch is not
    done, as many as `_fill_order` counts, at most
    max(1, BATCH_CELLS // |T|) + ``s.height`` + 2: 100 rows, 0.82 MB, for
    the golden 2048-leaf pair, and 2 for a caterpillar S.

    Raises ValueError, before allocating anything, if both trees have 2**15
    leaves or more, or if the rows held need more memory than this machine
    has available.
    """
    n = len(t.label)
    if min(s.size, t.size) >= 1 << 15:
        raise ValueError(
            f"a MAST table for {s.size} and {t.size} leaves needs fewer than "
            f"{1 << 15} leaves in the smaller tree"
        )
    block_leaves = max(1, BATCH_CELLS // (n if root_only else t.height + 1))
    batches, slot, rows = _fill_order(s, block_leaves, root_only)
    need = rows * n * 2
    budget = _available_memory_bytes()
    if need > budget:
        raise ValueError(
            f"a MAST table for {s.size} and {t.size} leaves needs "
            f"{need / 1e9:.3g} GB; the limit is {budget / 1e9:.3g} GB"
        )
    import numpy as np

    # T-side geometry, shared by every row
    t_left = np.asarray(t.left, dtype=np.int64)
    t_right = np.asarray(t.right, dtype=np.int64)
    first = np.asarray(_first_leaves(t), dtype=np.int64)
    at = _t_leaves(s, t)

    # the root path of T leaf v, v + (first[v:] <= v).nonzero()[0], is the
    # nodes w >= v with first(w) <= v: none at v = |T|, which is no leaf
    if root_only and s.left[s.root] < 0:  # one leaf: 1 on its T leaf's root path
        row = _zeroed_rows(1, n)
        v = at[s.root]
        row[0, v + (first[v:] <= v).nonzero()[0]] = 1
        return row
    # Row u of S lives in row slot[u] of the store (see _fill_order)
    store = _zeroed_rows(rows, n)
    for batch in batches:
        cherry_rows, cherry_at = [], []  # the batch's cherries
        row_u, row_a, row_b, ds = [], [], [], []  # the batch's general rows
        for u in batch:
            a, b = s.left[u], s.right[u]
            if s.left[a] < 0:  # a leaf child, if there is one, is b
                a, b = b, a
            if s.left[a] < 0:  # a cherry: counted with the batch's others
                cherry_rows.append(slot[u])
                cherry_at += at[a], at[b]
                continue
            if s.left[b] < 0:
                # row b is 1 on the root path of b's T leaf v and 0 elsewhere,
                # so row u is row a raised on that path: v gets 1 (row a is at
                # most 1 at a leaf), and a path node w above v at least 1 +
                # row a at the off-path child of each path node up to w.
                row = store[slot[u]]
                row[:] = store[slot[a]]
                v = at[b]
                path = v + (first[v:] <= v).nonzero()[0]
                above = path[1:]
                off = t_left[above] + t_right[above] - path[:-1]
                row[path[:1]] = 1
                row[above] = np.maximum(row[above], np.maximum.accumulate(row[off] + 1))
                continue
            # A pair term LL+RR or LR+RL at w exceeds max(row a, row b) only
            # if both rows are positive at w: those nodes are D.  Off D row u
            # is max(row a, row b), the terms (S_L, T) and (S_R, T).
            a, b = slot[a], slot[b]
            ds.append(np.logical_and(store[a], store[b]).nonzero()[0])
            np.maximum(store[a], store[b], out=store[slot[u]])
            row_u.append(slot[u])
            row_a.append(a)
            row_b.append(b)
        if cherry_rows:
            if root_only:  # the root row's store hands out rows again
                store[cherry_rows] = 0
            _fill_cherries(store, cherry_rows, cherry_at, first)
        if ds:
            _fill_d(store, row_u, row_a, row_b, ds, t_left, t_right, first)
    if root_only:
        return store[[slot[s.root]]]
    return store


def _fill_cherries(store, rows, at, first):
    """The rows of one batch's cherries, from the root paths of their leaves.

    A cherry's row counts, at each w, its labels whose T leaf lies in w's
    subtree first(w)..w.  ``rows`` holds the store row of each cherry, and
    ``at`` the T leaves of the labels of cherry i at 2i and 2i + 1 (|T| for
    a label not in T).  The cherry rows start zeroed.

    The T leaves, sorted, make every subtree's leaves one range of them, so
    two searches over all ids give each w the batch leaves below it.  Those
    (leaf, ancestor) pairs are the batch's root paths, in O(1) numpy calls
    for any shape of T.  A label not in T sorts last and lies below no w.
    """
    import numpy as np
    at = np.asarray(at)
    order = np.argsort(at)
    at = at[order]
    n = store.shape[1]
    ids = np.arange(n)
    lo = np.searchsorted(at, first)
    count = np.searchsorted(at, ids, side="right") - lo
    w = np.repeat(ids, count)
    # the sorted positions lo(w), lo(w) + 1, ... of the leaves below each w
    leaf = np.arange(len(w)) - np.repeat(np.cumsum(count) - count - lo, count)
    leaf = order[leaf]
    flat = store.reshape(-1)
    # both labels of a cherry may lie below w, so the cell counts them: the
    # first labels add 1, then the second, and no cell repeats within either
    cells = np.asarray(rows)[leaf >> 1] * n + w
    second = (leaf & 1).astype(bool)
    flat[cells[~second]] += 1
    flat[cells[second]] += 1


def _fill_d(store, row_u, row_a, row_b, ds, t_left, t_right, first):
    """The terms at D of one batch's general rows, in one pass.

    ``row_u``, ``row_a`` and ``row_b`` are the rows of ``store`` that hold
    each row u and its two child rows, in any order, and ``ds`` the sorted D
    of each row.  A cell of row u in D becomes the max of its pair terms and
    max(row a, row b) over the part of D in its subtree first(w)..w: the
    terms (S, T_L) and (S, T_R).  D is closed upward, so that part is a
    range of the batch's D cells that ends at w's.  The cells are keyed by
    i * |T| + id, with i the row's place in the batch, which sorts them; a
    range is found by searching for the key of first(w) with the same i, so
    none starts in another row.  Store rows serve only to read and write.
    """
    import numpy as np
    d = np.concatenate(ds)
    k = len(d)
    if not k:
        return
    n = store.shape[1]
    flat = store.reshape(-1)
    counts = [len(x) for x in ds]
    key = np.repeat(np.arange(len(ds)) * n, counts) + d
    at_u = np.repeat(row_u, counts) * n + d
    at_a = np.repeat(row_a, counts) * n
    at_b = np.repeat(row_b, counts) * n
    c, e = t_left[d], t_right[d]  # every node in D is internal
    own = np.maximum(flat[at_a + c] + flat[at_b + e], flat[at_a + e] + flat[at_b + c])
    np.maximum(own, flat[at_u], out=own)
    # sparse table: level i, offset x holds the max of the 2**i values from
    # x on, and is read at flat index i * k + x
    windows = np.empty((k.bit_length(), k), dtype=own.dtype)
    windows[0] = own
    for i in range(1, k.bit_length()):
        prev, half = windows[i - 1], 1 << (i - 1)
        np.maximum(prev[: k - half], prev[half:], out=windows[i, : k - half])
    lo = np.searchsorted(key, key - d + first[d])
    width = np.arange(1, k + 1) - lo
    j = np.frexp(width)[1].astype(np.int64) - 1
    lo += j * k
    flat[at_u] = np.maximum(windows.take(lo), windows.take(lo + width - (1 << j)))


def _zeroed_rows(rows: int, n: int) -> np.ndarray:
    """A zeroed int16 (rows, n) array, the one place a table is allocated.
    numpy advises huge pages for it and raises MemoryError when refused.
    Against a private mapping with its own advice (2-core Linux 6.18 host,
    numpy 2.4.6) the golden fill was no slower, and a process filling tables
    in turn peaked 0.7 MB higher, flat after 10 rounds."""
    import numpy as np
    return np.zeros((rows, n), dtype=np.int16)


def _cells(s: Tree, t: Tree, matrix: np.ndarray):
    """``cell(u, v)`` at any node pair, from the full table ``matrix``.  A
    leaf u of S has no row: with x its label's T leaf (|T| if none), its
    cell is 1 iff first(v) <= x <= v."""
    rank, first, at = _internal_rank(s), _first_leaves(t), _t_leaves(s, t)
    return lambda u, v: (matrix.item(rank[u], v) if s.left[u] >= 0
                         else int(first[v] <= at[u] <= v))


def _backtrack(s: Tree, t: Tree, cell) -> list[str]:
    """One maximizing label set, following the fixed tie-break order."""
    labels: list[str] = []
    stack = [(s.root, t.root)]
    while stack:
        u, v = stack.pop()
        val = cell(u, v)
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
        if cell(a, c) + cell(b, d) == val:
            stack += (a, c), (b, d)
        elif cell(a, d) + cell(b, c) == val:
            stack += (a, d), (b, c)
        elif cell(u, c) == val:
            stack.append((u, c))
        elif cell(u, d) == val:
            stack.append((u, d))
        elif cell(a, v) == val:
            stack.append((a, v))
        elif cell(b, v) == val:
            stack.append((b, v))
        else:
            raise RuntimeError("no recursion term attains the table value")
    return labels


def mast_dp(s: Tree, t: Tree) -> MastResult:
    """MAST size and one witness via the recursion above.

    The witness is validated before returning: both restrictions must be
    isomorphic to the reported agreement tree.
    """
    cell = _cells(s, t, mast_size_matrix(s, t))
    size = cell(s.root, t.root)  # a one-leaf S has no row: its cell is derived
    labels = _backtrack(s, t, cell)
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
