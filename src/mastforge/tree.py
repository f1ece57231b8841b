"""Rooted binary leaf-labelled trees and their structural operations.

The central object is :class:`Tree`: an immutable rooted binary tree whose
leaves carry pairwise-distinct text labels.  Internal vertices always have
exactly two children; a single labelled vertex (root = leaf) is the only
permitted degenerate shape.  Child order is stored (it matters for
serialization) but carries no meaning: all comparisons go through the
canonical form, which treats children as unordered.

A tree is stored as parallel tuples indexed by postorder node id (children
``left``/``right``, leaf ``label``); every operation below is a fold over
those ids or a walk along the child links.

Supported operations are the ones needed for agreement-subtree work:
restriction to a leaf subset (suppressing degree-two vertices), isomorphism
via canonical forms, caterpillar recognition, and balanced-shape utilities
(height, pendant subtrees at a given depth).
"""

from __future__ import annotations

from typing import Iterable, Sequence

RESERVED_LABEL_CHARS = frozenset("(),;")


class TreeError(ValueError):
    """Raised for structurally invalid trees or malformed leaf labels."""


def validate_label(token: str) -> str:
    """Check that ``token`` is a legal leaf label and return it.

    Labels are non-empty and may not contain ``(`` ``)`` ``,`` ``;`` or
    whitespace (the serialization format reserves those characters).
    """
    if not isinstance(token, str):
        raise TreeError(f"leaf label must be text, got {type(token).__name__}")
    if not token:
        raise TreeError("leaf label must be non-empty")
    for ch in token:
        if ch in RESERVED_LABEL_CHARS or ch.isspace():
            raise TreeError(f"leaf label {token!r} contains reserved character {ch!r}")
    return token


# Nested form used by builders: a leaf is a label string, an internal node a
# pair of nested forms.  All traversals below are iterative so that deep
# (caterpillar-like) trees never hit the interpreter recursion limit.


class Tree:
    """Immutable rooted binary tree stored as parallel tuples.

    Node ids are postorder positions ``0 .. 2*size - 2``, so every child id
    is smaller than its parent's, the root is the last id, and the subtree
    at ``v`` is the contiguous id range from its leftmost leaf to ``v``.
    For each id ``v``:

    * ``left[v]`` and ``right[v]`` are the children, ``-1`` at a leaf;
    * ``label[v]`` is the leaf label, ``None`` at an internal node.

    :meth:`from_nested` validates a nested form.  The constructor trusts
    the tuples it is given; :meth:`subtree` and :meth:`restrict` call it
    directly, as their labels are the host's, already validated, and so do
    ``newick.parse``, whose reader admits only legal, distinct labels and
    binary nodes, and :func:`make_balanced`, which checks each label once.
    The :attr:`height` is derived from the tuples when first read.
    Instances are never mutated afterwards (the cached height, leaf set and
    canonical form are filled in once), so they are safe to share between
    threads and to use as cache keys (by identity).
    """

    __slots__ = (
        "left", "right", "label", "root", "size",
        "_height", "_leaf_set", "_canonical",
    )

    def __init__(
        self,
        left: tuple[int, ...],
        right: tuple[int, ...],
        label: tuple[str | None, ...],
    ):
        self.left = left
        self.right = right
        self.label = label
        self.root = len(label) - 1
        self.size = (len(label) + 1) // 2
        self._height: int | None = None
        self._leaf_set: frozenset[str] | None = None
        self._canonical: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_nested(cls, nested) -> "Tree":
        """Build a tree from the nested form (label, or pair of nested forms).

        Checks binary shape, label legality and label uniqueness in the same
        walk that assigns the postorder ids.
        """
        left: list[int] = []
        right: list[int] = []
        label: list[str | None] = []
        seen: set[str] = set()
        done: list[int] = []  # ids of completed subtrees
        stack: list[tuple[object, bool]] = [(nested, False)]
        while stack:
            item, expanded = stack.pop()
            if isinstance(item, str):
                validate_label(item)
                if item in seen:
                    raise TreeError(f"duplicate leaf label {item!r}")
                seen.add(item)
                done.append(len(label))
                left.append(-1)
                right.append(-1)
                label.append(item)
            elif expanded:
                b = done.pop()
                a = done.pop()
                done.append(len(label))
                left.append(a)
                right.append(b)
                label.append(None)
            else:
                if not (isinstance(item, tuple) and len(item) == 2):
                    raise TreeError(
                        "internal nodes must have exactly two children, "
                        f"got {item!r}"
                    )
                stack.append((item, True))
                stack.append((item[1], False))
                stack.append((item[0], False))
        return cls(tuple(left), tuple(right), tuple(label))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Edges on a longest root-to-leaf path: one fold over the ids, on
        first read."""
        if self._height is None:
            heights: list[int] = []
            for a, b in zip(self.left, self.right):  # postorder
                if a < 0:
                    heights.append(0)
                else:  # twice as fast as max() on 2048 leaves
                    x, y = heights[a], heights[b]
                    heights.append(1 + (x if x > y else y))
            self._height = heights[-1]
        return self._height

    def leaf_set(self) -> frozenset[str]:
        """The set of leaf labels."""
        if self._leaf_set is None:
            self._leaf_set = frozenset(self.leaf_labels_in_order())
        return self._leaf_set

    def leaf_labels_in_order(self) -> list[str]:
        """Leaf labels left to right in stored child order."""
        return [lab for lab in self.label if lab is not None]

    def is_balanced(self) -> bool:
        """True iff the tree has 2**height leaves (all leaves at one depth)."""
        return self.size == 1 << self.height

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tree leaves={self.size} height={self.height}>"

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def subtree(self, node_id: int) -> "Tree":
        """The pendant subtree rooted at ``node_id`` as a fresh tree: the id
        range from its leftmost leaf to ``node_id``, ids shifted down."""
        if not 0 <= node_id <= self.root:
            raise TreeError(f"node id {node_id} is not in 0..{self.root}")
        first = node_id  # the leftmost leaf opens the subtree's id range
        while self.left[first] >= 0:
            first = self.left[first]
        ids = slice(first, node_id + 1)
        left = tuple(a - first if a >= 0 else -1 for a in self.left[ids])
        right = tuple(b - first if b >= 0 else -1 for b in self.right[ids])
        return Tree(left, right, self.label[ids])

    def pendant_subtrees_at_depth(self, depth: int) -> list["Tree"]:
        """The 2**depth pendant subtrees rooted at ``depth``, left to right.

        Only defined for balanced trees (every root-to-leaf path then passes
        through exactly one node at each depth).
        """
        if not self.is_balanced():
            raise TreeError("pendant subtrees at a depth require a balanced tree")
        if not 0 <= depth <= self.height:
            raise TreeError(f"depth {depth} exceeds height {self.height}")
        frontier = [self.root]
        for _ in range(depth):
            frontier = [c for v in frontier for c in (self.left[v], self.right[v])]
        return [self.subtree(v) for v in frontier]

    def restrict(self, labels: Iterable[str]) -> "Tree":
        """The restriction to ``labels``: the minimal subtree connecting those
        leaves, rooted at their most recent common ancestor, with every
        internal degree-two vertex suppressed.
        """
        wanted = frozenset(labels)
        if not wanted:
            raise TreeError("cannot restrict to an empty label set")
        missing = wanted - self.leaf_set()
        if missing:
            raise TreeError(f"labels not in tree: {sorted(missing)}")
        # A host leaf is kept iff wanted, an internal node iff both its sides
        # hold kept nodes.  Kept nodes in host order are the restriction's
        # postorder, so each takes the next id as the fold reaches it.
        left: list[int] = []
        right: list[int] = []
        label: list[str | None] = []
        new: list[int] = []  # host id -> id of the kept node it reduces to, or -1
        for a, b, lab in zip(self.left, self.right, self.label):
            if a < 0:
                if lab not in wanted:
                    new.append(-1)
                    continue
                x = y = -1
            else:
                x, y = new[a], new[b]
                if x < 0 or y < 0:  # reduces to its one kept side, if any
                    new.append(x if y < 0 else y)
                    continue
            new.append(len(label))
            left.append(x)
            right.append(y)
            label.append(lab)
        return Tree(tuple(left), tuple(right), tuple(label))

    def canonical_form(self) -> str:
        """Deterministic string equal for two trees iff they are isomorphic
        as rooted leaf-labelled trees (children unordered, labels significant).

        Leaves emit their token; an internal node emits its two child forms
        sorted lexicographically, parenthesised and comma-separated.
        """
        if self._canonical is None:
            vals: list[str | None] = []
            for a, b, lab in zip(self.left, self.right, self.label):
                if a < 0:
                    vals.append(lab)
                else:  # only the parent reads a child's form: free it
                    x, y = vals[a], vals[b]
                    if y < x:
                        x, y = y, x
                    vals.append(f"({x},{y})")
                    vals[a] = vals[b] = None
            self._canonical = vals[self.root]
        return self._canonical

    def is_isomorphic(self, other: "Tree") -> bool:
        return self.canonical_form() == other.canonical_form()

    def caterpillar_order(self) -> list[str] | None:
        """One leaf ordering witnessing that this tree is a caterpillar,
        or ``None`` if it is not one.

        The deepest cherry comes first, normalized so its two labels are in
        ascending token order.  (For a caterpillar the ordering is unique up
        to swapping the cherry.)
        """
        left, right, label = self.left, self.right, self.label
        v = self.root
        if left[v] < 0:
            return [label[v]]
        tail: list[str] = []
        while True:
            a, b = left[v], right[v]
            a_leaf, b_leaf = left[a] < 0, left[b] < 0
            if a_leaf and b_leaf:
                cherry = sorted((label[a], label[b]))
                return cherry + tail[::-1]
            if not a_leaf and not b_leaf:
                return None
            leaf, v = (a, b) if a_leaf else (b, a)
            tail.append(label[leaf])


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def make_balanced(height: int, labels: Sequence[str]) -> Tree:
    """A balanced tree of the given ``height`` whose leaves, left to right,
    carry ``labels`` in order.  Requires ``len(labels) == 2**height``.

    The postorder tuples are built directly, with no nested form.  Illegal
    or repeated text labels are refused with the messages of
    :meth:`Tree.from_nested`, at the same first offender.
    """
    if height < 0:
        raise TreeError("height must be non-negative")
    if len(labels) != 1 << height:
        raise TreeError(
            f"balanced tree of height {height} needs {1 << height} labels, "
            f"got {len(labels)}"
        )
    # Postorder: after the i-th leaf (from 1) come the roots of the subtrees
    # it completes, one of 2**j leaves for each j >= 1 with 2**j dividing i.
    # Such a root has its right child just before it and its left child
    # 2**j ids before it, past the right subtree's 2**j - 1 nodes.
    left: list[int] = []
    right: list[int] = []
    label: list[str | None] = []
    seen: set[str] = set()
    for i, lab in enumerate(labels, 1):
        validate_label(lab)
        if lab in seen:
            raise TreeError(f"duplicate leaf label {lab!r}")
        seen.add(lab)
        left.append(-1)
        right.append(-1)
        label.append(lab)
        span = 2
        while not i % span:
            v = len(label)
            left.append(v - span)
            right.append(v - 1)
            label.append(None)
            span <<= 1
    return Tree(tuple(left), tuple(right), tuple(label))


def make_caterpillar(labels: Sequence[str]) -> Tree:
    """The caterpillar (l1, l2, ..., ln): l1 and l2 share the deepest cherry
    and each later label attaches one step higher along the spine.
    """
    if not labels:
        raise TreeError("caterpillar needs at least one label")
    if len(labels) == 1:
        return Tree.from_nested(labels[0])
    nested: object = (labels[0], labels[1])
    for lab in labels[2:]:
        nested = (nested, lab)
    return Tree.from_nested(nested)
