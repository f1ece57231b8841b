"""Rooted binary leaf-labelled trees and their structural operations.

The central object is :class:`Tree`: an immutable rooted binary tree whose
leaves carry pairwise-distinct text labels.  Internal vertices always have
exactly two children; a single labelled vertex (root = leaf) is the only
permitted degenerate shape.  Child order is stored (it matters for
serialization) but carries no meaning: all comparisons go through the
canonical form, which treats children as unordered.

Supported operations are the ones needed for agreement-subtree work:
restriction to a leaf subset (suppressing degree-two vertices), isomorphism
via canonical forms, caterpillar recognition, and balanced-shape utilities
(height, pendant subtrees at a given depth).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class NodeRecord:
    """One vertex of the node arena.

    ``label`` is present exactly when ``children`` is empty.  Node ids are
    indices into the owning tree's arena, assigned in postorder, so every
    child id is smaller than its parent's id.
    """

    id: int
    parent: int | None
    children: tuple[int, int] | tuple[()]
    label: str | None

    @property
    def is_leaf(self) -> bool:
        return not self.children


# Nested form used by builders: a leaf is a label string, an internal node a
# pair of nested forms.  All traversals below are iterative so that deep
# (caterpillar-like) trees never hit the interpreter recursion limit.


class Tree:
    """Immutable rooted binary tree over an arena of :class:`NodeRecord`.

    Instances are only built through the classmethods / module builders and
    never mutated afterwards, so they are safe to share between threads and
    to use as cache keys (by identity).
    """

    __slots__ = ("nodes", "root", "size", "height", "_leaf_set", "_canonical")

    def __init__(self, nodes: tuple[NodeRecord, ...], root: int):
        self.nodes = nodes
        self.root = root
        self._leaf_set: frozenset[str] | None = None
        self._canonical: str | None = None
        self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_nested(cls, nested) -> "Tree":
        """Build a tree from the nested form (label, or pair of nested forms)."""
        parents: list[int | None] = []
        children: list[tuple[int, int] | tuple[()]] = []
        labels: list[str | None] = []
        done: list[int] = []  # ids of completed subtrees
        stack: list[tuple[object, bool]] = [(nested, False)]
        while stack:
            item, expanded = stack.pop()
            if isinstance(item, str):
                nid = len(labels)
                parents.append(None)
                children.append(())
                labels.append(validate_label(item))
                done.append(nid)
            elif expanded:
                right = done.pop()
                left = done.pop()
                nid = len(labels)
                parents.append(None)
                children.append((left, right))
                labels.append(None)
                parents[left] = nid
                parents[right] = nid
                done.append(nid)
            else:
                if not (isinstance(item, tuple) and len(item) == 2):
                    raise TreeError(
                        "internal nodes must have exactly two children, "
                        f"got {item!r}"
                    )
                stack.append((item, True))
                stack.append((item[1], False))
                stack.append((item[0], False))
        root = done.pop()
        nodes = tuple(
            NodeRecord(i, parents[i], children[i], labels[i])
            for i in range(len(labels))
        )
        return cls(nodes, root)

    def _validate(self) -> None:
        nodes = self.nodes
        if not nodes:
            raise TreeError("tree must contain at least one node")
        if not (0 <= self.root < len(nodes)) or nodes[self.root].parent is not None:
            raise TreeError("root must be a parentless node of the arena")
        seen_labels: set[str] = set()
        n_leaves = 0
        root_count = 0
        for rec in nodes:
            if rec.parent is None:
                root_count += 1
            if rec.is_leaf:
                if rec.label is None:
                    raise TreeError(f"leaf node {rec.id} has no label")
                validate_label(rec.label)
                if rec.label in seen_labels:
                    raise TreeError(f"duplicate leaf label {rec.label!r}")
                seen_labels.add(rec.label)
                n_leaves += 1
            else:
                if rec.label is not None:
                    raise TreeError(f"internal node {rec.id} carries a label")
                if len(rec.children) != 2:
                    raise TreeError(f"internal node {rec.id} is not binary")
                for c in rec.children:
                    # postorder ids double as an acyclicity certificate
                    if not (0 <= c < rec.id):
                        raise TreeError(f"child id {c} does not precede parent {rec.id}")
                    if nodes[c].parent != rec.id:
                        raise TreeError(f"parent link of node {c} is inconsistent")
        if root_count != 1:
            raise TreeError(f"expected exactly one root, found {root_count}")
        self.size = n_leaves
        heights = [0] * len(nodes)
        for rec in nodes:
            if not rec.is_leaf:
                a, b = rec.children
                heights[rec.id] = 1 + max(heights[a], heights[b])
        self.height = heights[self.root]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def leaf_set(self) -> frozenset[str]:
        """The set of leaf labels."""
        if self._leaf_set is None:
            self._leaf_set = frozenset(
                rec.label for rec in self.nodes if rec.is_leaf
            )
        return self._leaf_set

    def leaf_labels_in_order(self) -> list[str]:
        """Leaf labels left to right in stored child order."""
        out: list[str] = []
        stack = [self.root]
        while stack:
            rec = self.nodes[stack.pop()]
            if rec.is_leaf:
                out.append(rec.label)
            else:
                stack.append(rec.children[1])
                stack.append(rec.children[0])
        return out

    def is_balanced(self) -> bool:
        """True iff the tree has 2**height leaves (all leaves at one depth)."""
        return self.size == 1 << self.height

    def to_nested(self):
        """Return the nested form (labels and pairs) of this tree."""
        vals: list[object] = [None] * len(self.nodes)
        for rec in self.nodes:  # postorder: children come first
            if rec.is_leaf:
                vals[rec.id] = rec.label
            else:
                a, b = rec.children
                vals[rec.id] = (vals[a], vals[b])
        return vals[self.root]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tree leaves={self.size} height={self.height}>"

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def subtree(self, node_id: int) -> "Tree":
        """The pendant subtree rooted at ``node_id`` as a fresh tree."""
        return Tree.from_nested(self._nested_below(node_id))

    def _nested_below(self, node_id: int):
        vals: dict[int, object] = {}
        order: list[int] = []
        stack = [node_id]
        while stack:  # collect descendants, then fold bottom-up
            nid = stack.pop()
            order.append(nid)
            rec = self.nodes[nid]
            if not rec.is_leaf:
                stack.extend(rec.children)
        for nid in reversed(order):
            rec = self.nodes[nid]
            if rec.is_leaf:
                vals[nid] = rec.label
            else:
                a, b = rec.children
                vals[nid] = (vals[a], vals[b])
        return vals[node_id]

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
            nxt: list[int] = []
            for nid in frontier:
                nxt.extend(self.nodes[nid].children)
            frontier = nxt
        return [self.subtree(nid) for nid in frontier]

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
        vals: list[object] = [None] * len(self.nodes)
        for rec in self.nodes:  # postorder fold
            if rec.is_leaf:
                if rec.label in wanted:
                    vals[rec.id] = rec.label
            else:
                a, b = rec.children
                va, vb = vals[a], vals[b]
                if va is not None and vb is not None:
                    vals[rec.id] = (va, vb)
                else:
                    vals[rec.id] = va if va is not None else vb
        return Tree.from_nested(vals[self.root])

    def canonical_form(self) -> str:
        """Deterministic string equal for two trees iff they are isomorphic
        as rooted leaf-labelled trees (children unordered, labels significant).

        Leaves emit their token; an internal node emits its two child forms
        sorted lexicographically, parenthesised and comma-separated.
        """
        if self._canonical is None:
            vals: list[str] = [""] * len(self.nodes)
            for rec in self.nodes:
                if rec.is_leaf:
                    vals[rec.id] = rec.label
                else:
                    a, b = (vals[c] for c in rec.children)
                    if b < a:
                        a, b = b, a
                    vals[rec.id] = f"({a},{b})"
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
        rec = self.nodes[self.root]
        if rec.is_leaf:
            return [rec.label]
        tail: list[str] = []
        while True:
            a, b = (self.nodes[c] for c in rec.children)
            if a.is_leaf and b.is_leaf:
                cherry = sorted((a.label, b.label))
                return cherry + tail[::-1]
            if not a.is_leaf and not b.is_leaf:
                return None
            leaf, rec = (a, b) if a.is_leaf else (b, a)
            tail.append(leaf.label)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def make_balanced(height: int, labels: Sequence[str]) -> Tree:
    """A balanced tree of the given ``height`` whose leaves, left to right,
    carry ``labels`` in order.  Requires ``len(labels) == 2**height``.
    """
    if height < 0:
        raise TreeError("height must be non-negative")
    if len(labels) != 1 << height:
        raise TreeError(
            f"balanced tree of height {height} needs {1 << height} labels, "
            f"got {len(labels)}"
        )
    level: list[object] = list(labels)
    while len(level) > 1:
        level = [(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return Tree.from_nested(level[0])


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
