"""Newick text and nested-tuple trees for generating inputs and checking answers.

A tree here is its nested form: a leaf is a label string, an internal node a
pair of nested forms.  Nothing in this module imports mastforge, so the
answer checks share no code with the program they check.  Every traversal is
iterative because caterpillars are as deep as they are wide.
"""

from __future__ import annotations

import random


def parse(text: str):
    """Nested form of one strictly binary Newick tree (no lengths, no quotes)."""
    frames: list[list] = [[]]
    label_start = None
    for i, ch in enumerate(text):
        if ch in "(),;" or ch.isspace():
            if label_start is not None:
                frames[-1].append(text[label_start:i])
                label_start = None
            if ch == "(":
                frames.append([])
            elif ch == ")":
                pair = frames.pop()
                if len(pair) != 2:
                    raise ValueError(f"node with {len(pair)} children at {i}")
                frames[-1].append(tuple(pair))
            elif ch == ";":
                break
        elif label_start is None:
            label_start = i
    if len(frames) != 1 or len(frames[0]) != 1:
        raise ValueError("unbalanced Newick text")
    return frames[0][0]


def to_newick(tree, rng: random.Random | None = None) -> str:
    """Newick text of ``tree``; with ``rng``, each internal node's two
    children are swapped with probability 1/2 (the tree stays the same
    unordered tree, only the bytes change)."""
    out: list[str] = []
    stack: list[object] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # a label, or a ',' or ')' pushed below
            out.append(item)
            continue
        a, b = item
        if rng is not None and rng.random() < 0.5:
            a, b = b, a
        out.append("(")
        stack.extend((")", b, ",", a))
    return "".join(out) + ";"


def relabel(tree, mapping: dict[str, str]):
    """The same shape with every leaf label replaced through ``mapping``."""
    return _fold(tree, lambda lab: mapping[lab], lambda a, b: (a, b))


def leaves(tree) -> list[str]:
    """Leaf labels left to right."""
    return [item for item in _postorder(tree) if isinstance(item, str)]


def caterpillar(labels: list[str]):
    """(l1, l2) is the deepest cherry; each later label joins one step higher."""
    tree: object = (labels[0], labels[1])
    for lab in labels[2:]:
        tree = (tree, lab)
    return tree


def restricted_form(tree, keep) -> str | None:
    """Canonical text of the restriction of ``tree`` to the labels in
    ``keep`` (children sorted, degree-two vertices suppressed); two trees
    restrict to isomorphic trees exactly when these strings are equal.
    ``None`` when no label is kept."""

    def leaf(lab):
        return lab if lab in keep else None

    def join(a, b):
        if a is None or b is None:
            return a if b is None else b
        return f"({a},{b})" if a < b else f"({b},{a})"

    return _fold(tree, leaf, join)


def _postorder(tree):
    stack = [(tree, False)]
    while stack:
        item, expanded = stack.pop()
        if isinstance(item, str) or expanded:
            yield item
        else:
            stack.append((item, True))
            stack.append((item[1], False))
            stack.append((item[0], False))


def _fold(tree, leaf, join):
    values: list[object] = []
    for item in _postorder(tree):
        if isinstance(item, str):
            values.append(leaf(item))
        else:
            b = values.pop()
            a = values.pop()
            values.append(join(a, b))
    return values[0]


def same_restrictions(s, t, labels, witness=None) -> bool:
    """True iff ``s`` and ``t`` restrict to isomorphic trees on ``labels``
    (and, given a ``witness`` tree, it is that tree on exactly those labels)."""
    keep = frozenset(labels)
    form = restricted_form(s, keep)
    if form is None or form != restricted_form(t, keep):
        return False
    return witness is None or (
        set(leaves(witness)) == keep and restricted_form(witness, keep) == form
    )
