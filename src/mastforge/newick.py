"""Newick reading and writing for strictly binary leaf-labelled trees.

Grammar (ASCII whitespace between tokens is skipped on input, never emitted
on output):

    tree    := subtree ';'
    subtree := LABEL | '(' subtree ',' subtree ')'
    LABEL   := one or more characters excluding '(' ')' ',' ';' and whitespace

Multifurcations, branch lengths, comments and quoted labels are rejected
rather than guessed at; every parse error carries the 0-based position of
the offending character.
"""

from __future__ import annotations

from .tree import RESERVED_LABEL_CHARS, Tree


class NewickError(ValueError):
    """Parse failure; ``position`` is a 0-based index into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _read_label(text: str, i: int) -> tuple[str, int]:
    start = i
    while i < len(text):
        ch = text[i]
        if ch in RESERVED_LABEL_CHARS or ch.isspace():
            break
        i += 1
    if i == start:
        raise NewickError(f"expected a leaf label or '(', found {text[i]!r}", i)
    return text[start:i], i


def parse(text: str) -> Tree:
    """Parse a single Newick tree.  Raises :class:`NewickError` on malformed
    input; duplicate leaf labels are rejected naming the label.
    """
    n = len(text)
    i = _skip_ws(text, 0)
    if i >= n:
        raise NewickError("empty input", 0)

    # Subtrees complete in postorder (a leaf when read, a node at its ')'),
    # so each takes the next node id as it completes.  Each open '(' pushes
    # a frame holding the ids of the children finished so far.
    left: list[int] = []
    right: list[int] = []
    labels: list[str | None] = []
    heights: list[int] = []
    frames: list[list[int]] = []
    seen: dict[str, int] = {}
    node = -1  # id of the most recently completed subtree

    while True:
        i = _skip_ws(text, i)
        if i >= n:
            raise NewickError(
                f"unexpected end of input with {len(frames)} unclosed '('"
                if frames
                else "unexpected end of input; missing ';'",
                n,
            )
        ch = text[i]
        if ch == "(":
            frames.append([])
            i += 1
            continue
        label, i = _read_label(text, i)
        if label in seen:
            raise NewickError(f"duplicate leaf label {label!r}", i - len(label))
        seen[label] = i - len(label)
        node = len(labels)
        left.append(-1)
        right.append(-1)
        labels.append(label)
        heights.append(0)

        # fold completed subtrees into enclosing frames
        while True:
            i = _skip_ws(text, i)
            if not frames:
                if i >= n:
                    raise NewickError("missing terminal ';'", n)
                if text[i] != ";":
                    msg = (
                        "unbalanced ')'"
                        if text[i] == ")"
                        else f"expected ';', found {text[i]!r}"
                    )
                    raise NewickError(msg, i)
                i += 1
                i = _skip_ws(text, i)
                if i < n:
                    raise NewickError("trailing characters after ';'", i)
                # _read_label admits only legal labels and `seen` refuses
                # repeats, so the tuples need no second validation
                return Tree(tuple(left), tuple(right), tuple(labels), heights[-1])
            if i >= n:
                raise NewickError(
                    f"unexpected end of input with {len(frames)} unclosed '('", n
                )
            if text[i] == ",":
                if len(frames[-1]) >= 1:
                    raise NewickError(
                        "multifurcation: a node may have only two children", i
                    )
                frames[-1].append(node)
                i += 1
                break  # back to parsing the next subtree
            if text[i] == ")":
                frame = frames.pop()
                if len(frame) != 1:
                    raise NewickError(
                        "expected ',' before ')': every internal node needs "
                        "exactly two children",
                        i,
                    )
                a = frame[0]
                left.append(a)
                right.append(node)
                labels.append(None)
                ha, hb = heights[a], heights[node]
                heights.append(1 + (ha if ha > hb else hb))
                node = len(labels) - 1
                i += 1
                continue  # the joined pair may itself close a frame
            raise NewickError(f"expected ',' or ')', found {text[i]!r}", i)


def serialize(tree: Tree) -> str:
    """Emit the tree in the grammar above: no whitespace, children in stored
    order, terminated by ';'.
    """
    vals: list[str | None] = []
    for a, b, lab in zip(tree.left, tree.right, tree.label):  # postorder
        vals.append(lab if a < 0 else f"({vals[a]},{vals[b]})")
        if a >= 0:  # only the parent reads a child's string: free it
            vals[a] = vals[b] = None
    return vals[tree.root] + ";"


def read_file(path: str) -> Tree:
    """Parse a one-tree Newick file (UTF-8)."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def write_file(path: str, tree: Tree) -> None:
    """Write a tree as a one-line Newick file (UTF-8); an OSError names it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize(tree) + "\n")
    except OSError as exc:  # a failed write or close names no file
        raise OSError(exc.errno, exc.strerror, path) from exc
