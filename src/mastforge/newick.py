"""Newick reading and writing for strictly binary leaf-labelled trees.

Grammar (whitespace between tokens, any character for which
``str.isspace()`` is true, is skipped on input and never emitted on output):

    tree    := subtree ';'
    subtree := LABEL | '(' subtree ',' subtree ')'
    LABEL   := one or more characters excluding '(' ')' ',' ';' and whitespace

``parse`` reads the text as tokens, each one delimiter or one maximal run
of label characters, in a single pass.

Multifurcations, branch lengths, comments and quoted labels are rejected
rather than guessed at; every parse error carries the 0-based position of
the offending character.
"""

from __future__ import annotations

import re

from .tree import RESERVED_LABEL_CHARS, Tree

# one delimiter, or one maximal run of label characters; whatever lies
# between tokens is whitespace (`\s` is exactly what `str.isspace` accepts)
_DELIMITERS = re.escape("".join(sorted(RESERVED_LABEL_CHARS)))
_TOKEN = re.compile(rf"[{_DELIMITERS}]|[^{_DELIMITERS}\s]+")


class NewickError(ValueError):
    """Parse failure; ``position`` is a 0-based index into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse(text: str) -> Tree:
    """Parse a single Newick tree.  Raises :class:`NewickError` on malformed
    input; duplicate leaf labels are rejected naming the label.
    """
    # Subtrees complete in postorder (a leaf when read, a node at its ')'),
    # so each takes the next node id as it completes.  Each open '(' pushes
    # a frame holding the ids of the children finished so far.
    left: list[int] = []
    right: list[int] = []
    labels: list[str | None] = []
    frames: list[list[int]] = []
    seen: set[str] = set()
    node = -1  # the subtree just completed, or -1 while one is due

    for m in _TOKEN.finditer(text):
        tok, i = m.group(), m.start()
        if node < 0:  # a subtree is due: '(' or a leaf label
            if tok == "(":
                frames.append([])
                continue
            if tok in ",);":
                raise NewickError(f"expected a leaf label or '(', found {tok!r}", i)
            if tok in seen:
                raise NewickError(f"duplicate leaf label {tok!r}", i)
            seen.add(tok)
            node = len(labels)
            left.append(-1)
            right.append(-1)
            labels.append(tok)
        elif not frames:  # the whole tree is read: only ';' may follow
            if tok != ";":
                raise NewickError(
                    "unbalanced ')'" if tok == ")" else f"expected ';', found {tok[0]!r}",
                    i,
                )
            extra = _TOKEN.search(text, m.end())
            if extra:
                raise NewickError("trailing characters after ';'", extra.start())
            # the token pattern admits only legal labels and `seen` refuses
            # repeats, so the tuples need no second validation
            return Tree(tuple(left), tuple(right), tuple(labels))
        elif tok == ",":
            if frames[-1]:
                raise NewickError(
                    "multifurcation: a node may have only two children", i
                )
            frames[-1].append(node)
            node = -1
        elif tok == ")":
            frame = frames.pop()
            if not frame:
                raise NewickError(
                    "expected ',' before ')': every internal node needs "
                    "exactly two children",
                    i,
                )
            left.append(frame[0])
            right.append(node)
            labels.append(None)
            node = len(labels) - 1
        else:
            raise NewickError(f"expected ',' or ')', found {tok[0]!r}", i)

    n = len(text)
    if frames:
        raise NewickError(f"unexpected end of input with {len(frames)} unclosed '('", n)
    if labels:
        raise NewickError("missing terminal ';'", n)
    raise NewickError("empty input", 0)


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
    """Parse a one-tree Newick file (UTF-8, a leading byte-order mark
    dropped)."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse(fh.read())


def write_file(path: str, tree: Tree) -> None:
    """Write a tree as a one-line Newick file (UTF-8)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(tree) + "\n")
