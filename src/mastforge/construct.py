"""Constructions of balanced tree pairs with provably small agreement.

The machinery, bottom up:

* ``a_of_n``: how many label-disjoint n-caterpillars fit in a balanced tree
  on 2**(n-1) leaves, the closed form 2**floor(n - log2(n) - 1) (OEIS
  A054243).
* ``pack_caterpillars``: materializes such a packing by induction on n,
  recursing into the two halves and extending each (n-1)-caterpillar with an
  unused leaf position of the opposite half.  When n-1 is a power of two the
  count stalls and only half of each side's caterpillars are extended.
* ``LabelGrid``: partitions {1..2**(h1+h2)} into 2**(2*h1) consecutive
  blocks arranged in a square grid so that row unions and column unions meet
  in exactly one block.
* ``build_counterexample``: writes grid blocks into the packed caterpillar
  positions of each depth-h1 pendant subtree, forwards on one side and
  reversed on the other.  Every subtree pair then shares exactly one block
  and restricts to a pair of anti-caterpillars, forcing the MAST down to
  2 * 2**h1 = 2**(2**k - k) on n = 2**(2**(k+1) - k - 2) leaves, which is
  below sqrt(n) for k >= 3.

``verify_counterexample`` re-checks all of this from scratch on a finished
pair, including an exact MAST computation, and ``check_upper_bound_lemma``
validates the 2 * max{p, q} upper bound on any instance satisfying its
hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .mast import mast_dp
from .report import CheckRecord, VerificationReport
from .tree import Tree, TreeError, make_balanced


class PackingError(RuntimeError):
    """An internal packing invariant failed (a bug, not a bad input)."""


# ----------------------------------------------------------------------
# caterpillar packing
# ----------------------------------------------------------------------

def a_of_n(n: int) -> int:
    """Number of label-disjoint n-caterpillars a balanced tree on 2**(n-1)
    leaves embeds: 2**floor(n - log2(n) - 1).

    Computed exactly: floor(n - log2(n) - 1) = n - 1 - ceil(log2(n)) both
    when n is a power of two (log2 is an integer) and when it is not (the
    fractional parts cancel); ceil(log2(n)) is (n-1).bit_length().
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1 - (n - 1).bit_length())


@dataclass(frozen=True)
class PackingPlan:
    """Disjoint caterpillar position sequences in a balanced host shape.

    Positions index the host's leaves left to right (0-based).  Each
    sequence realizes the caterpillar in exactly that order; for a complete
    shape this holds iff the branching level (p1 XOR pi).bit_length() is
    strictly increasing along the sequence, which is checked here.  The
    ``restrict``-based check on a concrete host (``embeddings`` in
    ``tests/conftest.py``) is the independent test oracle.
    """

    host_height: int
    caterpillars: tuple[tuple[int, ...], ...]
    unused_positions: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        total = 1 << self.host_height
        seen: set[int] = set()
        for cat in self.caterpillars:
            if not cat:
                raise PackingError("empty caterpillar sequence")
            first = cat[0]
            prev_level = 0
            for pos in cat:
                if not 0 <= pos < total:
                    raise PackingError(f"position {pos} outside host of {total} leaves")
                if pos in seen:
                    raise PackingError(f"position {pos} used twice")
                seen.add(pos)
                if pos != first:
                    level = (first ^ pos).bit_length()
                    if level <= prev_level:
                        raise PackingError(
                            f"sequence {cat} does not realize a caterpillar"
                        )
                    prev_level = level
        if seen & self.unused_positions:
            raise PackingError("unused positions overlap a caterpillar")
        if len(seen) + len(self.unused_positions) != total:
            raise PackingError("positions do not partition the host leaves")

    @property
    def count(self) -> int:
        return len(self.caterpillars)

    def as_dict(self) -> dict:
        return {
            "host_height": self.host_height,
            "count": self.count,
            "caterpillars": [list(cat) for cat in self.caterpillars],
            "unused_positions": sorted(self.unused_positions),
        }


def _pack(n: int, offset: int) -> list[list[int]]:
    """a_of_n(n) disjoint n-caterpillars over positions
    [offset, offset + 2**(n-1)), by induction on n.
    """
    if n == 1:
        return [[offset]]
    half = 1 << (n - 2)
    left = _pack(n - 1, offset)
    right = _pack(n - 1, offset + half)
    if (n - 1) & (n - 2) == 0:
        # n-1 is a power of two: the count stalls, extend half from each side
        take = (len(left) + 1) // 2
        chosen_left = left[:take]
        chosen_right = right[: len(left) - take]
    else:
        chosen_left = left
        chosen_right = right
    used_left = {p for cat in chosen_left for p in cat}
    used_right = {p for cat in chosen_right for p in cat}
    free_left = sorted(set(range(offset, offset + half)) - used_left)
    free_right = sorted(set(range(offset + half, offset + 2 * half)) - used_right)
    # the counting inequalities guarantee enough free leaves on each side
    if len(free_right) < len(chosen_left) or len(free_left) < len(chosen_right):
        raise PackingError(f"ran out of extension leaves at n={n}")
    out = [cat + [free_right[i]] for i, cat in enumerate(chosen_left)]
    out += [cat + [free_left[i]] for i, cat in enumerate(chosen_right)]
    return out


# A plan holds 2**(n-1) positions as Python ints; time grows ~4x per step of 2
# in n (n=20: 5.8 s, 122 MB on a 2-core host), and n near 30 would need > 8 GB.
MAX_PACK_N = 24


def pack_caterpillars(n: int) -> PackingPlan:
    """Pack a_of_n(n) disjoint n-caterpillars into the balanced shape on
    2**(n-1) leaves.  Extension leaves are consumed in ascending position
    order; when the count stalls, the first ceil(a(n-1)/2) caterpillars come
    from the left half and the remainder from the right.
    """
    if n > MAX_PACK_N:  # first: a_of_n(n) is an (n - log2(n))-bit number
        raise ValueError(f"n={n} is too large; packings are built up to n={MAX_PACK_N}")
    count = a_of_n(n)  # refuses n < 1
    cats = _pack(n, 0)
    if len(cats) != count:
        raise PackingError(f"packed {len(cats)} caterpillars, expected {count}")
    used = {p for cat in cats for p in cat}
    unused = frozenset(range(1 << (n - 1))) - used
    return PackingPlan(n - 1, tuple(tuple(cat) for cat in cats), unused)


# ----------------------------------------------------------------------
# label grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LabelGrid:
    """The 2**h1 x 2**h1 grid of consecutive label blocks, in closed form.

    Block (i, j), for i, j in 1..2**h1, is L_r = {(r-1)*B + 1, ..., r*B} with
    r = j + (i-1) * 2**h1 and B = 2**(h2-h1): row-major, the blocks cut
    1..2**(h1+h2) into runs of B.  Row i is the label set of the i-th subtree
    on one side, column j of the j-th on the other; any row and column
    intersect in exactly their shared block.
    """

    h1: int
    h2: int

    def __post_init__(self):
        if self.h1 < 0 or self.h2 < self.h1:
            raise ValueError(f"need 0 <= h1 <= h2, got h1={self.h1}, h2={self.h2}")

    @property
    def block_size(self) -> int:
        return 1 << (self.h2 - self.h1)

    def block(self, i: int, j: int) -> tuple[int, ...]:
        side = 1 << self.h1
        if not (1 <= i <= side and 1 <= j <= side):
            raise KeyError((i, j))
        r = j + (i - 1) * side
        return tuple(range((r - 1) * self.block_size + 1, r * self.block_size + 1))


# ----------------------------------------------------------------------
# anti-caterpillars
# ----------------------------------------------------------------------

def is_anticaterpillar_pair(a: Tree, b: Tree) -> bool:
    """True iff both trees are caterpillars on the same labels and some
    valid ordering of one is exactly the reverse of a valid ordering of the
    other (the cherry at each end may be swapped freely).
    """
    oa, ob = a.caterpillar_order(), b.caterpillar_order()
    # reverse a's order under either order of its cherry, then sort the new
    # cherry as caterpillar_order sorted b's
    return oa is not None and any(
        sorted(rev[:2]) + rev[2:] == ob for rev in (oa[::-1], oa[2:][::-1] + oa[:2])
    )


# ----------------------------------------------------------------------
# the counterexample family
# ----------------------------------------------------------------------

# Beyond k=3 the trees have 2**26+ leaves; closed-form parameters stay
# available via counterexample_parameters, whose n, a 2**(k+1)-bit number,
# is 4 MB at k=24 and doubles with each step of k.
MAX_BUILDABLE_K = 3
MAX_PARAMETER_K = 24


def _leaves_needed(k: int) -> str:
    """The leaf count of the k-th pair, written symbolically."""
    return f"k={k} would need 2**(2**{k + 1} - {k + 2}) leaves per tree"


def counterexample_parameters(k: int) -> dict:
    """Closed-form parameters of the height-(h1+h2) pair for 1 <= k <=
    ``MAX_PARAMETER_K``; a larger k is refused before n is computed."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > MAX_PARAMETER_K:
        raise ValueError(
            f"{_leaves_needed(k)}; closed forms are computed up to k={MAX_PARAMETER_K}"
        )
    h1 = (1 << k) - k - 1
    h2 = (1 << k) - 1
    return {
        "k": k,
        "h1": h1,
        "h2": h2,
        "n": 1 << (h1 + h2),
        "expected_mast": 1 << ((1 << k) - k),
    }


def check_verifiable_k(k: int) -> dict:
    """The parameters of k, refusing k < 1 and, before n (a 2**(k+1)-bit
    number) is computed, k > ``MAX_BUILDABLE_K`` with a symbolic exponent."""
    if k > MAX_BUILDABLE_K:
        raise ValueError(
            f"{_leaves_needed(k)}; trees are only materialized up to k={MAX_BUILDABLE_K} "
            "(use counterexample_parameters for the closed forms)"
        )
    return counterexample_parameters(k)


@dataclass(frozen=True)
class CounterexamplePair:
    """A pair of balanced trees on the same n = 2**(2**(k+1)-k-2) labels
    whose MAST size is exactly 2**(2**k - k).  Both ``n`` and
    ``expected_mast`` are functions of k, read from
    ``counterexample_parameters``; the trees must have n leaves each.
    A k above ``MAX_BUILDABLE_K`` is refused before n is computed.
    """

    k: int
    s: Tree
    t: Tree

    @property
    def n(self) -> int:
        return counterexample_parameters(self.k)["n"]

    @property
    def expected_mast(self) -> int:
        return counterexample_parameters(self.k)["expected_mast"]

    def __post_init__(self):
        n = check_verifiable_k(self.k)["n"]
        for name, tree in (("s", self.s), ("t", self.t)):
            if tree.size != n:
                raise TreeError(f"tree {name} has {tree.size} leaves, expected {n}")
            if not tree.is_balanced():
                raise TreeError(f"tree {name} is not balanced")
        if self.s.leaf_set() != self.t.leaf_set():
            raise TreeError("the two trees must carry the same label set")


def build_counterexample(k: int) -> CounterexamplePair:
    """Construct the pair for parameter k (trees materialized up to k=3).

    This is the grid pair ``build_overlap_pair(h1, h2)`` at h2 = 2**k - 1
    and h2 - h1 = k, where each depth-h1 pendant subtree, of height
    2**k - 1, is covered by the 2**(2**k - k - 1) caterpillars of
    ``pack_caterpillars(2**k)``.
    """
    params = check_verifiable_k(k)
    s, t = build_overlap_pair(params["h1"], params["h2"])
    return CounterexamplePair(k, s, t)


def build_overlap_pair(h1: int, h2: int) -> tuple[Tree, Tree]:
    """General grid pair: two balanced trees of height h1+h2 whose depth-h1
    pendant subtrees pairwise share exactly one 2**(h2-h1)-label block
    restricting to anti-caterpillars.  Needs 2**(h2-h1) <= h2 + 1 so the
    caterpillars fit each subtree.

    Each subtree is tiled perfectly by 2**(h2-h1)-caterpillars, repeating
    ``pack_caterpillars(2**(h2-h1))`` in each of its pendant subtrees of
    height 2**(h2-h1) - 1, so it holds exactly 2**h1 of them, one per block
    of its row.  Subtree i of the first tree writes block (i, j) into
    caterpillar j in forward order; subtree j of the second writes block
    (i, j) into caterpillar i reversed.
    """
    grid = LabelGrid(h1, h2)
    size = grid.block_size
    if size - 1 > h2:
        raise ValueError(
            f"caterpillars of size {size} do not fit a host of height {h2}"
        )
    side = 1 << h1
    subtree_leaves = 1 << h2
    base = pack_caterpillars(size).caterpillars
    tiles = range(0, subtree_leaves, 1 << (size - 1))
    cats = PackingPlan(
        h2, tuple(tuple(p + off for p in cat) for off in tiles for cat in base)
    ).caterpillars
    s_labels: list[str] = []
    t_labels: list[str] = []
    for a in range(1, side + 1):
        s_slot = [""] * subtree_leaves
        t_slot = [""] * subtree_leaves
        for b, cat in enumerate(cats, 1):
            for pos, s_lab, t_lab in zip(cat, grid.block(a, b), reversed(grid.block(b, a))):
                s_slot[pos] = str(s_lab)
                t_slot[pos] = str(t_lab)
        s_labels.extend(s_slot)
        t_labels.extend(t_slot)
    return make_balanced(h1 + h2, s_labels), make_balanced(h1 + h2, t_labels)


def choose_k_for_c(c: float) -> int:
    """Smallest k >= 1 with k > 2*log2(1/c) + 2, which guarantees
    2**(-k/2 + 1) < c and hence a pair whose MAST is below c * sqrt(n).
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be a positive finite number, got {c}")
    # in logs: 1/c overflows and 2**(-k/2+1) rounds up to c at subnormal c
    log_c = math.log2(c)
    k = max(1, math.floor(-2 * log_c + 2) + 1)
    if not -k / 2 + 1 < log_c:
        raise RuntimeError(f"guard inequality 2**(-k/2+1) < c failed for k={k}")
    # same inequality in the mast < c*sqrt(n) form, while log2(n) fits a float
    if k <= 64 and not (1 << k) - k < log_c + ((1 << (k + 1)) - k - 2) / 2:
        raise RuntimeError(f"mast < c*sqrt(n) failed for k={k}")
    return k


# ----------------------------------------------------------------------
# verifiers
# ----------------------------------------------------------------------

def _pendant_blocks(s: Tree, t: Tree, s_depth: int, t_depth: int):
    """The set of overlap sizes of pendant subtree i of ``s`` with pendant
    subtree j of ``t`` at the given depths, over all (i, j), and each
    nonempty overlap restricted once in each of its two subtrees, keyed by
    (i, j).
    """
    s_subs = s.pendant_subtrees_at_depth(s_depth)
    t_subs = t.pendant_subtrees_at_depth(t_depth)
    s_sets = [sub.leaf_set() for sub in s_subs]
    t_sets = [sub.leaf_set() for sub in t_subs]
    blocks = {
        (i, j): a & b for i, a in enumerate(s_sets) for j, b in enumerate(t_sets)
    }
    restricted = {
        (i, j): (s_subs[i].restrict(block), t_subs[j].restrict(block))
        for (i, j), block in blocks.items()
        if block
    }
    return {len(block) for block in blocks.values()}, restricted


def _anticaterpillar_record(restricted: dict, pairs: int) -> CheckRecord:
    """The check that all ``pairs`` subtree pairs restrict to anti-caterpillars."""
    anti = sum(is_anticaterpillar_pair(a, b) for a, b in restricted.values())
    return CheckRecord(
        "anticaterpillar_restrictions",
        f"all {pairs} restricted pairs are anti-caterpillars",
        f"{anti}/{pairs} pairs",
        anti == pairs,
    )


def verify_counterexample(pair: CounterexamplePair) -> VerificationReport:
    """Re-check a finished pair from scratch.

    Checks: (i) every pair of depth-h1 pendant subtrees shares exactly
    2**(h2-h1) labels; (ii) each subtree is perfectly partitioned into
    caterpillar blocks; (iii) every pairwise restriction is a pair of
    anti-caterpillars; (iv) the exact MAST size equals 2**(2**k - k); and,
    for k >= 3, (v) that size is strictly below sqrt(n).
    """
    params = counterexample_parameters(pair.k)
    h1, h2 = params["h1"], params["h2"]
    r = 1 << (h2 - h1)
    side = 1 << h1

    # the partition and anti-caterpillar checks both read these restrictions
    overlap_sizes, restricted = _pendant_blocks(pair.s, pair.t, h1, h1)

    checks: list[CheckRecord] = []
    checks.append(
        CheckRecord(
            "pairwise_overlap",
            f"every one of {side * side} subtree pairs shares {r} labels",
            f"overlap sizes seen: {sorted(overlap_sizes)}",
            overlap_sizes == {r},
        )
    )

    def packed(cells, which: int) -> bool:
        """True iff the blocks at ``cells`` are nonempty (have a
        restriction) and each restricts to a caterpillar on side ``which``.
        The pair has one label set and each tree's pendant subtrees
        partition it, so a row's (or column's) blocks are disjoint and
        cover its subtree."""
        return all(
            cell in restricted and restricted[cell][which].caterpillar_order() is not None
            for cell in cells
        )

    s_ok = sum(packed([(i, j) for j in range(side)], 0) for i in range(side))
    t_ok = sum(packed([(i, j) for i in range(side)], 1) for j in range(side))
    checks.append(
        CheckRecord(
            "caterpillar_partitions",
            f"all {2 * side} pendant subtrees perfectly packed by {r}-caterpillars",
            f"{s_ok}/{side} on the first side, {t_ok}/{side} on the second",
            s_ok == side and t_ok == side,
        )
    )

    checks.append(_anticaterpillar_record(restricted, side * side))

    result = mast_dp(pair.s, pair.t)
    checks.append(
        CheckRecord("mast_size", pair.expected_mast, result.size, result.size == pair.expected_mast)
    )

    if pair.k >= 3:
        checks.append(
            CheckRecord(
                "mast_below_sqrt_n",
                f"mast < sqrt({pair.n}) ~ {math.sqrt(pair.n):.2f}",
                result.size,
                result.size * result.size < pair.n,
            )
        )

    return VerificationReport(tuple(checks))


def check_upper_bound_lemma(s: Tree, t: Tree, p: int, q: int) -> VerificationReport:
    """Verify the hypotheses of the 2*max{p,q} bound and then the bound.

    Hypotheses: both trees balanced, decomposable into p (resp. q) pendant
    subtrees of one common power-of-two size at least 2; all p*q pairwise
    label overlaps equal and positive; every restricted pair forms
    anti-caterpillars.  If any hypothesis fails the bound is not asserted.
    """
    shape_ok = (
        p >= 1
        and q >= 1
        and p & (p - 1) == 0
        and q & (q - 1) == 0
        and s.is_balanced()
        and t.is_balanced()
        and s.size % p == 0
        and t.size % q == 0
        and s.size // p == t.size // q
        and s.size // p >= 2
    )
    checks = [
        CheckRecord(
            "pendant_decomposition",
            "balanced trees split into p and q equal subtrees of shared size >= 2",
            f"subtree sizes {s.size}/{p} and {t.size}/{q}",
            shape_ok,
        )
    ]
    if shape_ok:
        overlaps, restricted = _pendant_blocks(s, t, p.bit_length() - 1, q.bit_length() - 1)
        checks.append(
            CheckRecord(
                "equal_positive_overlaps",
                "one common overlap size r >= 1 for all subtree pairs",
                f"overlap sizes seen: {sorted(overlaps)}",
                len(overlaps) == 1 and 0 not in overlaps,
            )
        )
        if checks[-1].passed:
            checks.append(_anticaterpillar_record(restricted, p * q))
    if checks[-1].passed:
        size = mast_dp(s, t).size
        limit = 2 * max(p, q)
        bound = (f"<= {limit}", size, size <= limit)
    else:
        bound = ("not asserted: hypotheses failed", None, False)
    checks.append(CheckRecord("mast_bound", *bound))
    return VerificationReport(tuple(checks))
