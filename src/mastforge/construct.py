"""Constructions of balanced tree pairs with provably small agreement.

The machinery, bottom up:

* ``a_of_n``: how many label-disjoint n-caterpillars fit in a balanced tree
  on 2**(n-1) leaves, the closed form 2**floor(n - log2(n) - 1) (OEIS
  A054243).
* ``pack_caterpillars``: materializes such a packing by induction on n,
  recursing into the two halves and extending each (n-1)-caterpillar with an
  unused leaf position of the opposite half.  When n-1 is a power of two the
  count stalls and only half of each side's caterpillars are extended.
* ``label_grid``: partitions {1..2**(h1+h2)} into 2**(2*h1) consecutive
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
from .tree import Tree, TreeError, make_balanced, make_caterpillar


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
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_PACK_N:
        raise ValueError(f"n={n} is too large; packings are built up to n={MAX_PACK_N}")
    cats = _pack(n, 0)
    if len(cats) != a_of_n(n):
        raise PackingError(f"packed {len(cats)} caterpillars, expected {a_of_n(n)}")
    used = {p for cat in cats for p in cat}
    unused = frozenset(range(1 << (n - 1))) - used
    return PackingPlan(n - 1, tuple(tuple(cat) for cat in cats), unused)


def perfect_packing(k: int) -> PackingPlan:
    """The perfect case: 2**(2**k - k - 1) caterpillars of size 2**k cover
    every leaf of the balanced shape of height 2**k - 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    plan = pack_caterpillars(1 << k)
    expected = 1 << ((1 << k) - k - 1)
    if plan.count != expected or plan.count * (1 << k) != 1 << ((1 << k) - 1):
        raise PackingError("caterpillar count does not match the closed form")
    if plan.unused_positions:
        raise PackingError("packing is not perfect")
    return plan


def _tiled_packing(height: int, cat_exponent: int) -> PackingPlan:
    """Perfectly pack a height-``height`` shape with caterpillars of size
    2**cat_exponent by repeating the base packing in each pendant subtree of
    height 2**cat_exponent - 1.  Requires height >= 2**cat_exponent - 1.
    """
    size = 1 << cat_exponent
    if size - 1 > height:
        raise ValueError(
            f"caterpillars of size {size} do not fit a host of height {height}"
        )
    base = pack_caterpillars(size)
    stride = 1 << (size - 1)
    cats: list[tuple[int, ...]] = []
    for tile in range(1 << (height - (size - 1))):
        off = tile * stride
        cats.extend(tuple(p + off for p in cat) for cat in base.caterpillars)
    return PackingPlan(height, tuple(cats))


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


def label_grid(h1: int, h2: int) -> LabelGrid:
    """Build the grid of consecutive blocks for heights h1 <= h2."""
    return LabelGrid(h1, h2)


# ----------------------------------------------------------------------
# anti-caterpillars
# ----------------------------------------------------------------------

def make_anticaterpillar_pair(labels: list[str]) -> tuple[Tree, Tree]:
    """The caterpillar on ``labels`` and the caterpillar on the reversed
    sequence.  Needs at least two distinct labels.
    """
    if len(labels) < 2:
        raise TreeError("anti-caterpillars need at least two leaves")
    return make_caterpillar(labels), make_caterpillar(list(reversed(labels)))


def is_anticaterpillar_pair(a: Tree, b: Tree) -> bool:
    """True iff both trees are caterpillars on the same labels and some
    valid ordering of one is exactly the reverse of a valid ordering of the
    other (the cherry at each end may be swapped freely).
    """
    oa = a.caterpillar_order()
    ob = b.caterpillar_order()
    if oa is None or ob is None or len(oa) != len(ob) or set(oa) != set(ob):
        return False

    def variants(order: list[str]) -> list[list[str]]:
        if len(order) < 2:
            return [order]
        return [order, [order[1], order[0], *order[2:]]]

    reversed_b = [list(reversed(v)) for v in variants(ob)]
    return any(va == vb for va in variants(oa) for vb in reversed_b)


# ----------------------------------------------------------------------
# the counterexample family
# ----------------------------------------------------------------------

# Beyond k=3 the trees have 2**26+ leaves; closed-form parameters stay
# available for any k via counterexample_parameters.
MAX_BUILDABLE_K = 3


def counterexample_parameters(k: int) -> dict:
    """Closed-form parameters of the height-(h1+h2) pair for any k >= 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    h1 = (1 << k) - k - 1
    h2 = (1 << k) - 1
    return {
        "k": k,
        "h1": h1,
        "h2": h2,
        "n": 1 << (h1 + h2),
        "expected_mast": 1 << ((1 << k) - k),
    }


@dataclass(frozen=True)
class CounterexamplePair:
    """A pair of balanced trees on the same n = 2**(2**(k+1)-k-2) labels
    whose MAST size is exactly 2**(2**k - k).
    """

    k: int
    s: Tree
    t: Tree
    expected_mast: int
    n: int

    def __post_init__(self):
        params = counterexample_parameters(self.k)
        if self.n != params["n"] or self.expected_mast != params["expected_mast"]:
            raise ValueError(f"parameters do not match k={self.k}: {params}")
        for name, tree in (("s", self.s), ("t", self.t)):
            if tree.size != self.n:
                raise TreeError(f"tree {name} has {tree.size} leaves, expected {self.n}")
            if not tree.is_balanced():
                raise TreeError(f"tree {name} is not balanced")
        if self.s.leaf_set() != self.t.leaf_set():
            raise TreeError("the two trees must carry the same label set")


def build_counterexample(k: int) -> CounterexamplePair:
    """Construct the pair for parameter k (trees materialized up to k=3).

    Both sides are balanced shapes of height h1+h2 whose 2**h1 depth-h1
    pendant subtrees are filled from one shared perfect packing: subtree i
    of the first tree writes block (i, j) into the j-th caterpillar in
    forward order, subtree j of the second writes block (i, j) into the
    i-th caterpillar reversed.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > MAX_BUILDABLE_K:
        raise ValueError(
            f"k={k} would need 2**(2**{k + 1} - {k + 2}) leaves per tree; "
            f"trees are only materialized up to k={MAX_BUILDABLE_K} "
            "(use counterexample_parameters for the closed forms)"
        )
    params = counterexample_parameters(k)
    h1, h2 = params["h1"], params["h2"]
    grid = label_grid(h1, h2)
    cats = perfect_packing(k).caterpillars
    s, t = _fill_grid_pair(grid, cats)
    return CounterexamplePair(k, s, t, params["expected_mast"], params["n"])


def _fill_grid_pair(
    grid: LabelGrid, cats: tuple[tuple[int, ...], ...]
) -> tuple[Tree, Tree]:
    """Label two balanced shapes from a grid and one per-subtree packing.

    Subtree i of the first tree writes block (i, j) into caterpillar j in
    forward order; subtree j of the second writes block (i, j) into
    caterpillar i reversed, so each restricted pair is anti-caterpillars.
    """
    side = 1 << grid.h1
    if len(cats) != side:
        raise PackingError(f"expected {side} caterpillars per subtree, got {len(cats)}")
    subtree_leaves = 1 << grid.h2
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
    height = grid.h1 + grid.h2
    return make_balanced(height, s_labels), make_balanced(height, t_labels)


def build_overlap_pair(h1: int, h2: int) -> tuple[Tree, Tree]:
    """General grid pair: two balanced trees of height h1+h2 whose depth-h1
    pendant subtrees pairwise share exactly one 2**(h2-h1)-label block
    restricting to anti-caterpillars.  Needs 2**(h2-h1) <= h2 + 1 so the
    caterpillars fit each subtree.
    """
    grid = label_grid(h1, h2)
    cats = _tiled_packing(h2, h2 - h1).caterpillars
    return _fill_grid_pair(grid, cats)


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
        raise AssertionError(f"guard inequality 2**(-k/2+1) < c failed for k={k}")
    # same inequality in the mast < c*sqrt(n) form, while log2(n) fits a float
    if k <= 64 and not (1 << k) - k < log_c + ((1 << (k + 1)) - k - 2) / 2:
        raise AssertionError(f"mast < c*sqrt(n) failed for k={k}")
    return k


# ----------------------------------------------------------------------
# verifiers
# ----------------------------------------------------------------------

def _pendant_blocks(s: Tree, t: Tree, s_depth: int, t_depth: int):
    """The pendant-subtree leaf sets of ``s`` and ``t`` at the given depths,
    the overlap of subtree i of ``s`` with subtree j of ``t`` keyed by (i, j),
    and each nonempty overlap restricted once in each of its two subtrees.
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
    return s_sets, t_sets, blocks, restricted


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
    s_sets, t_sets, blocks, restricted = _pendant_blocks(pair.s, pair.t, h1, h1)

    checks: list[CheckRecord] = []
    overlap_sizes = {len(block) for block in blocks.values()}
    checks.append(
        CheckRecord(
            "pairwise_overlap",
            f"every one of {side * side} subtree pairs shares {r} labels",
            f"overlap sizes seen: {sorted(overlap_sizes)}",
            overlap_sizes == {r},
        )
    )

    def packed(own: frozenset[str], cells, which: int) -> bool:
        """True iff the blocks at ``cells`` are nonempty, disjoint, cover
        ``own`` and each restricts to a caterpillar on side ``which``."""
        covered: set[str] = set()
        for cell in cells:
            block = blocks[cell]
            if not block or covered & block:
                return False
            covered |= block
            if restricted[cell][which].caterpillar_order() is None:
                return False
        return covered == own

    s_ok = sum(
        packed(s_sets[i], [(i, j) for j in range(side)], 0) for i in range(side)
    )
    t_ok = sum(
        packed(t_sets[j], [(i, j) for i in range(side)], 1) for j in range(side)
    )
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
    checks: list[CheckRecord] = []

    def bail() -> VerificationReport:
        checks.append(
            CheckRecord("mast_bound", "not asserted: hypotheses failed", None, False)
        )
        return VerificationReport(tuple(checks))

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
    checks.append(
        CheckRecord(
            "pendant_decomposition",
            "balanced trees split into p and q equal subtrees of shared size >= 2",
            f"subtree sizes {s.size}/{p} and {t.size}/{q}",
            shape_ok,
        )
    )
    if not shape_ok:
        return bail()

    _, _, blocks, restricted = _pendant_blocks(
        s, t, p.bit_length() - 1, q.bit_length() - 1
    )
    overlaps = {len(block) for block in blocks.values()}
    overlap_ok = len(overlaps) == 1 and 0 not in overlaps
    checks.append(
        CheckRecord(
            "equal_positive_overlaps",
            "one common overlap size r >= 1 for all subtree pairs",
            f"overlap sizes seen: {sorted(overlaps)}",
            overlap_ok,
        )
    )
    if not overlap_ok:
        return bail()

    checks.append(_anticaterpillar_record(restricted, p * q))
    if not checks[-1].passed:
        return bail()

    size = mast_dp(s, t).size
    limit = 2 * max(p, q)
    checks.append(CheckRecord("mast_bound", f"<= {limit}", size, size <= limit))
    return VerificationReport(tuple(checks))
