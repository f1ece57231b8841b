"""Property tests: the tree layout against recursive oracles on the nested
form, and the algebra of MAST on small random pairs.

Runs are derandomized and use no example database, so every run of the
suite checks the same examples.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mastforge import (
    Tree,
    make_caterpillar,
    mast_bruteforce,
    mast_dp,
    parse,
    serialize,
)
from mastforge import mast as mast_module

from conftest import (
    assert_fills_match_naive,
    backtrack_cells,
    naive_mast_size,
    naive_mast_table,
    nested_height,
    relabel,
    shuffle_children,
    to_nested,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, derandomize=True, database=None, deadline=None
)

# printable labels free of the reserved characters and whitespace
LABELS = st.text(
    st.characters(
        blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
        blacklist_characters="(),;",
    ),
    min_size=1,
    max_size=3,
)

POOL = [f"x{i}" for i in range(10)]


@st.composite
def nested_trees(draw, labels):
    """A random binary shape over the given distinct labels, merged pairwise."""
    parts = list(draw(labels))
    while len(parts) > 1:
        a = parts.pop(draw(st.integers(0, len(parts) - 1)))
        b = parts.pop(draw(st.integers(0, len(parts) - 1)))
        parts.append((a, b))
    return parts[0]


ANY_NESTED = nested_trees(st.lists(LABELS, min_size=1, max_size=12, unique=True))


def trees_over(pool: list[str]):
    return nested_trees(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    ).map(Tree.from_nested)


POOL_TREES = trees_over(POOL)
# at most 9 labels, so a pair with a POOL_TREES tree shares at most 9
SMALL_POOL_TREES = trees_over(POOL[:9])
# random merges, plus caterpillars with their spine on either side: each
# side draws its own labels, so pairs overlap partly, fully or not at all
CATERPILLARS = st.tuples(
    st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True),
    st.randoms(),
).map(lambda args: shuffle_children(make_caterpillar(args[0]), args[1]))
SHAPED_TREES = st.one_of(POOL_TREES, CATERPILLARS)


def postorder(nested) -> list:
    """Every subtree of a nested form, children before parents."""
    if isinstance(nested, str):
        return [nested]
    return postorder(nested[0]) + postorder(nested[1]) + [nested]


class TestLayout:
    @PROPERTY_SETTINGS
    @given(ANY_NESTED)
    def test_nested_round_trip(self, nested):
        assert to_nested(Tree.from_nested(nested)) == nested

    @PROPERTY_SETTINGS
    @given(ANY_NESTED)
    def test_newick_round_trip_keeps_the_tuples(self, nested):
        t = Tree.from_nested(nested)
        back = parse(serialize(t))
        assert (back.left, back.right, back.label) == (t.left, t.right, t.label)

    @PROPERTY_SETTINGS
    @given(ANY_NESTED)
    def test_ids_follow_the_recursive_postorder(self, nested):
        t = Tree.from_nested(nested)
        order = postorder(nested)
        assert t.leaf_labels_in_order() == [x for x in order if isinstance(x, str)]
        assert [to_nested(t.subtree(v)) for v in range(len(t.label))] == order
        heights = [t.subtree(v).height for v in range(len(t.label))]
        assert heights == [nested_height(x) for x in order]


class TestMastAlgebra:
    @PROPERTY_SETTINGS
    @given(POOL_TREES, POOL_TREES)
    def test_symmetric(self, s, t):
        assert mast_dp(s, t).size == mast_dp(t, s).size

    @PROPERTY_SETTINGS
    @given(POOL_TREES)
    def test_self_mast_equals_size(self, t):
        assert mast_dp(t, t).size == t.size

    @PROPERTY_SETTINGS
    @given(POOL_TREES, POOL_TREES, st.permutations(POOL), st.randoms())
    def test_invariant_under_relabelling_and_child_swaps(self, s, t, perm, rng):
        size = mast_dp(s, t).size
        mapping = dict(zip(POOL, perm))
        assert mast_dp(relabel(s, mapping), relabel(t, mapping)).size == size
        swapped = mast_dp(shuffle_children(s, rng), shuffle_children(t, rng))
        assert swapped.size == size

    @PROPERTY_SETTINGS
    @given(POOL_TREES, POOL_TREES)
    def test_dp_matches_naive_recursion(self, s, t):
        assert mast_dp(s, t).size == naive_mast_size(s, t)

    @PROPERTY_SETTINGS
    @given(POOL_TREES, POOL_TREES, st.sets(st.sampled_from(POOL)))
    def test_monotone_under_restriction(self, s, t, keep):
        s_keep, t_keep = s.leaf_set() & keep, t.leaf_set() & keep
        assume(s_keep and t_keep)
        restricted = mast_dp(s.restrict(s_keep), t.restrict(t_keep)).size
        assert restricted <= mast_dp(s, t).size

    @PROPERTY_SETTINGS
    @given(POOL_TREES, POOL_TREES)
    def test_witness_restricts_isomorphically_in_both_trees(self, s, t):
        result = mast_dp(s, t)
        assert len(result.witness_labels) == result.size
        if result.size:
            s_part = s.restrict(result.witness_labels)
            t_part = t.restrict(result.witness_labels)
            assert s_part.is_isomorphic(t_part)
            assert s_part.is_isomorphic(result.agreement_tree)

    @PROPERTY_SETTINGS
    @given(SMALL_POOL_TREES, POOL_TREES)
    def test_dp_matches_brute_force(self, s, t):
        assert mast_dp(s, t).size == mast_bruteforce(s, t)


class TestSizeTable:
    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(SHAPED_TREES, SHAPED_TREES)
    def test_every_cell_matches_naive_recursion(self, s, t):
        assert_fills_match_naive(s, t)

    # the table holds S's internal rows; the backtrack reads them by
    # postorder rank and derives each leaf's cells from its label's T leaf
    @PROPERTY_SETTINGS
    @given(SHAPED_TREES, SHAPED_TREES)
    def test_backtrack_cells_match_naive_recursion(self, s, t):
        assert backtrack_cells(s, t) == naive_mast_table(s, t)

    # blocks of at most 1, 2 or 3 leaves in both modes: S splits into many
    # blocks, and the root row's store hands each row out again and again
    @pytest.mark.parametrize("block_leaves", [1, 2, 3])
    @PROPERTY_SETTINGS
    @given(SHAPED_TREES, SHAPED_TREES)
    def test_every_cell_matches_naive_recursion_in_small_blocks(self, block_leaves, s, t):
        assert_fills_match_naive(s, t, block_leaves)


class TestFillOrder:
    @pytest.mark.parametrize("block_leaves", [1, 2, 3, 8])
    @PROPERTY_SETTINGS
    @given(SHAPED_TREES)
    def test_schedule(self, block_leaves, s):
        # every child row is filled in an earlier batch, no two live rows
        # share a store row, a batch's general rows ascend (as _fill_d
        # needs), and the root row holds at most B + height(S) + 2 rows
        internal = [u for u, a in enumerate(s.left) if a >= 0]
        for root_only in (False, True):
            batches, slot, rows = mast_module._fill_order(s, block_leaves, root_only)
            assert sorted(u for batch in batches for u in batch) == internal
            done, live = set(), set()  # live: filled, parent's batch not done
            for batch in batches:
                children = [c for u in batch for c in (s.left[u], s.right[u])]
                children = [c for c in children if s.left[c] >= 0]
                assert done.issuperset(children)
                general = [slot[u] for u in batch
                           if s.left[s.left[u]] >= 0 and s.left[s.right[u]] >= 0]
                assert all(x < y for x, y in zip(general, general[1:]))
                live.update(batch)
                held = {slot[u] for u in live}
                assert len(held) == len(live) and max(held) < rows
                live.difference_update(children)
                done.update(batch)
            if root_only:
                assert rows <= block_leaves + s.height + 2
            else:  # internal nodes in postorder
                assert [slot[u] for u in internal] == list(range(rows))
