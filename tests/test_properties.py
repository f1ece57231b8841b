"""Property tests: the tree layout against recursive oracles on the nested
form, and the algebra of MAST on small random pairs.

Runs are derandomized and use no example database, so every run of the
suite checks the same examples.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mastforge import Tree, mast_bruteforce, mast_dp, parse, serialize

from conftest import naive_mast_size, relabel, shuffle_children

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


def postorder(nested) -> list:
    """Every subtree of a nested form, children before parents."""
    if isinstance(nested, str):
        return [nested]
    return postorder(nested[0]) + postorder(nested[1]) + [nested]


def height(nested) -> int:
    if isinstance(nested, str):
        return 0
    return 1 + max(height(nested[0]), height(nested[1]))


class TestLayout:
    @PROPERTY_SETTINGS
    @given(ANY_NESTED)
    def test_nested_round_trip(self, nested):
        assert Tree.from_nested(nested).to_nested() == nested

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
        assert [t.subtree(v).to_nested() for v in range(len(t.label))] == order
        assert list(t.heights) == [height(x) for x in order]


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
