"""MAST solver versus the subset-enumeration oracle and known values."""

import hashlib
import io
import itertools
import os
import random
import sys
from collections import Counter

import pytest

from mastforge import (
    Tree,
    build_counterexample,
    build_overlap_pair,
    check_upper_bound_lemma,
    make_balanced,
    make_caterpillar,
    mast_bruteforce,
    mast_dp,
    mast_size_matrix,
    serialize,
)
from mastforge import mast as mast_module

from conftest import (
    all_tree_shapes,
    assert_fills_match_naive,
    backtrack_cells,
    displayed_triple,
    naive_mast_size,
    naive_mast_table,
    random_overlapping_pair,
    random_tree,
    relabel,
    shuffle_children,
    traced_peak,
)


class TestKnownValues:
    def test_identity_pair(self):
        rng = random.Random(5)
        for _ in range(10):
            t = random_tree(rng, [f"l{i}" for i in range(rng.randint(1, 30))])
            res = mast_dp(t, t)
            assert res.size == t.size
            assert res.witness_labels == t.leaf_set()
            assert res.agreement_tree.is_isomorphic(t)

    def test_disjoint_leaf_sets(self):
        s = make_caterpillar(["a", "b", "c"])
        t = make_caterpillar(["x", "y", "z"])
        res = mast_dp(s, t)
        assert res.size == 0
        assert res.witness_labels == frozenset()
        assert res.agreement_tree is None

    def test_anticaterpillar_pair_on_5(self):
        labels = [str(i) for i in range(1, 6)]
        a, b = make_caterpillar(labels), make_caterpillar(labels[::-1])
        assert mast_bruteforce(a, b) == 2
        assert mast_dp(a, b).size == 2

    def test_anticaterpillar_law_up_to_64(self):
        for n in range(2, 65):
            labels = [str(i) for i in range(1, n + 1)]
            a, b = make_caterpillar(labels), make_caterpillar(labels[::-1])
            assert mast_dp(a, b).size == 2, f"anti-caterpillar pair on {n} leaves"

    def test_identical_random_6_leaf(self):
        rng = random.Random(99)
        t = random_tree(rng, [f"v{i}" for i in range(6)])
        assert mast_bruteforce(t, t) == 6

    def test_deep_caterpillar_against_relabelled_swapped_copy(self):
        # cells up to 2000 need more than 8 bits and exceed the bench's 400
        labels = [str(i) for i in range(2000)]
        rng = random.Random(2000)
        mapping = dict(zip(labels, rng.sample(labels, len(labels))))
        cat = make_caterpillar(labels)
        s = relabel(cat, mapping)
        t = shuffle_children(relabel(cat, mapping), rng)
        assert mast_dp(s, t).size == 2000


class TestOracleAgreement:
    def test_dp_matches_bruteforce_on_200_pairs(self):
        rng = random.Random(20240501)
        for trial in range(200):
            s, t, _ = random_overlapping_pair(rng, max_common=10)
            expected = mast_bruteforce(s, t)
            got = mast_dp(s, t)
            assert got.size == expected, f"trial {trial}: dp {got.size} != {expected}"

    def test_dp_matches_naive_recursion_on_larger_trees(self):
        # the subset oracle cannot reach these sizes; the plain memoized
        # recursion can, and exercises the deep propagation paths
        rng = random.Random(5150)
        for trial in range(20):
            n = rng.randint(20, 48)
            labels = [f"v{i}" for i in range(n)]
            shuffled = labels[:]
            rng.shuffle(shuffled)
            s = random_tree(rng, labels)
            builders = [
                lambda: random_tree(rng, shuffled),
                lambda: make_caterpillar(shuffled),
            ]
            t = builders[trial % 2]()
            assert mast_dp(s, t).size == naive_mast_size(s, t), f"trial {trial}"

    def test_dp_matches_naive_recursion_on_extremal_subtrees(self, golden_s, golden_t):
        s_sub = golden_s.pendant_subtrees_at_depth(4)[0]
        t_sub = golden_t.pendant_subtrees_at_depth(4)[0]
        assert mast_dp(s_sub, t_sub).size == naive_mast_size(s_sub, t_sub)

    def test_bruteforce_guard(self):
        labels = [str(i) for i in range(17)]
        rng = random.Random(1)
        s = random_tree(rng, labels)
        t = random_tree(rng, labels)
        with pytest.raises(ValueError, match="at most 16"):
            mast_bruteforce(s, t)


class TestProperties:
    def test_symmetry(self):
        rng = random.Random(77)
        for _ in range(50):
            s, t, _ = random_overlapping_pair(rng, max_common=8)
            assert mast_dp(s, t).size == mast_dp(t, s).size

    def test_monotone_under_restriction(self):
        rng = random.Random(42)
        for _ in range(50):
            s, t, common = random_overlapping_pair(rng, max_common=8)
            sub = set(rng.sample(common, rng.randint(1, len(common))))
            smaller = mast_dp(s.restrict(sub), t.restrict(sub)).size
            assert smaller <= mast_dp(s, t).size

    def test_witness_is_valid(self):
        rng = random.Random(13)
        for _ in range(50):
            s, t, _ = random_overlapping_pair(rng, max_common=9)
            res = mast_dp(s, t)
            assert len(res.witness_labels) == res.size
            if res.size:
                assert s.restrict(res.witness_labels).is_isomorphic(res.agreement_tree)
                assert t.restrict(res.witness_labels).is_isomorphic(res.agreement_tree)

    def test_witness_triples_displayed_by_both_inputs(self):
        # soundness: any triple of the agreement tree is displayed by S and T
        rng = random.Random(130)
        for _ in range(20):
            s, t, _ = random_overlapping_pair(rng, max_common=8)
            res = mast_dp(s, t)
            if res.size < 3:
                continue
            witness = sorted(res.witness_labels)
            for a, b, c in itertools.combinations(witness, 3):
                shown = displayed_triple(res.agreement_tree, a, b, c)
                assert displayed_triple(s, a, b, c) == shown
                assert displayed_triple(t, a, b, c) == shown

    def test_witness_deterministic(self):
        rng = random.Random(8)
        s, t, _ = random_overlapping_pair(rng, max_common=10)
        first = mast_dp(s, t)
        again = mast_dp(s, t)
        assert first.witness_labels == again.witness_labels


class TestSizeMatrix:
    def test_leaf_entries(self):
        # the table has no leaf rows: the backtrack derives their cells
        s = make_caterpillar(["x", "y"])
        t = make_caterpillar(["x", "z"])
        matrix = backtrack_cells(s, t)
        s_leaf = {lab: v for v, lab in enumerate(s.label) if lab is not None}
        t_leaf = {lab: v for v, lab in enumerate(t.label) if lab is not None}
        assert matrix[s_leaf["x"]][t_leaf["x"]] == 1
        assert matrix[s_leaf["y"]][t_leaf["z"]] == 0

    def test_root_entry_equals_mast(self):
        rng = random.Random(31)
        s, t, _ = random_overlapping_pair(rng, max_common=8)
        matrix = mast_size_matrix(s, t)
        assert matrix[-1, t.root] == mast_dp(s, t).size

    def test_root_entry_on_golden_pair(self, golden_s, golden_t):
        matrix = mast_size_matrix(golden_s, golden_t)
        assert matrix[-1, golden_t.root] == 32

    def test_entries_monotone_up_the_tree(self):
        # a parent's entry is at least each child's entry against any v
        rng = random.Random(32)
        s, t, _ = random_overlapping_pair(rng, max_common=8)
        matrix = backtrack_cells(s, t)
        for u, (a, b) in enumerate(zip(s.left, s.right)):
            if a < 0:
                continue
            assert all(x >= y for x, y in zip(matrix[u], matrix[a]))
            assert all(x >= y for x, y in zip(matrix[u], matrix[b]))


def c_calls(fn) -> int:
    """Calls into C functions and methods that ``fn()`` makes."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


class TestSizeTableCells:
    def test_one_leaf_tree_on_either_side(self):
        s = random_tree(random.Random(40), ["a", "b", "c", "d", "e"])
        for label in ("c", "z"):
            assert_fills_match_naive(s, Tree.from_nested(label))
            assert_fills_match_naive(Tree.from_nested(label), s)

    def test_one_leaf_each(self):
        for label in ("a", "z"):
            assert_fills_match_naive(Tree.from_nested("a"), Tree.from_nested(label))

    def test_disjoint_labels(self):
        s = make_caterpillar(["a", "b", "c", "d", "e"])
        t = make_balanced(2, ["v", "w", "x", "y"])
        assert not mast_size_matrix(s, t).any()
        assert_fills_match_naive(s, t)

    # subtree id ranges of these widths are covered by two overlapping
    # power-of-two windows rather than one
    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9])
    def test_caterpillars(self, n):
        rng = random.Random(n)
        labels = [f"l{i}" for i in range(n)]
        cat = make_caterpillar(labels)
        others = [
            cat,
            make_caterpillar(labels[::-1]),
            random_tree(rng, labels),
            make_caterpillar(labels[2:] + ["p", "q"]),  # partial overlap
        ]
        for other in others:
            assert_fills_match_naive(cat, other)
            assert_fills_match_naive(other, cat)

    def test_call_count_independent_of_tree_height(self):
        # a fill makes about as many calls into C for caterpillars (height
        # 511) as for balanced trees (height 9): nothing runs per height
        labels = [str(i) for i in range(512)]
        deep = make_caterpillar(labels), make_caterpillar(labels[::-1])
        flat = make_balanced(9, labels), make_balanced(9, labels[::-1])
        mast_size_matrix(*flat)  # numpy's first import is not part of a fill
        deep_calls = c_calls(lambda: mast_size_matrix(*deep))
        flat_calls = c_calls(lambda: mast_size_matrix(*flat))
        assert deep_calls <= 2 * flat_calls


def right_comb(labels) -> Tree:
    """The mirror of ``make_caterpillar``: the spine runs down the right."""
    nested = labels[-1]
    for lab in reversed(labels[:-1]):
        nested = (lab, nested)
    return Tree.from_nested(nested)


def comb_pair(order):
    labels = [str(i) for i in range(1500)]
    left, right = make_caterpillar(labels), right_comb(labels[::-1])
    return (left, right) if order == "left-right" else (right, left)


@pytest.fixture
def mapped(monkeypatch):
    """(dtype, shape, nbytes) of each array `_zeroed_rows` allocates, in
    call order."""
    held = []
    zeroed_rows = mast_module._zeroed_rows

    def recording(rows, n):
        store = zeroed_rows(rows, n)
        held.append((store.dtype.name, store.shape, store.nbytes))
        return store

    monkeypatch.setattr(mast_module, "_zeroed_rows", recording)
    return held


class TestRootRow:
    @pytest.mark.parametrize("case", [
        "golden", "k3", "left-right", "right-left", "one-leaf",
        "golden-reversed", "k3-reversed",
    ])
    def test_root_row_matches_full_table(self, case, golden_s, golden_t, monkeypatch):
        if case.endswith("-reversed"):
            # the root-only store's row r becomes rows - 1 - r: the same
            # rows in reverse order, which must not change the root row
            case = case.removesuffix("-reversed")
            fill_order = mast_module._fill_order

            def reversed_rows(s, block_leaves, root_only):
                batches, slot, rows = fill_order(s, block_leaves, root_only)
                if root_only:
                    slot = [rows - 1 - r for r in slot]
                return batches, slot, rows

            monkeypatch.setattr(mast_module, "_fill_order", reversed_rows)
        if case == "golden":
            s, t = golden_s, golden_t
        elif case == "k3":
            pair = build_counterexample(3)
            s, t = pair.s, pair.t
        elif case == "one-leaf":  # the root row is a leaf row
            s, t = Tree.from_nested("b"), make_caterpillar(["a", "b", "c"])
        else:
            s, t = comb_pair(case)
        root = mast_size_matrix(s, t, root_only=True)
        assert root.dtype == "int16"
        cell = mast_module._cells(s, t, mast_size_matrix(s, t))
        assert root.tolist() == [[cell(s.root, v) for v in range(len(t.label))]]

    def test_full_table_is_two_bytes_a_cell(self, golden_s, golden_t, mapped):
        # 2047 x 4095 int16 cells are 16.8 MB
        mast_size_matrix(golden_s, golden_t)
        assert mapped == [("int16", (2047, 4095), 2047 * 4095 * 2)]

    def test_tracemalloc_sees_the_table(self, golden_s, golden_t):
        # Python's own memory tools count the 16.8 MB table, and little more
        table = 2047 * 4095 * 2
        assert table <= traced_peak(lambda: mast_size_matrix(golden_s, golden_t)) < 2 * table

    def test_root_row_holds_few_rows(self, golden_s, golden_t, mapped):
        # 100 rows of 4095 cells, 0.82 MB, are held at once
        mast_size_matrix(golden_s, golden_t, root_only=True)
        assert mapped == [("int16", (100, 4095), 100 * 4095 * 2)]

    def test_rows_held(self, golden_s, golden_t, mapped):
        # every internal row of S for the full table, and for the root row
        # the most rows held at once: 100, within 2**19 // 4095 + height + 2
        # = 141
        assert mast_size_matrix(golden_s, golden_t).nbytes == 2047 * 4095 * 2
        mast_size_matrix(golden_s, golden_t, root_only=True)
        assert [shape for _, shape, _ in mapped] == [(2047, 4095), (100, 4095)]

    def test_caterpillar_s_holds_few_rows(self, mapped):
        # a caterpillar's row needs only its child's: a spine of 2047 rows
        # is filled in at most 3 store rows
        labels = [str(i) for i in range(2048)]
        s, t = make_caterpillar(labels), make_balanced(11, labels[::-1])
        root = mast_size_matrix(s, t, root_only=True)
        assert mapped[0][1][0] <= 3
        assert root.tolist() == [mast_size_matrix(s, t)[-1].tolist()]

    def test_full_fill_transients_bounded_by_blocks(self):
        # balanced S against caterpillar T: a batch's path and D cells grow
        # with (its leaves) x (height(T) + 1), so S is split into blocks;
        # beside the 16.8 MB table the fill traces 74 MB as one block, and
        # about 17 MB in blocks
        labels = [str(i) for i in range(2048)]
        s, t = make_balanced(11, labels), make_caterpillar(labels[::-1])
        tables = []
        peak = traced_peak(lambda: tables.append(mast_size_matrix(s, t)))
        assert peak - tables[0].nbytes < 40e6


def both_positive(s, t, u):
    """D for row u: the T nodes where both child rows of u are positive."""
    table = naive_mast_table(s, t)
    row_a, row_b = table[s.left[u]], table[s.right[u]]
    return [w for w, (x, y) in enumerate(zip(row_a, row_b)) if x and y]


def is_chain(t, nodes) -> bool:
    """True iff every two of ``nodes`` are ancestor and descendant."""
    def below(x, w):  # x in the subtree first(w)..w
        first = w
        while t.left[first] >= 0:
            first = t.left[first]
        return first <= x <= w

    return all(below(x, w) or below(w, x) for x, w in itertools.combinations(nodes, 2))


class TestRowStep:
    """Each kind of row the fill makes, cell by cell against the oracle."""

    @pytest.mark.parametrize("cherry", [("p", "q"), ("a", "q"), ("q", "a"), ("a", "c")])
    def test_cherry_with_zero_one_or_two_labels_in_t(self, cherry):
        t = random_tree(random.Random(70), ["a", "b", "c", "d", "e", "f"])
        assert_fills_match_naive(Tree.from_nested(cherry), t)

    def test_caterpillar_with_labels_absent_from_t(self):
        # every other leaf child of the spine has no leaf in T
        labels = [f"l{i}" for i in range(12)]
        s = make_caterpillar(labels)
        rng = random.Random(71)
        for t in (
            make_caterpillar(labels[::2][::-1]),
            random_tree(rng, labels[::2] + ["x", "y"]),
            random_tree(rng, labels[1:5] + labels[8:]),
        ):
            assert_fills_match_naive(s, t)
            assert_fills_match_naive(t, s)

    def test_one_leaf_t(self):
        # the root path of T's one leaf is that leaf: no off-path children
        s = random_tree(random.Random(72), ["a", "b", "c", "d", "e"])
        for label in ("a", "e", "z"):
            assert_fills_match_naive(s, Tree.from_nested(label))

    def test_general_row_with_empty_d(self):
        s = Tree.from_nested((("a", "b"), ("c", "d")))
        t = random_tree(random.Random(73), ["a", "b", "x", "y"])
        assert both_positive(s, t, s.root) == []
        assert_fills_match_naive(s, t)

    def test_general_row_with_branching_d(self):
        s = Tree.from_nested((("a", "b"), ("c", "d")))
        t = Tree.from_nested((("a", "c"), ("b", "d")))
        d = both_positive(s, t, s.root)
        assert len(d) == 3 and not is_chain(t, d)
        assert_fills_match_naive(s, t)


    def test_one_batch_with_empty_and_branching_d(self):
        # the rows (ab, cd) and (ef, gh) are filled in one batch; T lacks g
        # and h, so the second has no D while the first's D branches
        s = Tree.from_nested(((("a", "b"), ("c", "d")), (("e", "f"), ("g", "h"))))
        t = Tree.from_nested(((("a", "c"), ("b", "d")), ("e", "f")))
        assert [6, 13] in mast_module._fill_order(s, 8, False)[0]
        assert both_positive(s, t, 13) == []
        assert not is_chain(t, both_positive(s, t, 6))
        assert_fills_match_naive(s, t)


    @pytest.mark.parametrize("block_leaves", [1, 2, 3, 8])
    def test_one_batch_of_cherries_sharing_ancestors(self, block_leaves):
        # S's four cherries are one batch when a block holds all 8 leaves,
        # and one cherry a batch otherwise, with the root row's store rows
        # handed out again.  In T the cherries' leaves interleave below
        # shared ancestors, g and h are absent, and a cherry with both labels
        # in T counts 2.
        s = make_balanced(3, list("abcdefgh"))
        t = Tree.from_nested(((("a", "c"), ("b", "x")), (("e", "d"), ("f", "y"))))
        cherries = [2, 5, 9, 12]
        for root_only in (False, True):
            batches = mast_module._fill_order(s, block_leaves, root_only)[0]
            assert (cherries in batches) == (block_leaves == 8)
        assert max(naive_mast_table(s, t)[2]) == 2
        assert_fills_match_naive(s, t, block_leaves)

    def test_leaf_rows_under_root_path_rows_and_cherries(self):
        # leaf cells, which the table does not store, derived under a
        # cherry's row (a, b, e, f) and a root-path row (c, d, g), with c
        # and f absent from T
        s = Tree.from_nested(((("a", "b"), "c"), (("d", ("e", "f")), "g")))
        t = random_tree(random.Random(74), ["a", "b", "d", "e", "g", "x", "y"])
        table = naive_mast_table(s, t)
        leaves = [u for u, lab in enumerate(s.label) if lab is not None]
        assert all(any(table[u]) == (s.label[u] not in "cf") for u in leaves)
        assert backtrack_cells(s, t) == table
        assert_fills_match_naive(s, t)


class TestPinnedWitnesses:
    """The witness and its agreement tree, as the fill and the tie-break
    order produce them today, on the pairs the results rest on."""

    # the 32 labels both 2048-leaf pairs agree on
    EXTREMAL = sorted(str(x + i) for x in range(4, 2048, 136) for i in (0, 1))

    @pytest.mark.parametrize(
        "case, labels, digest",
        [
            ("golden", EXTREMAL,
             "a8a45a575b8298479fd655bb098b2b3f480b9b93d5a94b2c07ab2db4f5d684ce"),
            ("k3", EXTREMAL,
             "c58bdd8d310eddd76d3bb60de0dda1a05f4c5f3518a54f7a8c6595a3ba5b5932"),
            ("caterpillar", sorted(f"l{i}" for i in range(400)),
             "64128a4d28f7930533e2dc27cc72ebc39919b6efad2b6a381e4e678dbe9a67b1"),
        ],
    )
    def test_witness_pinned(self, case, labels, digest, golden_s, golden_t):
        if case == "golden":
            s, t = golden_s, golden_t
        elif case == "k3":
            pair = build_counterexample(3)
            s, t = pair.s, pair.t
        else:
            s = make_caterpillar([f"l{i}" for i in range(400)])
            t = shuffle_children(s, random.Random(400))
        result = mast_dp(s, t)
        assert sorted(result.witness_labels) == labels
        written = serialize(result.agreement_tree).encode()
        assert hashlib.sha256(written).hexdigest() == digest


class TestGoldenTable:
    # sha256 of the golden pair's full table, its 2047 internal rows: no
    # change to the fill may change a cell
    GOLDEN = "23984b610519f0421acfaf559446ed10277082c25540cbb29496e47331ff74d1"

    def test_golden_table(self, golden_s, golden_t):
        table = mast_size_matrix(golden_s, golden_t)
        assert hashlib.sha256(table.tobytes()).hexdigest() == self.GOLDEN


class TestTableBudget:
    def test_int16_overflow_refused_before_allocating(self):
        labels = [str(i) for i in range(1 << 15)]
        s, t = make_caterpillar(labels), make_caterpillar(labels[::-1])
        for root_only in (False, True):
            def fill():
                with pytest.raises(ValueError, match="32768 and 32768 leaves"):
                    mast_size_matrix(s, t, root_only=root_only)
            assert traced_peak(fill) < 1e6

    def test_over_budget_refused(self, golden_s, golden_t, monkeypatch):
        # the root row holds at most 100 rows of 4095 two-byte cells at
        # once; the full table all 2047 internal rows, 16.8 MB
        rows_bytes = 100 * 4095 * 2
        monkeypatch.setattr(mast_module, "_available_memory_bytes", lambda: rows_bytes)
        with pytest.raises(ValueError, match=r"2048 and 2048 leaves needs 0\.0168 GB"):
            mast_size_matrix(golden_s, golden_t)
        root = mast_size_matrix(golden_s, golden_t, root_only=True)
        assert root[0, golden_t.root] == 32
        monkeypatch.setattr(mast_module, "_available_memory_bytes", lambda: rows_bytes - 1)
        with pytest.raises(ValueError, match=r"leaves needs 0\.000819 GB"):
            mast_size_matrix(golden_s, golden_t, root_only=True)

    def test_budget_is_available_memory_else_physical(self, monkeypatch):
        # MemAvailable (kB) from a patched /proc/meminfo reader; physical
        # memory where it is missing, malformed or cannot be read
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        for meminfo, budget in [
            ("MemTotal: 8000 kB\nMemAvailable:    1234 kB\n", 1234 * 1024),
            ("MemTotal: 8000 kB\nMemFree: 1234 kB\n", physical),
            ("MemAvailable: lots kB\n", physical),
            ("MemAvailable:\n", physical),
            ("MemAvailable 1234 kB\n", physical),
            (None, physical),
        ]:
            def reader(path, meminfo=meminfo):
                assert path == "/proc/meminfo"
                if meminfo is None:
                    raise FileNotFoundError(path)
                return io.StringIO(meminfo)

            monkeypatch.setattr(mast_module, "open", reader, raising=False)
            assert mast_module._available_memory_bytes() == budget


class TestOneLeafTrees:
    # a one-leaf S has no internal row: mast_dp derives its one cell
    @pytest.mark.parametrize("label, size", [("b", 1), ("z", 0)])
    def test_one_leaf_s_or_t(self, label, size):
        other = make_caterpillar(["a", "b", "c"])
        leaf = Tree.from_nested(label)
        for s, t in ((leaf, other), (other, leaf)):
            result = mast_dp(s, t)
            assert result.size == size and type(result.size) is int
            assert result.witness_labels == ({label} if size else set())
            if size:
                assert serialize(result.agreement_tree) == f"{label};"
            else:
                assert result.agreement_tree is None


class TestBalancedPairs:
    def test_two_leaf_pairs_always_agree_fully(self):
        s = make_balanced(1, ["1", "2"])
        t = make_balanced(1, ["2", "1"])
        assert mast_dp(s, t).size == 2

    def test_shared_labels_on_disjoint_shapes(self):
        s = make_balanced(2, ["1", "2", "3", "4"])
        t = make_caterpillar(["1", "2", "3", "4"])
        # the caterpillar and the balanced shape share any 3-leaf restriction
        assert mast_dp(s, t).size == 3


def balanced_shapes(labels: tuple) -> list:
    """Every balanced tree on ``labels`` (2**h of them) up to child order,
    as nested forms: the first label's half, then the other half, paired
    recursively."""
    if len(labels) == 1:
        return [labels[0]]
    first, rest = labels[0], labels[1:]
    shapes = []
    for mate in itertools.combinations(rest, len(labels) // 2 - 1):
        other = tuple(x for x in rest if x not in mate)
        for a in balanced_shapes((first, *mate)):
            shapes += [(a, b) for b in balanced_shapes(other)]
    return shapes


class TestExhaustiveSmallCases:
    """Small inputs covered completely, each against independent oracles."""

    def test_every_balanced_8_leaf_pair(self):
        # relabelling preserves MAST, so one S against every balanced T
        # covers every balanced 8-leaf pair
        labels = tuple("01234567")
        s = make_balanced(3, labels)
        shapes = balanced_shapes(labels)
        assert len(shapes) == len({Tree.from_nested(x).canonical_form() for x in shapes}) == 315
        sizes = Counter()
        for shape in shapes:
            t = Tree.from_nested(shape)
            size = mast_dp(s, t).size
            assert size == mast_bruteforce(s, t), shape
            assert_fills_match_naive(s, t, block_leaves=1)
            sizes[size] += 1
        # so every balanced 8-leaf pair has MAST >= 4 > sqrt(8)
        assert sizes == {4: 230, 5: 64, 6: 20, 8: 1}

    def test_every_5_leaf_tree_against_every_shape(self):
        labels = tuple("abcde")
        trees = [Tree.from_nested(x) for x in all_tree_shapes(labels)]
        assert len(trees) == 105
        # the three rooted binary shapes on 5 leaves: splits 4+1 (twice) and 3+2
        shapes = [
            (((("a", "b"), "c"), "d"), "e"),
            ((("a", "b"), ("c", "d")), "e"),
            ((("a", "b"), "c"), ("d", "e")),
        ]
        for shape in map(Tree.from_nested, shapes):
            for t in trees:
                size = mast_dp(shape, t).size
                assert size == mast_bruteforce(shape, t) == naive_mast_size(shape, t)
                assert_fills_match_naive(shape, t)

    def test_every_grid_pair_up_to_2048_leaves(self):
        # the grid pairs whose caterpillars fit (2**(h2 - h1) <= h2 + 1)
        grid = [
            (h1, h2)
            for h2 in range(12)
            for h1 in range(h2)
            if 1 << (h2 - h1) <= h2 + 1 and h1 + h2 <= 11
        ]
        assert len(grid) == 11
        for h1, h2 in grid:
            s, t = build_overlap_pair(h1, h2)
            assert mast_dp(s, t).size == 2 << h1, (h1, h2)
            assert check_upper_bound_lemma(s, t, 1 << h1, 1 << h1).passed, (h1, h2)
