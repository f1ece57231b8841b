"""Packing counts, label grids, the counterexample family, and verifiers."""

import hashlib
import itertools
import json
import math

import mpmath
import pytest

from mastforge import (
    CounterexamplePair,
    LabelGrid,
    PackingError,
    Tree,
    TreeError,
    a_of_n,
    build_counterexample,
    build_overlap_pair,
    check_upper_bound_lemma,
    choose_k_for_c,
    counterexample_parameters,
    is_anticaterpillar_pair,
    make_balanced,
    make_caterpillar,
    mast_dp,
    pack_caterpillars,
    serialize,
    verify_counterexample,
)

from conftest import all_tree_shapes, overlap_instance, relabel

PUBLISHED_A = [1, 1, 1, 2, 2, 4, 8, 16, 16, 32, 64, 128, 256, 512, 1024, 2048, 2048, 4096]


class TestCountingSequence:
    def test_first_18_terms(self):
        assert [a_of_n(n) for n in range(1, 19)] == PUBLISHED_A

    def test_stutter_at_powers_of_two(self):
        assert a_of_n(16) == a_of_n(17) == 2048
        assert a_of_n(8) == a_of_n(9) == 16
        for m in range(1, 10):
            assert a_of_n(1 << m) == a_of_n((1 << m) + 1)

    def test_integer_formula_matches_float_floor(self):
        # high-precision cross-check of floor(n - log2(n) - 1)
        with mpmath.workdps(60):
            for n in range(1, 1000):
                exponent = int(mpmath.floor(n - mpmath.log(n, 2) - 1))
                assert a_of_n(n) == 2 ** exponent, n

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            a_of_n(0)


def grid_row(g, i: int) -> set[int]:
    return {x for j in range(1, (1 << g.h1) + 1) for x in g.block(i, j)}


def grid_column(g, j: int) -> set[int]:
    return {x for i in range(1, (1 << g.h1) + 1) for x in g.block(i, j)}


def has_block(g, i: int, j: int) -> bool:
    try:
        g.block(i, j)
    except KeyError:
        return False
    return True


class TestLabelGrid:
    def test_degenerate(self):
        g = LabelGrid(0, 0)
        assert g.block(1, 1) == (1,)

    def test_h1_1_h2_2(self):
        g = LabelGrid(1, 2)
        assert g.block(1, 1) == (1, 2)
        assert g.block(1, 2) == (3, 4)
        assert g.block(2, 1) == (5, 6)
        assert g.block(2, 2) == (7, 8)
        assert grid_row(g, 1) == {1, 2, 3, 4}
        assert grid_column(g, 1) == {1, 2, 5, 6}

    def test_h1_4_h2_7(self):
        g = LabelGrid(4, 7)
        assert sum(has_block(g, i, j) for i in range(18) for j in range(18)) == 256
        assert g.block_size == 8
        for i in range(1, 17):
            for j in range(1, 17):
                assert grid_row(g, i) & grid_column(g, j) == set(g.block(i, j))
                assert len(g.block(i, j)) == 8

    def test_rows_and_columns_have_2_pow_h2_labels(self):
        for h1, h2 in [(0, 3), (1, 3), (2, 2), (2, 5)]:
            g = LabelGrid(h1, h2)
            side = range(1, (1 << h1) + 1)
            for i in side:
                assert len(grid_row(g, i)) == 1 << h2
                assert len(grid_column(g, i)) == 1 << h2
            # the blocks partition the label universe 1..2**(h1+h2)
            labels = sorted(x for i in side for j in side for x in g.block(i, j))
            assert labels == list(range(1, (1 << (h1 + h2)) + 1))

    def test_rejects_h1_above_h2(self):
        with pytest.raises(ValueError):
            LabelGrid(3, 2)


def positional_host(height: int) -> Tree:
    return make_balanced(height, [f"p{i}" for i in range(1 << height)])


class TestPacking:
    def test_single_leaf(self):
        plan = pack_caterpillars(1)
        assert plan.caterpillars == ((0,),)
        assert not plan.unused_positions

    def test_n4_perfect(self):
        plan = pack_caterpillars(4)
        assert plan.count == 2
        assert not plan.unused_positions

    def test_n8_sixteen_disjoint(self):
        plan = pack_caterpillars(8)
        assert plan.count == 16
        assert not plan.unused_positions
        assert {p for cat in plan.caterpillars for p in cat} == set(range(128))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_disjointness_and_realization(self, n):
        plan = pack_caterpillars(n)
        assert plan.count == a_of_n(n)
        host = positional_host(n - 1)
        seen = set()
        for cat in plan.caterpillars:
            assert len(cat) == n
            assert not (set(cat) & seen)
            seen.update(cat)
            # oracle: restrict a positionally labelled host and compare
            labels = [f"p{p}" for p in cat]
            restricted = host.restrict(labels)
            assert restricted.is_isomorphic(make_caterpillar(labels))
        assert seen | plan.unused_positions == set(range(1 << (n - 1)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_perfect_packing_partitions_all_leaves(self, k):
        size = 1 << k
        plan = pack_caterpillars(size)
        assert plan.count == 1 << (size - k - 1)
        assert not plan.unused_positions
        positions = [p for cat in plan.caterpillars for p in cat]
        assert len(positions) == len(set(positions)) == 1 << (size - 1)
        assert all(len(cat) == size for cat in plan.caterpillars)

    def test_oversized_n_refused(self):
        from mastforge.construct import MAX_PACK_N

        with pytest.raises(ValueError, match=f"up to n={MAX_PACK_N}"):
            pack_caterpillars(MAX_PACK_N + 1)

    def test_plan_rejects_non_caterpillar_sequence(self):
        from mastforge import PackingPlan

        # 0 and 3 branch at the root, then 2 joins below: wrong order
        with pytest.raises(PackingError):
            PackingPlan(2, ((0, 3, 2),), frozenset({1}))


class TestAnticaterpillars:
    def test_pair_is_reversed(self):
        labels = [str(i) for i in range(1, 9)]
        a, b = make_caterpillar(labels), make_caterpillar(labels[::-1])
        assert a.caterpillar_order() == [str(i) for i in range(1, 9)]
        # b's deepest cherry is {8,7}; normalization lists it ascending
        assert b.caterpillar_order() == ["7", "8", "6", "5", "4", "3", "2", "1"]
        assert is_anticaterpillar_pair(a, b)

    def test_mast_is_two(self):
        a, b = make_caterpillar(list("abcdefgh")), make_caterpillar(list("hgfedcba"))
        assert mast_dp(a, b).size == 2

    def test_two_leaves_degenerate(self):
        a, b = make_caterpillar(["x", "y"]), make_caterpillar(["y", "x"])
        assert a.is_isomorphic(b)
        assert is_anticaterpillar_pair(a, b)
        assert mast_dp(a, b).size == 2

    def test_detector_rejects_same_direction(self):
        a = make_caterpillar(["1", "2", "3", "4", "5"])
        assert not is_anticaterpillar_pair(a, a)

    def test_detector_rejects_non_caterpillar(self):
        a = make_caterpillar(["1", "2", "3", "4"])
        b = make_balanced(2, ["4", "3", "2", "1"])
        assert not is_anticaterpillar_pair(a, b)

    def test_detector_matches_permutation_oracle(self):
        # every tree on 1-5 labels from two overlapping label sets, each
        # ordered pair against the canonical forms of all pairs
        # (caterpillar(pi), caterpillar(reversed pi))
        label_sets = [labels[:n] for labels in ("12345", "54321") for n in range(1, 6)]
        trees = [
            Tree.from_nested(shape)
            for labels in label_sets
            for shape in all_tree_shapes(tuple(labels))
        ]
        assert len(trees) == 250
        oracle = {
            (make_caterpillar(pi).canonical_form(),
             make_caterpillar(pi[::-1]).canonical_form())
            for labels in label_sets
            for pi in itertools.permutations(labels)
        }
        forms = [tree.canonical_form() for tree in trees]
        for a, form_a in zip(trees, forms):
            for b, form_b in zip(trees, forms):
                assert is_anticaterpillar_pair(a, b) == ((form_a, form_b) in oracle), (
                    form_a, form_b,
                )


K2_OVERLAP = (
    "pairwise_overlap", "every one of 4 subtree pairs shares 4 labels",
    "overlap sizes seen: [4]", True,
)
K2_PARTITIONS = "all 4 pendant subtrees perfectly packed by 4-caterpillars"
K2_ANTI = "all 4 restricted pairs are anti-caterpillars"

# case: (k, the two labels swapped in the first tree or None, the records
# of the report as (check, expected, observed, pass))
PINNED_REPORTS = {
    "k1": (1, None, [
        ("pairwise_overlap", "every one of 1 subtree pairs shares 2 labels",
         "overlap sizes seen: [2]", True),
        ("caterpillar_partitions", "all 2 pendant subtrees perfectly packed by 2-caterpillars",
         "1/1 on the first side, 1/1 on the second", True),
        ("anticaterpillar_restrictions", "all 1 restricted pairs are anti-caterpillars",
         "1/1 pairs", True),
        ("mast_size", 2, 2, True),
    ]),
    "k2": (2, None, [
        K2_OVERLAP,
        ("caterpillar_partitions", K2_PARTITIONS, "2/2 on the first side, 2/2 on the second", True),
        ("anticaterpillar_restrictions", K2_ANTI, "4/4 pairs", True),
        ("mast_size", 4, 4, True),
    ]),
    "k3": (3, None, [
        ("pairwise_overlap", "every one of 256 subtree pairs shares 8 labels",
         "overlap sizes seen: [8]", True),
        ("caterpillar_partitions", "all 32 pendant subtrees perfectly packed by 8-caterpillars",
         "16/16 on the first side, 16/16 on the second", True),
        ("anticaterpillar_restrictions", "all 256 restricted pairs are anti-caterpillars",
         "256/256 pairs", True),
        ("mast_size", 32, 32, True),
        ("mast_below_sqrt_n", "mast < sqrt(2048) ~ 45.25", 32, True),
    ]),
    # 1 and 3 share the block {1, 2, 3, 4} of the first subtree
    "k2_swap_inside_a_block": (2, ("1", "3"), [
        K2_OVERLAP,
        ("caterpillar_partitions", K2_PARTITIONS, "2/2 on the first side, 2/2 on the second", True),
        ("anticaterpillar_restrictions", K2_ANTI, "3/4 pairs", False),
        ("mast_size", 4, 5, False),
    ]),
    # 1 and 5 lie in the two blocks of the first subtree
    "k2_swap_across_blocks": (2, ("1", "5"), [
        K2_OVERLAP,
        ("caterpillar_partitions", K2_PARTITIONS, "1/2 on the first side, 2/2 on the second", False),
        ("anticaterpillar_restrictions", K2_ANTI, "2/4 pairs", False),
        ("mast_size", 4, 5, False),
    ]),
    # 1 and 9 lie in the two subtrees
    "k2_swap_across_subtrees": (2, ("1", "9"), [
        K2_OVERLAP,
        ("caterpillar_partitions", K2_PARTITIONS, "2/2 on the first side, 1/2 on the second", False),
        ("anticaterpillar_restrictions", K2_ANTI, "2/4 pairs", False),
        ("mast_size", 4, 6, False),
    ]),
}


class TestCounterexample:
    def test_parameters(self):
        assert counterexample_parameters(1) == {
            "k": 1, "h1": 0, "h2": 1, "n": 2, "expected_mast": 2,
        }
        assert counterexample_parameters(3)["n"] == 2048
        assert counterexample_parameters(3)["expected_mast"] == 32

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pair_sizes_are_the_closed_forms(self, k):
        pair = build_counterexample(k)
        params = counterexample_parameters(k)
        assert (pair.n, pair.expected_mast) == (params["n"], params["expected_mast"])

    def test_pair_refuses_trees_of_the_wrong_size_for_k(self):
        small = build_counterexample(2)
        with pytest.raises(TreeError, match="2048"):
            CounterexamplePair(3, small.s, small.t)

    def test_k1_pair_of_cherries(self):
        pair = build_counterexample(1)
        assert pair.n == 2 and pair.expected_mast == 2
        assert pair.s.is_isomorphic(pair.t)
        assert mast_dp(pair.s, pair.t).size == 2

    def test_k2_sixteen_leaves(self):
        pair = build_counterexample(2)
        assert pair.n == 16
        assert pair.s.leaf_set() == {str(i) for i in range(1, 17)}
        assert mast_dp(pair.s, pair.t).size == 4

    def test_k2_report_passes(self):
        report = verify_counterexample(build_counterexample(2))
        assert report.passed, report.to_json()
        with pytest.raises(KeyError):
            report.record("nope")
        assert report.record("mast_size").observed == 4

    def test_k2_quoted_witnesses_are_agreements(self):
        # two known size-4 agreement subtrees of a 16-leaf instance with
        # these parameters: ((6,7),(10,11)) and ((5,6),(10,12))
        pair = build_counterexample(2)
        for quad in ({"6", "7", "10", "11"}, {"5", "6", "10", "12"}):
            a = pair.s.restrict(quad)
            b = pair.t.restrict(quad)
            assert a.is_isomorphic(b)
            assert a.size == 4

    def test_k3_full_verification(self):
        pair = build_counterexample(3)
        assert pair.n == 2048
        assert pair.s.leaf_set() == {str(i) for i in range(1, 2049)}
        report = verify_counterexample(pair)
        assert report.passed, report.to_json()
        assert report.record("mast_size").observed == 32
        assert report.record("mast_below_sqrt_n").passed

    def test_k2_label_placement_is_pinned(self):
        pair = build_counterexample(2)
        assert serialize(pair.s) == (
            "((((1,2),(3,8)),((5,6),(7,4))),(((9,10),(11,16)),((13,14),(15,12))));"
        )
        assert serialize(pair.t) == (
            "((((4,3),(2,9)),((12,11),(10,1))),(((8,7),(6,13)),((16,15),(14,5))));"
        )

    def test_k3_label_placement_is_pinned(self):
        pair = build_counterexample(3)
        digests = [
            hashlib.sha256(serialize(tree).encode()).hexdigest()
            for tree in (pair.s, pair.t)
        ]
        assert digests == [
            "508f8872584aa003de48a1a99074c2814a3e98c4bc77dc1fcad8fe8f28b20a63",
            "7e939dbccd7d14e0753f894660b5fe7e9c4ef9cc88557732fa8ca0d7b7e6ea56",
        ]

    def test_relabelling_invariance(self):
        pair = build_counterexample(2)
        labels = sorted(pair.s.leaf_set(), key=int)
        shuffled = labels[1:] + labels[:1]
        mapping = dict(zip(labels, shuffled))
        assert (
            mast_dp(relabel(pair.s, mapping), relabel(pair.t, mapping)).size
            == pair.expected_mast
        )

    def test_verify_restricts_each_block_once_per_side(self, monkeypatch):
        # k=2 has 4 block pairs, each restricted once in both trees, plus
        # the 2 restrictions of the witness check inside mast_dp
        pair = build_counterexample(2)
        calls = []
        original = Tree.restrict

        def counting(self, labels):
            calls.append(self)
            return original(self, labels)

        monkeypatch.setattr(Tree, "restrict", counting)
        assert verify_counterexample(pair).passed
        assert len(calls) == 10

    def test_corrupted_pair_detected(self):
        pair = build_counterexample(2)
        # swap two labels inside the first tree only
        mapping = {lab: lab for lab in pair.s.leaf_set()}
        mapping["1"], mapping["5"] = "5", "1"
        corrupted = CounterexamplePair(pair.k, relabel(pair.s, mapping), pair.t)
        report = verify_counterexample(corrupted)
        assert not report.passed
        assert any(not rec.passed for rec in report.checks), "at least one check must fail"

    @pytest.mark.parametrize("case", PINNED_REPORTS)
    def test_report_is_pinned(self, case):
        k, swap, records = PINNED_REPORTS[case]
        pair = build_counterexample(k)
        if swap:
            a, b = swap
            mapping = {lab: lab for lab in pair.s.leaf_set()} | {a: b, b: a}
            pair = CounterexamplePair(k, relabel(pair.s, mapping), pair.t)
        checks = [dict(zip(("check", "expected", "observed", "pass"), r)) for r in records]
        expected = {"pass": all(c["pass"] for c in checks), "checks": checks}
        assert verify_counterexample(pair).to_json() == json.dumps(expected, indent=2)

    @pytest.mark.parametrize("k", [4, 13, 40])
    def test_pair_refuses_large_k_before_computing_n(self, k, monkeypatch):
        # n is a 2**(k+1)-bit number: past k=12 it cannot even be printed
        import mastforge.construct as construct_mod

        small = build_counterexample(1)

        def forbidden(k):
            raise AssertionError(f"counterexample_parameters({k}) was called")

        monkeypatch.setattr(construct_mod, "counterexample_parameters", forbidden)
        refusal = (
            rf"^k={k} would need 2\*\*\(2\*\*{k + 1} - {k + 2}\) leaves per tree; "
            r"trees are only materialized up to k=3 "
            r"\(use counterexample_parameters for the closed forms\)$"
        )
        with pytest.raises(ValueError, match=refusal):
            CounterexamplePair(k, small.s, small.t)

    def test_large_k_rejected_with_guidance(self):
        with pytest.raises(ValueError, match="counterexample_parameters"):
            build_counterexample(4)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            build_counterexample(0)


class TestChooseK:
    def test_c_1_gives_3(self):
        assert choose_k_for_c(1.0) == 3

    def test_c_2_gives_1(self):
        assert choose_k_for_c(2.0) == 1

    def test_c_quarter_gives_7(self):
        assert choose_k_for_c(0.25) == 7

    def test_guard_inequality_holds(self):
        for c in (1.0, 0.5, 0.25, 0.1, 3.0):
            k = choose_k_for_c(c)
            assert 2.0 ** (-k / 2 + 1) < c
            assert k == 1 or not 2.0 ** (-(k - 1) / 2 + 1) < c or k - 1 < 1

    def test_minimality(self):
        # the returned k is the smallest integer strictly above the bound
        for c in (1.0, 0.7, 0.5, 0.33, 0.25):
            k = choose_k_for_c(c)
            bound = 2 * math.log2(1 / c) + 2
            assert k > bound
            assert k - 1 <= bound or k == 1

    def test_rejects_non_positive(self):
        for c in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="c must be"):
                choose_k_for_c(c)


def _k2_inputs(swap=None):
    """The k=2 pair, with two labels of the first tree swapped if given."""
    pair = build_counterexample(2)
    if swap is None:
        return pair.s, pair.t
    a, b = swap
    mapping = {lab: lab for lab in pair.s.leaf_set()} | {a: b, b: a}
    return relabel(pair.s, mapping), pair.t


def _self_inputs():
    """A grid tree against itself: its subtree pairs overlap in 4 or 0 labels."""
    s, _ = build_overlap_pair(1, 2)
    return s, s


LEMMA_SHAPE = "balanced trees split into p and q equal subtrees of shared size >= 2"
LEMMA_OVERLAP = "one common overlap size r >= 1 for all subtree pairs"
LEMMA_NOT_ASSERTED = ("mast_bound", "not asserted: hypotheses failed", None, False)

# case: (inputs, p, q, the records of the report as (check, expected,
# observed, pass)); one case per way out of the lemma check
PINNED_LEMMA_REPORTS = {
    "shape_refused": (_k2_inputs, 3, 2, [
        ("pendant_decomposition", LEMMA_SHAPE, "subtree sizes 16/3 and 16/2", False),
        LEMMA_NOT_ASSERTED,
    ]),
    "unequal_overlaps": (_self_inputs, 2, 2, [
        ("pendant_decomposition", LEMMA_SHAPE, "subtree sizes 8/2 and 8/2", True),
        ("equal_positive_overlaps", LEMMA_OVERLAP, "overlap sizes seen: [0, 4]", False),
        LEMMA_NOT_ASSERTED,
    ]),
    # 1 and 3 share the block {1, 2, 3, 4} of the first subtree
    "not_anticaterpillars": (lambda: _k2_inputs(("1", "3")), 2, 2, [
        ("pendant_decomposition", LEMMA_SHAPE, "subtree sizes 16/2 and 16/2", True),
        ("equal_positive_overlaps", LEMMA_OVERLAP, "overlap sizes seen: [4]", True),
        ("anticaterpillar_restrictions", K2_ANTI, "3/4 pairs", False),
        LEMMA_NOT_ASSERTED,
    ]),
    "bound_holds": (_k2_inputs, 2, 2, [
        ("pendant_decomposition", LEMMA_SHAPE, "subtree sizes 16/2 and 16/2", True),
        ("equal_positive_overlaps", LEMMA_OVERLAP, "overlap sizes seen: [4]", True),
        ("anticaterpillar_restrictions", K2_ANTI, "4/4 pairs", True),
        ("mast_bound", "<= 4", 4, True),
    ]),
}


class TestUpperBoundLemma:
    @pytest.mark.parametrize("case", PINNED_LEMMA_REPORTS)
    def test_report_is_pinned(self, case):
        inputs, p, q, records = PINNED_LEMMA_REPORTS[case]
        s, t = inputs()
        checks = [dict(zip(("check", "expected", "observed", "pass"), r)) for r in records]
        expected = {"pass": all(c["pass"] for c in checks), "checks": checks}
        assert check_upper_bound_lemma(s, t, p, q).to_json() == json.dumps(expected, indent=2)

    def test_k2_construction(self):
        pair = build_counterexample(2)
        report = check_upper_bound_lemma(pair.s, pair.t, 2, 2)
        assert report.passed, report.to_json()
        assert report.record("mast_bound").observed == 4

    def test_k3_construction_is_tight(self):
        pair = build_counterexample(3)
        report = check_upper_bound_lemma(pair.s, pair.t, 16, 16)
        assert report.passed, report.to_json()
        assert report.record("mast_bound").observed == 32  # equals 2*max(p,q)

    def test_cherry_pair(self):
        a, b = make_caterpillar(["1", "2"]), make_caterpillar(["2", "1"])
        report = check_upper_bound_lemma(a, b, 1, 1)
        assert report.passed, report.to_json()
        assert report.record("mast_bound").observed == 2

    def test_asymmetric_slice_p1_q4(self):
        s, t = overlap_instance(2, 4, 1, 4)
        assert s.size == 16 and t.size == 64
        report = check_upper_bound_lemma(s, t, 1, 4)
        assert report.passed, report.to_json()
        assert report.record("mast_bound").observed <= 8

    @pytest.mark.parametrize("h2", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_grid_slices(self, h2, p, q):
        s, t = overlap_instance(2, h2, p, q)
        report = check_upper_bound_lemma(s, t, p, q)
        assert report.passed, report.to_json()

    def test_hypothesis_violation_reported_not_asserted(self):
        # reversing one block of T makes that restriction same-direction,
        # violating the anti-caterpillar hypothesis
        s, t = build_overlap_pair(1, 3)
        mapping = {lab: lab for lab in t.leaf_set()}
        mapping.update({"1": "4", "4": "1", "2": "3", "3": "2"})
        report = check_upper_bound_lemma(s, relabel(t, mapping), 2, 2)
        assert not report.passed
        assert not report.record("anticaterpillar_restrictions").passed
        assert report.record("mast_bound").observed is None

    def test_unequal_overlaps_fail_hypotheses(self):
        s, _ = build_overlap_pair(1, 2)
        report = check_upper_bound_lemma(s, s, 2, 2)
        assert not report.passed
        assert not report.record("equal_positive_overlaps").passed
        assert report.record("mast_bound").observed is None

    def test_unbalanced_inputs_fail_hypotheses(self):
        s = make_caterpillar(["1", "2", "3"])
        t = make_caterpillar(["3", "2", "1"])
        report = check_upper_bound_lemma(s, t, 1, 1)
        assert not report.passed


class TestOverlapPairs:
    @pytest.mark.parametrize("h1,h2", [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 3)])
    def test_grid_properties_hold(self, h1, h2):
        s, t = build_overlap_pair(h1, h2)
        r = 1 << (h2 - h1)
        s_subs = s.pendant_subtrees_at_depth(h1)
        t_subs = t.pendant_subtrees_at_depth(h1)
        for i, ssub in enumerate(s_subs):
            for j, tsub in enumerate(t_subs):
                block = ssub.leaf_set() & tsub.leaf_set()
                assert len(block) == r, (i, j)
                assert is_anticaterpillar_pair(
                    ssub.restrict(block), tsub.restrict(block)
                ), (i, j)

    def test_infeasible_geometry_rejected(self):
        # caterpillars of size 8 cannot fit a host of height 4
        with pytest.raises(ValueError):
            build_overlap_pair(1, 4)

    @pytest.mark.parametrize(
        "p,refusal",
        [
            (3, "^p must be a positive power of two, got 3$"),
            (8, "^p=8 exceeds the 4 available subtrees$"),
        ],
    )
    def test_slice_refuses_unavailable_counts(self, p, refusal):
        with pytest.raises(ValueError, match=refusal):
            overlap_instance(2, 4, p, 1)
