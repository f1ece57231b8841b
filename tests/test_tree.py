"""Core tree model: builders, restriction, canonical forms, caterpillars."""

import itertools
import random

import pytest

from mastforge import Tree, TreeError, make_balanced, make_caterpillar
from mastforge import tree as tree_module

from conftest import (
    CaterpillarEmbedding,
    all_tree_shapes,
    displayed_triple,
    embeddings,
    nested_forms,
    nested_height,
    nested_isomorphic,
    random_tree,
    relabel,
    shuffle_children,
    to_nested,
    traced_peak,
)

TWO_CHILDREN = "internal nodes must have exactly two children, got "


class TestBuilders:
    def test_single_leaf(self):
        t = make_balanced(0, ["x"])
        assert t.size == 1 and t.height == 0 and t.is_balanced()
        assert t.leaf_set() == {"x"}

    def test_balanced_8(self, packed8):
        assert packed8.size == 8
        assert packed8.height == 3
        assert packed8.is_balanced()

    def test_balanced_2048(self):
        t = make_balanced(11, [str(i) for i in range(1, 2049)])
        assert t.size == 2048 and t.height == 11 and t.is_balanced()

    def test_balanced_rejects_wrong_length(self):
        with pytest.raises(TreeError):
            make_balanced(2, ["a", "b", "c"])

    def test_balanced_rejects_duplicates(self):
        with pytest.raises(TreeError, match="duplicate"):
            make_balanced(1, ["a", "a"])

    def test_caterpillar_single(self):
        assert make_caterpillar(["a"]).size == 1

    def test_caterpillar_triple_shape(self):
        t = make_caterpillar(["a", "b", "c"])
        # root joins the cherry {a,b} with c
        assert t.canonical_form() == "((a,b),c)"

    def test_caterpillar_empty_rejected(self):
        with pytest.raises(TreeError):
            make_caterpillar([])

    def test_caterpillar_height_is_n_minus_1(self):
        t = make_caterpillar([str(i) for i in range(1, 9)])
        assert t.height == 7 and t.size == 8 and not t.is_balanced()

    def test_label_charset_enforced(self):
        for bad in ["", "a b", "a,b", "x;", "(y", "z)"]:
            with pytest.raises(TreeError):
                make_caterpillar([bad, "ok"])

    @pytest.mark.parametrize(
        "build,refusal",
        [
            (lambda: Tree.from_nested(("a",)), TWO_CHILDREN + "('a',)"),
            (lambda: Tree.from_nested(("a", "b", "c")), TWO_CHILDREN + "('a', 'b', 'c')"),
            (lambda: Tree.from_nested(["a", "b"]), TWO_CHILDREN + "['a', 'b']"),
            (lambda: make_balanced(-1, []), "height must be non-negative"),
            (lambda: make_balanced(1, [7, "a"]), "leaf label must be text, got int"),
        ],
        ids=["one-child", "three-children", "list", "negative-height", "int-label"],
    )
    def test_malformed_input_refused(self, build, refusal):
        with pytest.raises(TreeError) as exc:
            build()
        assert str(exc.value) == refusal


class TestRestrict:
    def test_packed8_first_caterpillar(self, packed8):
        r = packed8.restrict({"1", "2", "3", "4"})
        assert r.caterpillar_order() == ["1", "2", "3", "4"]

    def test_packed8_second_caterpillar(self, packed8):
        r = packed8.restrict({"5", "6", "7", "8"})
        assert r.caterpillar_order() == ["5", "6", "7", "8"]

    def test_identity_restriction(self, packed8):
        assert packed8.restrict(packed8.leaf_set()).is_isomorphic(packed8)

    def test_empty_rejected(self, packed8):
        with pytest.raises(TreeError):
            packed8.restrict(set())

    def test_foreign_label_rejected(self, packed8):
        with pytest.raises(TreeError, match="not in tree"):
            packed8.restrict({"1", "99"})

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            t = random_tree(rng, [f"l{i}" for i in range(rng.randint(2, 20))])
            labels = sorted(t.leaf_set())
            sub = set(rng.sample(labels, rng.randint(1, len(labels))))
            once = t.restrict(sub)
            assert once.restrict(sub).is_isomorphic(once)

    def test_preserves_triples(self):
        # every 3-subset of the restricted label set displays the same
        # triple before and after restriction
        rng = random.Random(11)
        for _ in range(20):
            t = random_tree(rng, [f"l{i}" for i in range(12)])
            labels = sorted(t.leaf_set())
            sub = rng.sample(labels, 6)
            r = t.restrict(sub)
            for a, b, c in itertools.combinations(sub, 3):
                assert displayed_triple(t, a, b, c) == displayed_triple(r, a, b, c)

    def test_balanced_pendants_are_powers_of_two(self):
        t = make_balanced(4, [str(i) for i in range(16)])
        sizes = set()
        for nid in range(len(t.label)):
            sizes.add(t.subtree(nid).size)
        assert all(s & (s - 1) == 0 for s in sizes)


class TestCanonicalForm:
    def test_single_leaf_token(self):
        assert Tree.from_nested("x").canonical_form() == "x"

    def test_cherry_swap_equal(self):
        assert make_caterpillar(["a", "b", "c"]).is_isomorphic(
            make_caterpillar(["b", "a", "c"])
        )

    def test_different_triples_differ(self):
        # brute-force: the three rooted binary shapes on {a,b,c} fall into
        # exactly three canonical classes, and (a,b,c) vs (a,c,b) differ
        shapes = all_tree_shapes(("a", "b", "c"))
        assert len(shapes) == 3
        forms = {Tree.from_nested(s).canonical_form() for s in shapes}
        assert len(forms) == 3
        assert not make_caterpillar(["a", "b", "c"]).is_isomorphic(
            make_caterpillar(["a", "c", "b"])
        )

    def test_matches_exhaustive_oracle_on_4_labels(self):
        shapes = all_tree_shapes(("a", "b", "c", "d"))
        assert len(shapes) == 15  # (2*4-3)!!
        trees = [Tree.from_nested(s) for s in shapes]
        for (sa, ta), (sb, tb) in itertools.combinations(zip(shapes, trees), 2):
            assert ta.is_isomorphic(tb) == nested_isomorphic(sa, sb)

    def test_anticaterpillars_not_isomorphic(self):
        a = make_caterpillar(["1", "2", "3", "4"])
        b = make_caterpillar(["4", "3", "2", "1"])
        assert not a.is_isomorphic(b)
        # cross-check with the exhaustive oracle
        assert not nested_isomorphic(to_nested(a), to_nested(b))

    def test_invariant_under_child_shuffles(self):
        rng = random.Random(3)
        for _ in range(30):
            t = random_tree(rng, [f"l{i}" for i in range(rng.randint(1, 24))])
            assert shuffle_children(t, rng).canonical_form() == t.canonical_form()

    def test_self_isomorphism(self, packed8):
        assert packed8.is_isomorphic(packed8)

    def test_memory_is_linear_in_depth(self):
        # each child form must be dropped once its parent has joined it, or
        # the peak grows with the square of the depth
        t = make_caterpillar([f"x{i}" for i in range(4000)])
        assert traced_peak(t.canonical_form) < 5_000_000


class TestCaterpillarOrder:
    def test_balanced_4_is_not_a_caterpillar(self):
        t = make_balanced(2, ["1", "2", "3", "4"])
        assert t.caterpillar_order() is None

    def test_triple_order(self):
        assert make_caterpillar(["a", "b", "c"]).caterpillar_order() == ["a", "b", "c"]

    def test_eight_caterpillar(self):
        t = make_caterpillar([str(i) for i in range(1, 9)])
        order = t.caterpillar_order()
        assert order in (
            [str(i) for i in range(1, 9)],
            ["2", "1"] + [str(i) for i in range(3, 9)],
        )

    def test_round_trip_up_to_cherry_swap(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(1, 15)
            labels = [f"x{i}" for i in range(n)]
            rng.shuffle(labels)
            order = make_caterpillar(labels).caterpillar_order()
            assert order is not None
            if n >= 2:
                assert sorted(order[:2]) == sorted(labels[:2])
                assert order[2:] == labels[2:]
            else:
                assert order == labels

    def test_single_node(self):
        assert Tree.from_nested("z").caterpillar_order() == ["z"]


class TestPendantSubtrees:
    def test_depth_slices(self):
        t = make_balanced(11, [str(i) for i in range(1, 2049)])
        subs = t.pendant_subtrees_at_depth(4)
        assert len(subs) == 16
        assert all(sub.size == 128 for sub in subs)
        # left-to-right: consecutive label ranges
        assert subs[0].leaf_set() == {str(i) for i in range(1, 129)}
        assert subs[15].leaf_set() == {str(i) for i in range(1921, 2049)}

    def test_depth_zero_is_whole_tree(self, packed8):
        (only,) = packed8.pendant_subtrees_at_depth(0)
        assert only.is_isomorphic(packed8)

    def test_depth_beyond_height_rejected(self, packed8):
        with pytest.raises(TreeError):
            packed8.pendant_subtrees_at_depth(4)

    def test_unbalanced_rejected(self):
        with pytest.raises(TreeError):
            make_caterpillar(["a", "b", "c"]).pendant_subtrees_at_depth(1)

    @pytest.mark.parametrize("node_id", [-3, -1, 7, 100])
    def test_subtree_refuses_ids_outside_the_tree(self, node_id):
        # a negative id must not index from the end: -3 would give the leaf d
        t = make_balanced(2, list("abcd"))
        with pytest.raises(TreeError, match=rf"node id {node_id} is not in 0\.\.6"):
            t.subtree(node_id)


def nested_restrict(tree: Tree, labels):
    """The nested form of the restriction, folded over the host: an
    independent route to the tuples ``Tree.restrict`` builds directly."""
    wanted = frozenset(labels)
    vals: list = []
    for a, b, lab in zip(tree.left, tree.right, tree.label):
        if a < 0:
            vals.append(lab if lab in wanted else None)
        else:
            va, vb = vals[a], vals[b]
            if va is not None and vb is not None:
                vals.append((va, vb))
            else:
                vals.append(va if va is not None else vb)
    return vals[-1]


def nested_balanced(height: int, labels):
    """The nested form of a balanced tree: an independent route to the
    tuples ``make_balanced`` builds directly."""
    level = list(labels)
    for _ in range(height):
        level = [(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def fields(tree: Tree):
    return tree.left, tree.right, tree.label, tree.height


def nested_fields(nested):
    """What a tree of this nested form holds: the tuples ``Tree.from_nested``
    builds, and the height by the independent walk of ``nested_height``."""
    tree = Tree.from_nested(nested)
    return tree.left, tree.right, tree.label, nested_height(nested)


def deep_hosts():
    labels = [f"l{i}" for i in range(2000)]
    cat = make_caterpillar(labels)
    return cat, shuffle_children(cat, random.Random(2000))


class TestTupleBuilders:
    """``subtree``, ``restrict`` and ``make_balanced`` build tuples directly;
    they must equal what the nested route builds, child order included, and
    the height derived from them must equal the nested form's."""

    def test_balanced_matches_nested_route(self):
        rng = random.Random(63)
        for height in range(12):
            labels = [f"x{i}" for i in range(1 << height)]
            rng.shuffle(labels)
            expected = nested_fields(nested_balanced(height, labels))
            assert fields(make_balanced(height, labels)) == expected

    @pytest.mark.parametrize(
        "labels",
        [
            ["a", "b", "a", "c"],
            ["a", "b", "c", "b"],
            ["a", "b c", "a", "d"],  # an illegal label before a repeat
            ["a", "a", "", "d"],  # a repeat before an illegal label
            ["a", "b", "c", "d;"],
        ],
    )
    def test_balanced_refuses_labels_as_nested_route(self, labels):
        with pytest.raises(TreeError) as nested:
            Tree.from_nested(nested_balanced(2, labels))
        with pytest.raises(TreeError) as direct:
            make_balanced(2, labels)
        assert str(direct.value) == str(nested.value)

    def test_subtree_matches_nested_route_on_random_trees(self):
        rng = random.Random(60)
        for _ in range(40):
            tree = random_tree(rng, [f"x{i}" for i in range(rng.randint(1, 30))])
            forms = nested_forms(tree)
            for v in range(len(tree.label)):
                assert fields(tree.subtree(v)) == nested_fields(forms[v])

    def test_subtree_matches_nested_route_on_deep_caterpillars(self):
        for host in deep_hosts():
            forms = nested_forms(host)
            for v in [*range(0, host.root, 97), host.root]:
                assert fields(host.subtree(v)) == nested_fields(forms[v])

    def test_restrict_matches_nested_route_on_random_trees(self):
        rng = random.Random(61)
        for _ in range(200):
            labels = [f"x{i}" for i in range(rng.randint(1, 30))]
            tree = random_tree(rng, labels)
            kept = rng.sample(labels, rng.randint(1, len(labels)))
            assert fields(tree.restrict(kept)) == nested_fields(nested_restrict(tree, kept))

    def test_restrict_matches_nested_route_on_deep_caterpillars(self):
        rng = random.Random(62)
        for host in deep_hosts():
            labels = sorted(host.leaf_set())
            for k in (1, 2, 16, 1000, 2000):
                kept = rng.sample(labels, k)
                assert fields(host.restrict(kept)) == nested_fields(nested_restrict(host, kept))

    def test_height_is_derived_from_hand_built_tuples(self):
        cat = make_caterpillar([f"l{i}" for i in range(2000)])
        assert Tree(cat.left, cat.right, cat.label).height == 1999

    def test_labels_are_not_revalidated(self, monkeypatch):
        calls = []

        def counting(token):
            calls.append(token)
            return token

        monkeypatch.setattr(tree_module, "validate_label", counting)
        host = make_balanced(6, [str(i) for i in range(64)])
        assert len(calls) == 64  # the builder validates every label once
        calls.clear()
        host.restrict([str(i) for i in range(0, 64, 3)])
        host.pendant_subtrees_at_depth(3)
        assert calls == []


class TestCaterpillarEmbedding:
    def test_valid_embedding(self, packed8):
        emb = CaterpillarEmbedding(packed8, ("1", "2", "3", "4"))
        assert emb.leaves == ("1", "2", "3", "4")

    def test_invalid_sequence_rejected(self, packed8):
        # {1,2,5,6} spans both halves with two leaves each: not a caterpillar
        with pytest.raises(TreeError):
            CaterpillarEmbedding(packed8, ("1", "2", "5", "6"))

    def test_packing_plan_binds_to_host(self, packed8):
        from mastforge import pack_caterpillars

        bound = embeddings(pack_caterpillars(4), packed8)
        assert len(bound) == 2
        covered = {lab for emb in bound for lab in emb.leaves}
        assert covered == packed8.leaf_set()


class TestImmutabilityContract:
    def test_nodes_are_frozen(self, packed8):
        with pytest.raises(Exception):
            packed8.label[0] = "other"

    def test_relabelling_builds_a_new_tree(self, packed8):
        mapping = {lab: f"n{lab}" for lab in packed8.leaf_set()}
        other = relabel(packed8, mapping)
        assert other.leaf_set() == set(mapping.values())
        assert packed8.leaf_set() == set(mapping.keys())
