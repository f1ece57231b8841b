"""Newick parsing and serialization, including the 2048-leaf golden pair."""

import random

import pytest

from mastforge import NewickError, Tree, make_caterpillar, parse, serialize
from mastforge import tree as tree_module
from mastforge.tree import RESERVED_LABEL_CHARS

from conftest import DATA_DIR, nested_height, random_tree, shuffle_children, traced_peak


class TestParse:
    def test_four_leaf_agreement_tree(self):
        t = parse("((6,7),(10,11));")
        assert t.size == 4
        assert t.canonical_form() == "((10,11),(6,7))"

    def test_single_label(self):
        t = parse("x;")
        assert t.size == 1 and t.leaf_set() == {"x"}

    def test_whitespace_tolerated(self):
        t = parse("  ( a ,\n ( b , c ) ) ;\n")
        assert t.leaf_set() == {"a", "b", "c"}

    def test_stored_child_order_preserved(self):
        assert serialize(parse("((b,a),c);")) == "((b,a),c);"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty input"),
            ("   ", "empty input"),
            ("(a,b)", "missing terminal ';'"),
            ("(a,(b,c)", "unclosed"),
            ("(a,(b,c);", "expected ',' or ')'"),
            ("a,b;", "expected ';'"),
            ("(a,b,c);", "multifurcation"),
            ("((a,b),(a,c));", "duplicate leaf label 'a'"),
            ("(a);", "exactly two children"),
            ("a)b;", "unbalanced ')'"),
            ("(a,b); x", "trailing characters"),
            ("(,a);", "expected a leaf label"),
        ],
    )
    def test_malformed_inputs_carry_positions(self, text, fragment):
        with pytest.raises(NewickError) as err:
            parse(text)
        assert fragment in str(err.value)
        assert isinstance(err.value.position, int) and err.value.position >= 0

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("", "empty input", 0),
            (" \t\n\u3000", "empty input", 0),
            ("(", "unexpected end of input with 1 unclosed '('", 1),
            ("((a,", "unexpected end of input with 2 unclosed '('", 4),
            ("((a,b) ", "unexpected end of input with 1 unclosed '('", 7),
            ("(,a);", "expected a leaf label or '(', found ','", 1),
            ("( );", "expected a leaf label or '(', found ')'", 2),
            ("(;", "expected a leaf label or '(', found ';'", 1),
            ("((a,b),(a,c));", "duplicate leaf label 'a'", 8),
            ("(ab,(b,\u3000ab));", "duplicate leaf label 'ab'", 8),
            ("(a,b)", "missing terminal ';'", 5),
            ("a \n", "missing terminal ';'", 3),
            ("a)b;", "unbalanced ')'", 1),
            ("a,b;", "expected ';', found ','", 1),
            ("a(b);", "expected ';', found '('", 1),
            ("a\x1cbc;", "expected ';', found 'b'", 2),
            ("\ufeff(a,b);", "expected ';', found '('", 1),
            ("(a,b); x", "trailing characters after ';'", 7),
            ("a;;", "trailing characters after ';'", 2),
            ("(a,b,c);", "multifurcation: a node may have only two children", 4),
            (
                "(a);",
                "expected ',' before ')': every internal node needs "
                "exactly two children",
                2,
            ),
            ("(a,(b,c);", "expected ',' or ')', found ';'", 8),
            ("(a\u3000bc,d);", "expected ',' or ')', found 'b'", 3),
            ("(a (b,c));", "expected ',' or ')', found '('", 3),
        ],
    )
    def test_every_error_message_and_position(self, text, message, position):
        with pytest.raises(NewickError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_multifurcation_position_points_at_second_comma(self):
        with pytest.raises(NewickError) as err:
            parse("(a,b,c);")
        assert err.value.position == 4

    def test_duplicate_position_points_at_second_occurrence(self):
        with pytest.raises(NewickError) as err:
            parse("((a,b),(a,c));")
        assert err.value.position == 8


class TestSerialize:
    def test_single_leaf(self):
        assert serialize(parse("x;")) == "x;"

    def test_triple_shape(self):
        assert serialize(make_caterpillar(["a", "b", "c"])) == "((a,b),c);"

    def test_round_trip_random_trees(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 256)
            t = random_tree(rng, [f"L{i}" for i in range(n)])
            again = parse(serialize(t))
            assert again.is_isomorphic(t)
            # stored order is preserved, so the text round-trips exactly
            assert serialize(again) == serialize(t)


class TestDeepTrees:
    def test_round_trip_2000_leaf_caterpillar(self):
        # depth far beyond the interpreter recursion limit
        t = make_caterpillar([f"x{i}" for i in range(2000)])
        text = serialize(t)
        assert parse(text).is_isomorphic(t)

    def test_serialize_memory_is_linear_in_depth(self):
        # each subtree's text must be dropped once its parent has joined
        # it, or the peak grows with the square of the depth
        t = make_caterpillar([f"x{i}" for i in range(4000)])
        assert traced_peak(lambda: serialize(t)) < 5_000_000


class TestGoldenPair:
    def test_both_parse_balanced_2048(self, golden_s, golden_t):
        for tree in (golden_s, golden_t):
            assert tree.size == 2048
            assert tree.height == 11
            assert tree.is_balanced()

    def test_label_sets_identical(self, golden_s, golden_t):
        expected = {str(i) for i in range(1, 2049)}
        assert golden_s.leaf_set() == expected
        assert golden_t.leaf_set() == expected

    def test_round_trip_preserves_structure(self, golden_s, golden_t):
        for tree in (golden_s, golden_t):
            assert parse(serialize(tree)).is_isomorphic(tree)


def _oracle_tokens(text: str) -> list[str]:
    """Newick tokens read a character at a time: a delimiter, or a maximal
    run of characters neither reserved nor whitespace."""
    tokens, label = [], ""
    for ch in text:
        if ch in RESERVED_LABEL_CHARS or ch.isspace():
            if label:
                tokens.append(label)
                label = ""
            if not ch.isspace():
                tokens.append(ch)
        else:
            label += ch
    if label:
        tokens.append(label)
    return tokens


def nested_parse(text: str):
    """The nested form of a Newick text, read token by token: an
    independent route to the tuples ``parse`` builds in its one walk."""
    stack: list = [[]]
    for token in _oracle_tokens(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            a, b = stack.pop()
            stack[-1].append((a, b))
        elif token not in ",;":
            stack[-1].append(token)
    return stack[0][0]


def assert_matches_nested_route(text: str):
    got = parse(text)  # a malformed text raises here, before the oracle reads it
    nested = nested_parse(text)
    want = Tree.from_nested(nested)
    assert (got.left, got.right, got.label, got.height) == (
        want.left, want.right, want.label, nested_height(nested)
    )


class TestOneWalk:
    """``parse`` builds the postorder tuples as it reads; the height follows
    from them."""

    @pytest.mark.parametrize("name", ["balanced2048_s.nwk", "balanced2048_t.nwk"])
    def test_golden_trees_match_nested_route(self, name):
        assert_matches_nested_route((DATA_DIR / name).read_text())

    def test_random_trees_match_nested_route(self):
        rng = random.Random(90)
        for _ in range(100):
            t = random_tree(rng, [f"L{i}" for i in range(rng.randint(1, 64))])
            assert_matches_nested_route(serialize(t))
            assert_matches_nested_route(serialize(t).replace(",", " ,\n "))

    def test_deep_caterpillars_match_nested_route(self):
        cat = make_caterpillar([f"x{i}" for i in range(2000)])
        assert_matches_nested_route(serialize(cat))
        assert_matches_nested_route(serialize(shuffle_children(cat, random.Random(2))))

    def test_labels_are_not_revalidated(self, monkeypatch):
        calls = []

        def counting(token):
            calls.append(token)
            return token

        text = serialize(make_caterpillar([f"x{i}" for i in range(64)]))
        monkeypatch.setattr(tree_module, "validate_label", counting)
        assert parse(text).size == 64
        assert calls == []

    def test_random_text_matches_nested_route_or_fails_in_range(self):
        # short texts over delimiters, two label letters and whitespace
        # that is ASCII (tab, newline) or not (\x1c, \x85), plus a label
        # letter outside ASCII; most fail, a few hundred parse
        alphabet = "(),;ab\t\n\x1c\xe9\x85"
        rng = random.Random(20)
        parsed = 0
        for _ in range(20_000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 14)))
            try:
                assert_matches_nested_route(text)
                parsed += 1
            except NewickError as err:
                assert 0 <= err.position <= len(text)
        assert parsed > 100
