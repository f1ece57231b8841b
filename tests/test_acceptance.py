"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single CRITERION line on success so the run log shows
the per-criterion outcome explicitly (pytest -v adds its own PASS/FAIL).
All tolerances are exact integer equalities unless a numeric window is
stated inline.
"""

import random
import time

import pytest

from mastforge import (
    NewickError,
    a_of_n,
    build_counterexample,
    check_case_certificates,
    check_upper_bound_lemma,
    choose_k_for_c,
    counterexample_parameters,
    empirical_probe,
    make_balanced,
    mast_bruteforce,
    mast_dp,
    maximize_beta,
    pack_caterpillars,
    parse,
    serialize,
    verify_counterexample,
)
from mastforge.bounds import ARITHMETIC_SLACK
from mastforge.tree import make_caterpillar

from conftest import overlap_instance, random_overlapping_pair, random_tree


def report(criterion: int, message: str) -> None:
    print(f"CRITERION {criterion}: PASS - {message}")


def test_criterion_1_counterexample_equality():
    started = time.monotonic()
    sizes = {}
    for k, expected_n, expected_mast in [(1, 2, 2), (2, 16, 4), (3, 2048, 32)]:
        pair = build_counterexample(k)
        assert pair.n == expected_n
        result = mast_dp(pair.s, pair.t)
        assert result.size == expected_mast, f"k={k}"
        assert result.size == (1 << ((1 << k) - k))
        sizes[k] = result.size
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"k<=3 pipeline took {elapsed:.1f}s, budget is 30s"
    report(1, f"mast sizes {sizes} on n=2,16,2048 in {elapsed:.1f}s")


def test_criterion_2_golden_fixture(golden_s, golden_t):
    for tree in (golden_s, golden_t):
        assert tree.size == 2048
        assert tree.is_balanced()
    assert golden_s.leaf_set() == golden_t.leaf_set()
    result = mast_dp(golden_s, golden_t)
    assert result.size == 32
    in_s = golden_s.restrict(result.witness_labels)
    in_t = golden_t.restrict(result.witness_labels)
    assert in_s.is_isomorphic(in_t)
    assert in_s.is_isomorphic(result.agreement_tree)
    report(2, "golden 2048-leaf pair parses, mast = 32, witness checks out")


def test_criterion_3_below_sqrt_and_k_choice():
    params = counterexample_parameters(3)
    assert params["expected_mast"] == 32
    assert 32 * 32 < 2048  # 32 < sqrt(2048) ~ 45.25, exactly in integers
    pair = build_counterexample(3)
    verdict = verify_counterexample(pair).record("mast_below_sqrt_n")
    assert verdict.passed
    chosen = {}
    for c in (1.0, 0.5, 0.25):
        k = choose_k_for_c(c)
        assert 2.0 ** (-k / 2 + 1) < c, f"guard fails for c={c}"
        chosen[c] = k
    assert chosen == {1.0: 3, 0.5: 5, 0.25: 7}
    report(3, f"32 < sqrt(2048); chosen k per c: {chosen}")


def test_criterion_4_anticaterpillar_law():
    for n in range(2, 65):
        labels = [str(i) for i in range(1, n + 1)]
        a, b = make_caterpillar(labels), make_caterpillar(labels[::-1])
        size = mast_dp(a, b).size
        assert size == 2, f"n={n}: expected 2, got {size}"
    report(4, "mast of anti-caterpillar pairs is exactly 2 for n = 2..64")


def test_criterion_5_packing_counts():
    published = [1, 1, 1, 2, 2, 4, 8, 16, 16, 32, 64, 128, 256, 512, 1024, 2048, 2048, 4096]
    assert [a_of_n(n) for n in range(1, 19)] == published
    for n in range(1, 11):
        plan = pack_caterpillars(n)
        assert plan.count == a_of_n(n), f"n={n}"
        positions = [p for cat in plan.caterpillars for p in cat]
        assert len(positions) == len(set(positions)), f"n={n}: overlap"
        # realization checked via the restrict oracle on a labelled host
        host = make_balanced(n - 1, [f"p{i}" for i in range(1 << (n - 1))])
        for cat in plan.caterpillars:
            labels = [f"p{p}" for p in cat]
            assert host.restrict(labels).is_isomorphic(make_caterpillar(labels))
    for k in range(1, 5):
        plan = pack_caterpillars(1 << k)
        assert not plan.unused_positions, f"k={k}"
        covered = {p for cat in plan.caterpillars for p in cat}
        assert covered == set(range(1 << ((1 << k) - 1))), f"k={k}"
    report(5, "a(n) table, packings for n=1..10, perfect coverage for k=1..4")


def test_criterion_6_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(161803)
    checked = 0
    for _ in range(200):
        s, t, _ = random_overlapping_pair(rng, max_common=10)
        assert mast_dp(s, t).size == mast_bruteforce(s, t)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 200
    assert elapsed < 120, f"oracle run took {elapsed:.1f}s, budget is 120s"
    report(6, f"200/200 random pairs agree with the oracle in {elapsed:.1f}s")


def test_criterion_7_upper_bound_lemma():
    for k in (2, 3):
        pair = build_counterexample(k)
        side = 1 << ((1 << k) - k - 1)
        outcome = check_upper_bound_lemma(pair.s, pair.t, side, side)
        assert outcome.passed, outcome.to_json()
    instances = 0
    for h2 in (2, 3, 4):
        for p in (1, 2, 4):
            for q in (1, 2, 4):
                s, t = overlap_instance(2, h2, p, q)
                outcome = check_upper_bound_lemma(s, t, p, q)
                assert outcome.passed, (h2, p, q, outcome.to_json())
                instances += 1
    assert instances >= 20
    report(7, f"bound holds on k=2,3 constructions and {instances} grid instances")


def test_criterion_8_bounds_certification():
    delta_star, beta_star = maximize_beta()
    assert abs(beta_star - 0.149) <= 0.001
    certificates = check_case_certificates()
    assert certificates.passed, certificates.to_json()
    for name in ("cases_i_ii_margin", "case_iii_margin", "cases_iv_v_margin"):
        assert certificates.record(name).observed > ARITHMETIC_SLACK
    thin = certificates.record("cases_iv_v_margin").observed
    assert thin == pytest.approx(6e-4, abs=1e-4)
    assert thin > ARITHMETIC_SLACK
    floors = []
    for m in range(1, 9):
        outcome = empirical_probe(m, trials=100, seed=90 + m)
        assert outcome.all_above, f"m={m}"
        assert outcome.min_mast >= outcome.bound
        floors.append((1 << m, outcome.min_mast))
    report(
        8,
        f"beta* = {beta_star:.4f}, margins clear slack, probe floors {floors}",
    )


def test_criterion_9_parser_robustness():
    rng = random.Random(271828)
    for i in range(1000):
        n = rng.randint(1, 256)
        t = random_tree(rng, [f"L{j}" for j in range(n)])
        assert parse(serialize(t)).is_isomorphic(t), f"round-trip {i}"
    for text in ("(a,b,c);", "((a,b),(a,c));", "(a,b)"):
        with pytest.raises(NewickError) as err:
            parse(text)
        assert isinstance(err.value.position, int)
        assert "position" in str(err.value)
    report(9, "1000 round-trips and position-bearing rejections")
