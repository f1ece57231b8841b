"""Numeric bound machinery: beta profile, case certificates, floor probes."""

import math

import mpmath
import pytest

from mastforge import (
    beta_of_delta,
    check_case_certificates,
    counterexample_parameters,
    empirical_probe,
    lower_bound,
    maximize_beta,
    sixth_root,
)
from mastforge.bounds import ARITHMETIC_SLACK, DELTA_MAX, HEIGHT_COEFF, LOG_T_COEFF


class TestBetaFormula:
    def test_vanishes_toward_upper_endpoint(self):
        # 1 - 3*delta -> 1/sqrt(2), so the numerator 1 + 2*log2(1-3d) -> 0
        for eps in (1e-6, 1e-9, 1e-12):
            assert abs(beta_of_delta(DELTA_MAX - eps)) < 1e-4

    def test_vanishes_toward_zero(self):
        assert beta_of_delta(1e-12) < 0.03

    def test_against_high_precision_evaluation(self):
        with mpmath.workdps(60):
            for delta in (0.01, 0.02, 0.05, 0.08, 0.095):
                d = mpmath.mpf(str(delta))
                expected = (1 + 2 * mpmath.log(1 - 3 * d, 2)) / (
                    mpmath.log(1 - 3 * d, 2) - mpmath.log(d, 2)
                )
                assert abs(beta_of_delta(delta) - float(expected)) < 1e-13

    def test_domain_enforced(self):
        for bad in (0.0, -0.1, DELTA_MAX, 0.5):
            with pytest.raises(ValueError):
                beta_of_delta(bad)


class TestMaximizeBeta:
    def test_maximum_rounds_to_0_149(self):
        delta_star, beta_star = maximize_beta()
        assert 0.1485 <= beta_star <= 0.1495
        assert abs(beta_star - 0.149) <= 0.001
        assert beta_of_delta(delta_star) == beta_star

    def test_strictly_below_improved_exponent(self):
        _, beta_star = maximize_beta()
        assert beta_star < 0.17


class TestCaseCertificates:
    def test_all_pass(self):
        report = check_case_certificates()
        assert report.passed, report.to_json()

    def test_margins_positive_and_above_slack(self):
        report = check_case_certificates()
        for name in ("cases_i_ii_margin", "case_iii_margin", "cases_iv_v_margin"):
            margin = report.record(name).observed
            assert margin > ARITHMETIC_SLACK

    def test_known_margin_values(self):
        report = check_case_certificates()
        assert report.record("cases_i_ii_margin").observed == pytest.approx(
            1 + 0.22 * math.log2(0.037) + 0.05, abs=1e-12
        )
        assert report.record("cases_i_ii_margin").observed == pytest.approx(
            3.6e-3, abs=2e-4
        )
        assert report.record("case_iii_margin").observed == pytest.approx(
            1.27e-2, abs=2e-4
        )
        # the thin one, roughly 6e-4, still far above the 2**-40 slack
        thin = report.record("cases_iv_v_margin").observed
        assert thin == pytest.approx(6e-4, abs=1e-4)
        assert thin > 5e8 * ARITHMETIC_SLACK

    def test_report_is_pinned(self):
        report = check_case_certificates()
        slack = f" > slack {ARITHMETIC_SLACK:.3e}"
        assert [(rec.check, rec.expected, rec.passed) for rec in report.checks] == [
            ("cases_i_ii_margin", "1 + 0.22*log2(0.037) + 0.05" + slack, True),
            ("case_iii_margin", "0.22*log2(0.889) + 0.05" + slack, True),
            ("cases_iv_v_margin", "0.22*log2(0.926) + 0.025" + slack, True),
            (
                "case_exhaustion_complements",
                "1 - 3*0.037 = 0.889 and 1 - 2*0.037 = 0.926 exactly",
                True,
            ),
            (
                "pigeonhole_quarter",
                "largest of four overlap parts is at least t/4",
                True,
            ),
        ]

    def test_exact_complements(self):
        report = check_case_certificates()
        assert report.record("case_exhaustion_complements").passed
        assert report.record("pigeonhole_quarter").passed


class TestLowerBound:
    def test_n1(self):
        assert lower_bound(1) == 1.0

    def test_n2048(self):
        value = lower_bound(2048)
        assert value == pytest.approx(2 ** (11 * 0.17), rel=1e-12)
        assert value == pytest.approx(3.66, abs=0.01)
        # the k=3 extremal pair sits far above the floor
        assert 32 >= value

    def test_exponent_identity(self):
        # 2**(0.22*log2(n) - 0.025*2*log2(n)) = n**0.17
        assert LOG_T_COEFF == 0.22 and HEIGHT_COEFF == 0.025
        for m in range(1, 20):
            n = 1 << m
            gap = 2.0 ** (0.22 * m - 0.05 * m)
            assert gap == pytest.approx(lower_bound(n), rel=1e-12)

    def test_strictly_above_sixth_root(self):
        for n in (2, 10, 1000, 10**9):
            assert lower_bound(n) > sixth_root(n)

    def test_rejects_non_positive(self):
        for floor in (lower_bound, sixth_root):
            with pytest.raises(ValueError, match="^n must be positive, got 0$"):
                floor(0)

    def test_family_between_floor_and_sqrt(self):
        # floor <= extremal mast < sqrt(n), on closed forms for k = 3..6
        for k in range(3, 7):
            params = counterexample_parameters(k)
            mast_log = math.log2(params["expected_mast"])
            n_log = math.log2(params["n"])
            assert 0.17 * n_log <= mast_log < 0.5 * n_log


class TestProbe:
    def test_two_leaf_trees_agree_fully(self):
        result = empirical_probe(1, trials=5, seed=7)
        assert result.min_mast == 2
        assert result.all_above

    def test_seeded_probe_m4(self):
        result = empirical_probe(4, trials=100, seed=1)
        assert result.n == 16
        assert result.all_above
        assert result.min_mast >= result.bound

    def test_deterministic_per_seed(self):
        first = empirical_probe(5, trials=10, seed=42)
        again = empirical_probe(5, trials=10, seed=42)
        assert first == again
        other = empirical_probe(5, trials=10, seed=43)
        assert other.n == first.n  # sizes may differ, shape must not

    def test_m11_floor_holds(self):
        result = empirical_probe(11, trials=5, seed=2)
        assert result.all_above
        assert result.min_mast >= 4  # floor is about 3.66

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            empirical_probe(0, trials=1, seed=0)
        with pytest.raises(ValueError):
            empirical_probe(13, trials=1, seed=0)
        with pytest.raises(ValueError):
            empirical_probe(3, trials=0, seed=0)

    def test_violation_guard_is_wired(self, monkeypatch):
        # a real violation is impossible; force one to confirm the probe
        # fails loudly instead of recording it
        import mastforge.bounds as bounds_mod
        from mastforge import BoundViolationError

        monkeypatch.setattr(bounds_mod, "lower_bound", lambda n: float(n))
        with pytest.raises(BoundViolationError):
            bounds_mod.empirical_probe(3, trials=2, seed=0)
