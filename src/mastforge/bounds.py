"""Numeric certification of the MAST lower bound for balanced tree pairs.

Two balanced trees on a shared n-leaf label set always have a MAST of size
at least n**0.17.  The induction behind that exponent controls the minimum
MAST g(h1, h2, t) of balanced trees of heights h1, h2 overlapping in t
labels by

    g(h1, h2, t) >= 2**(0.22 * log2(t) - 0.025 * (h1 + h2))

and splits on how the t common labels distribute over the four pendant
subtree pairs, with case thresholds 0.037, 0.25, 0.889 and 0.926 of t.
Each case closes because a specific linear combination of those constants
is strictly positive; `check_case_certificates` evaluates every such margin
in double precision, cross-checks it in 50-digit ``decimal``, and demands
it exceed an interval-style slack of 2**-40 so no inequality rests on a
rounding artifact.  The thinnest margin (0.22 * log2(0.926) + 0.025, about
6e-4) is five hundred million times the slack.

The older approach bounds the exponent by beta(delta) =
(1 + 2*log2(1 - 3*delta)) / (log2(1 - 3*delta) - log2(delta)) over
delta in (0, 1/3 - 1/(3*sqrt(2))); its maximum, about 0.149, is computed
here by golden-section search as the baseline the 0.17 exponent improves.

`empirical_probe` samples uniformly labelled balanced pairs and checks the
n**0.17 floor on actual MAST sizes; a violation is impossible unless the
solver is wrong, so it raises immediately.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .mast import mast_size_matrix
from .report import CheckRecord, VerificationReport
from .tree import make_balanced

# all logarithms base 2 throughout
LOG_T_COEFF = 0.22
HEIGHT_COEFF = 0.025
CASE_THRESHOLDS = (0.037, 0.25, 0.889, 0.926)
DELTA_MAX = 1 / 3 - 1 / (3 * math.sqrt(2))
ARITHMETIC_SLACK = 2.0 ** -40
PROBE_MAX_M = 12


class BoundViolationError(RuntimeError):
    """An observed MAST size fell below the proven floor (impossible unless
    the implementation is wrong)."""


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a randomized floor probe on n = 2**m leaves."""

    n: int
    trials: int
    seed: int
    min_mast: int
    bound: float
    all_above: bool

    def as_dict(self) -> dict:
        return asdict(self)


def beta_of_delta(delta: float) -> float:
    """beta(delta) = (1 + 2*log2(1-3d)) / (log2(1-3d) - log2(d)) on the open
    interval (0, 1/3 - 1/(3*sqrt(2))).  Vanishes at both endpoints.
    """
    if not 0 < delta < DELTA_MAX:
        raise ValueError(f"delta must lie in (0, {DELTA_MAX}), got {delta}")
    one_minus = math.log2(1 - 3 * delta)
    return (1 + 2 * one_minus) / (one_minus - math.log2(delta))


def maximize_beta() -> tuple[float, float]:
    """Golden-section maximum of beta over its interval.

    A 1000-point grid scan first confirms the profile is empirically
    unimodal (rises to a single peak, then falls); the search then runs the
    bracket down to a width of 1e-12, so that the value error is far below
    1e-9.  The result must round to 0.149 at three decimals.
    """
    lo, hi = 1e-12, DELTA_MAX - 1e-12

    step = (hi - lo) / 999
    grid = [lo + i * step for i in range(999)] + [hi]
    values = [beta_of_delta(x) for x in grid]
    peak = values.index(max(values))
    rising = all(values[i + 1] >= values[i] - 1e-12 for i in range(peak))
    falling = all(values[i + 1] <= values[i] + 1e-12 for i in range(peak, len(values) - 1))
    if not (rising and falling):
        raise RuntimeError("beta profile is not unimodal on the scanned grid")

    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = grid[max(peak - 1, 0)], grid[min(peak + 1, len(grid) - 1)]
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = beta_of_delta(x1), beta_of_delta(x2)
    while b - a > 1e-12:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = beta_of_delta(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = beta_of_delta(x1)
    delta_star = (a + b) / 2
    beta_star = beta_of_delta(delta_star)
    if round(beta_star, 3) != 0.149:
        raise RuntimeError(f"beta maximum {beta_star} does not round to 0.149")
    return delta_star, beta_star


# One row per margin const + 0.22*log2(threshold) + m*0.025, checked in
# double and 50-digit ``decimal``: (record name, const, index into
# CASE_THRESHOLDS, m, expected text).  The thinnest, cases iv/v, is about 6e-4.
_CASE_MARGINS = (
    ("cases_i_ii_margin", 1, 0, 2, "1 + 0.22*log2(0.037) + 0.05"),
    ("case_iii_margin", 0, 2, 2, "0.22*log2(0.889) + 0.05"),
    ("cases_iv_v_margin", 0, 3, 1, "0.22*log2(0.926) + 0.025"),
)


def check_case_certificates() -> VerificationReport:
    """Certify every strict inequality the case split relies on.

    Each exponent-gap margin is evaluated in double precision, re-evaluated
    from the same constants with 50 digits, and reported alongside the
    2**-40 slack it must clear; the complement and pigeonhole facts are
    checked in exact rational arithmetic.
    """
    checks: list[CheckRecord] = []
    for name, const, index, terms, text in _CASE_MARGINS:
        threshold = CASE_THRESHOLDS[index]
        margin = const + LOG_T_COEFF * math.log2(threshold) + terms * HEIGHT_COEFF
        with localcontext() as ctx:
            ctx.prec = 50
            log2_t = Decimal(str(threshold)).ln() / Decimal(2).ln()
            digits = float(
                Decimal(str(const))
                + Decimal(str(LOG_T_COEFF)) * log2_t
                + terms * Decimal(str(HEIGHT_COEFF))
            )
        certified = abs(digits - margin) < 1e-12 and digits > ARITHMETIC_SLACK
        checks.append(
            CheckRecord(
                name, f"{text} > slack {ARITHMETIC_SLACK:.3e}", margin, certified
            )
        )

    low, _, mid, high = (Fraction(str(x)) for x in CASE_THRESHOLDS)
    complements_ok = 1 - 3 * low == mid and 1 - 2 * low == high
    checks.append(
        CheckRecord(
            "case_exhaustion_complements",
            "1 - 3*0.037 = 0.889 and 1 - 2*0.037 = 0.926 exactly",
            complements_ok,
            complements_ok,
        )
    )

    # max of four non-negative parts summing to t is >= t/4: exact identity
    # plus an exhaustive check over all 4-part compositions of small t
    pigeonhole_ok = 4 * Fraction(1, 4) == 1
    for total in range(1, 33):
        for a in range(total + 1):
            for b in range(total - a + 1):
                for c in range(total - a - b + 1):
                    d = total - a - b - c
                    if max(a, b, c, d) * 4 < total:
                        pigeonhole_ok = False
    checks.append(
        CheckRecord(
            "pigeonhole_quarter",
            "largest of four overlap parts is at least t/4",
            pigeonhole_ok,
            pigeonhole_ok,
        )
    )

    return VerificationReport(tuple(checks))


def lower_bound(n: int) -> float:
    """The proven floor n**0.17 (strictly above n**(1/6) for n >= 2)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    floor = float(n) ** 0.17
    if n >= 2 and not floor > sixth_root(n):
        raise RuntimeError(f"n**0.17 <= n**(1/6) at n={n}")
    return floor


def sixth_root(n: int) -> float:
    """The older floor n**(1/6), kept for comparison."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return float(n) ** (1 / 6)


def _probe_trial(m: int, seed: int, trial: int) -> int:
    import numpy as np
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, trial])
    n = 1 << m
    labels_s = [str(x) for x in rng.permutation(n) + 1]
    labels_t = [str(x) for x in rng.permutation(n) + 1]
    s = make_balanced(m, labels_s)
    t = make_balanced(m, labels_t)
    return int(mast_size_matrix(s, t, root_only=True)[0, t.root])


def empirical_probe(m: int, trials: int, seed: int) -> ProbeResult:
    """MAST sizes of ``trials`` uniformly labelled balanced pairs on 2**m
    leaves, each trial deterministic in (seed, trial index).

    Raises :class:`BoundViolationError` if any size falls below n**0.17.
    """
    if not 1 <= m <= PROBE_MAX_M:
        raise ValueError(f"m must be in 1..{PROBE_MAX_M}, got {m}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    n = 1 << m
    sizes = [_probe_trial(m, seed, i) for i in range(trials)]
    min_mast = min(sizes)
    bound = lower_bound(n)
    if min_mast < bound:
        raise BoundViolationError(
            f"observed mast {min_mast} below proven floor {bound} at n={n}"
        )
    return ProbeResult(n, trials, seed, min_mast, bound, min_mast >= bound)
