"""mastforge: maximum agreement subtrees of rooted binary leaf-labelled trees.

The package computes exact MAST sizes with witnesses, constructs balanced
tree pairs whose MAST is provably below any fraction of sqrt(n), packs
label-disjoint caterpillars into balanced shapes, and certifies the numeric
inequalities behind the n**0.17 lower bound.
"""

from .bounds import (
    BoundViolationError,
    ProbeResult,
    beta_of_delta,
    check_case_certificates,
    empirical_probe,
    lower_bound,
    maximize_beta,
    sixth_root,
)
from .construct import (
    CounterexamplePair,
    LabelGrid,
    PackingError,
    PackingPlan,
    a_of_n,
    build_counterexample,
    build_overlap_pair,
    check_upper_bound_lemma,
    choose_k_for_c,
    counterexample_parameters,
    is_anticaterpillar_pair,
    pack_caterpillars,
    verify_counterexample,
)
from .mast import MastResult, mast_bruteforce, mast_dp, mast_size_matrix
from .newick import NewickError, parse, serialize
from .report import CheckRecord, VerificationReport
from .tree import Tree, TreeError, make_balanced, make_caterpillar

__version__ = "0.1.0"

__all__ = [
    "BoundViolationError",
    "CheckRecord",
    "CounterexamplePair",
    "LabelGrid",
    "MastResult",
    "NewickError",
    "PackingError",
    "PackingPlan",
    "ProbeResult",
    "Tree",
    "TreeError",
    "VerificationReport",
    "a_of_n",
    "beta_of_delta",
    "build_counterexample",
    "build_overlap_pair",
    "check_case_certificates",
    "check_upper_bound_lemma",
    "choose_k_for_c",
    "counterexample_parameters",
    "empirical_probe",
    "is_anticaterpillar_pair",
    "lower_bound",
    "make_balanced",
    "make_caterpillar",
    "mast_bruteforce",
    "mast_dp",
    "mast_size_matrix",
    "maximize_beta",
    "pack_caterpillars",
    "parse",
    "serialize",
    "sixth_root",
    "verify_counterexample",
]
