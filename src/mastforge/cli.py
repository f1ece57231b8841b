"""Command-line surface: generate, mast, verify, pack, bounds, probe.

All machine output is JSON on stdout; diagnostics go to stderr.  Each
handler returns its exit code and its stdout text, and ``main`` alone
writes that text: an error writes one stderr line and nothing to stdout.
Exit code 0 means the requested computation or check succeeded (for
``verify`` and ``bounds --certify``: the report passed); anything else is
nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import construct, newick
from .mast import mast_bruteforce, mast_dp


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, with exit code 2; its
    subparsers are of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mastforge",
        description="Maximum agreement subtrees of rooted binary trees: "
        "compute, construct extremal pairs, verify, certify bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an extremal balanced tree pair")
    gen.set_defaults(run=_cmd_generate)
    pick = gen.add_mutually_exclusive_group(required=True)
    pick.add_argument("--k", type=int, help="construction parameter k >= 1")
    pick.add_argument("--c", type=float, help="choose k so that mast < c*sqrt(n)")
    gen.add_argument("--out-s", required=True, help="output file for the first tree")
    gen.add_argument("--out-t", required=True, help="output file for the second tree")

    mast = sub.add_parser("mast", help="MAST size of two Newick files")
    mast.set_defaults(run=_cmd_mast)
    mast.add_argument("s", help="first tree file")
    mast.add_argument("t", help="second tree file")
    mast.add_argument("--brute", action="store_true", help="force the subset oracle")
    mast.add_argument("--witness", help="write one agreement tree as Newick")

    verify = sub.add_parser("verify", help="verify an extremal pair end to end")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--s", help="first tree file (default: generate)")
    verify.add_argument("--t", help="second tree file (default: generate)")

    pack = sub.add_parser("pack", help="pack disjoint n-caterpillars")
    pack.set_defaults(run=_cmd_pack)
    pack.add_argument("--n", type=int, required=True)

    bnd = sub.add_parser("bounds", help="lower-bound values and certificates")
    bnd.set_defaults(run=_cmd_bounds)
    mode = bnd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--certify", action="store_true")
    mode.add_argument("--n", type=int)

    probe = sub.add_parser("probe", help="randomized floor probe on 2**m leaves")
    probe.set_defaults(run=_cmd_probe)
    probe.add_argument("--m", type=int, required=True)
    probe.add_argument("--trials", type=int, required=True)
    probe.add_argument("--seed", type=int, default=0)

    return parser


class _Refusal(Exception):
    """A failure already formatted as its one stderr line."""


def _load_tree(path: str):
    try:
        return newick.read_file(path)
    except newick.NewickError as exc:
        raise _Refusal(f"parse error in {path}: {exc}") from exc
    except OSError as exc:
        raise _Refusal(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _Refusal(f"cannot read {path}: {exc}") from exc


def _write_tree(path: str, tree) -> None:
    try:
        newick.write_file(path, tree)
    except OSError as exc:  # a failed open, write or close
        raise _Refusal(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_generate(args) -> tuple[int, str]:
    k = args.k if args.k is not None else construct.choose_k_for_c(args.c)
    pair = construct.build_counterexample(k)
    _write_tree(args.out_s, pair.s)
    _write_tree(args.out_t, pair.t)
    return 0, json.dumps({"k": k, "n": pair.n, "expected_mast": pair.expected_mast})


def _cmd_mast(args) -> tuple[int, str]:
    if args.brute and args.witness:
        raise _Refusal("the subset oracle reports only a size; drop --witness")
    s = _load_tree(args.s)
    t = _load_tree(args.t)
    if args.brute:
        return 0, json.dumps(mast_bruteforce(s, t))
    result = mast_dp(s, t)
    if args.witness:
        if result.agreement_tree is None:
            raise _Refusal("no common labels, nothing to write as a witness")
        _write_tree(args.witness, result.agreement_tree)
    return 0, json.dumps(result.size)


def _cmd_verify(args) -> tuple[int, str]:
    if (args.s is None) != (args.t is None):
        raise _Refusal("supply both --s and --t, or neither")
    if args.s is None:
        pair = construct.build_counterexample(args.k)
    else:
        construct.check_verifiable_k(args.k)  # before reading either file
        pair = construct.CounterexamplePair(
            args.k, _load_tree(args.s), _load_tree(args.t)
        )
    report = construct.verify_counterexample(pair)
    return (0 if report.passed else 1), report.to_json()


def _cmd_pack(args) -> tuple[int, str]:
    plan = construct.pack_caterpillars(args.n)
    return 0, json.dumps({"n": args.n, **plan.as_dict()})


def _cmd_bounds(args) -> tuple[int, str]:
    if not args.certify:
        return 0, json.dumps({"n": args.n, "floor": bounds_mod.lower_bound(args.n),
                              "sixth_root": bounds_mod.sixth_root(args.n)})
    delta_star, beta_star = bounds_mod.maximize_beta()
    report = bounds_mod.check_case_certificates()
    payload = {"beta": {"delta": delta_star, "beta": beta_star},
               "certificates": report.as_dict()}
    return (0 if report.passed else 1), json.dumps(payload)


def _cmd_probe(args) -> tuple[int, str]:
    result = bounds_mod.empirical_probe(args.m, args.trials, args.seed)
    return 0, json.dumps(result.as_dict())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error's one line, or --help, is printed
        return int(exc.code or 0)
    try:
        code, text = args.run(args)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OverflowError, OSError) as exc:
        # a bad input (TreeError is a ValueError, OverflowError a number too
        # large for a float), a failed internal invariant (a bug:
        # BoundViolationError, PackingError, a failed guard, an inconsistent
        # MAST table) or a failed system call, each reported as one line
        # without a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the inputs are too large for this machine",
              file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except OSError as exc:
        sys.stdout = None  # which exit must not flush again
        print(f"cannot write standard output: {exc.strerror}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
