"""Checks of CLI answers, given as plain data so any process can apply them.

A case is ``{"argv": [...], "expect": {...}}``; ``argv`` follows
``python -m mastforge.cli`` and every key of ``expect`` is one check:

* ``stdout``: the whole output, stripped, equals this text;
* ``json``: the output parses to an object holding these key/value pairs;
* ``report``: the output is a verification report that passed, and these
  checks observed these values;
* ``witness``: ``{"w", "s", "t"}`` file paths; the witness tree has the
  printed size and both input trees restrict to it on its labels.

Every case also requires exit code 0.  Nothing here imports mastforge.
"""

from __future__ import annotations

import json
from pathlib import Path

import trees


def _read(path: str):
    return trees.parse(Path(path).read_text(encoding="utf-8"))


def check_cli(expect: dict, code: int, stdout: str) -> bool:
    """True iff the exit code and output satisfy every check in ``expect``."""
    try:
        return code == 0 and all(
            _CHECKS[kind](want, stdout) for kind, want in expect.items()
        )
    except (ValueError, KeyError, TypeError, OSError):  # unparsable output
        return False


def _stdout(want, stdout):
    return stdout.strip() == want


def _json(want, stdout):
    got = json.loads(stdout)
    return all(got[key] == value for key, value in want.items())


def _report(want, stdout):
    got = json.loads(stdout)
    observed = {rec["check"]: rec["observed"] for rec in got["checks"]}
    return got["pass"] is True and all(observed[k] == v for k, v in want.items())


def _witness(want, stdout):
    witness = _read(want["w"])
    return len(trees.leaves(witness)) == int(stdout) and trees.same_restrictions(
        _read(want["s"]), _read(want["t"]), trees.leaves(witness), witness
    )


_CHECKS = {"stdout": _stdout, "json": _json, "report": _report, "witness": _witness}
