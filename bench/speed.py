"""Host-speed calibration: wall times rescaled to a fixed reference speed.

On a shared 2-core host the same op runs at two speeds that switch every
few seconds (0.19 s and 0.31 s for one ``golden`` op, measured back to
back), so medians of raw wall time move by 20-50% between runs.  Each timed
interval is therefore bracketed by a fixed piece of work that does not touch
mastforge, and its wall time is multiplied by ``reference / mean bracket``:

* an op, or an in-process ``cli.main`` call, by `kernel_s` (dict updates in
  the interpreter, and small numpy calls with slices and index arrays: the
  kinds of work the ops do), scaled to a host where the kernel takes
  ``REFERENCE_S``;
* a child process, by a child interpreter that runs a short loop, just
  before and just after it (run.py, ``REFERENCE_CHILD_S``).

Measured on the reference host with every process pinned to one CPU, as
the spread (interquartile range / median) of medians over consecutive
windows: ``deep`` op time 45% raw, 6% divided by the kernel (8-op windows);
``verify --k 3`` CLI time 11% raw, 3% divided by the reference child
(9-run windows).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.01  # the kernel's time on the reference host
_ARRAY = np.arange(4096, dtype=np.int64)
_INDEX = np.arange(0, 4096, 7)
_REVERSED = _INDEX[::-1].copy()


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel (about 10 ms)."""
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(40_000):
        table[i & 1023] = total
        total += i
    for i in range(1_500):
        np.maximum(_ARRAY[: (i & 4095) + 1], 5)
        k = (i & 511) + 1
        np.maximum(_ARRAY[_INDEX[:k]], _ARRAY[_REVERSED[:k]])
    return time.perf_counter() - t0


class Timed:
    """Times one interval bracketed by kernel runs.

    ``with Timed() as t: work()`` leaves the raw wall time in ``t.wall_s``,
    the rescaled time in ``t.scaled_s`` and the factor in ``t.factor``.
    """

    def __enter__(self):
        self._before = kernel_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        self.factor = REFERENCE_S / ((self._before + kernel_s()) / 2)
        self.scaled_s = self.wall_s * self.factor
        return False
