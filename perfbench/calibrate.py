"""A fixed reference workload that measures how fast the machine runs right now.

On a shared host the same code can run up to 2x slower from one minute to the
next, in CPU time as much as in wall time.  The benchmark therefore runs
`kernel()` in short bursts between the rounds of a workload and expresses
each operation's time in reference milliseconds: wall time scaled by
NOMINAL_MS over the kernel time measured around it.  The kernel never calls
ppkit, so a change to ppkit cannot change it.  It mixes two kinds of work
that ppkit's operations do, so that the host's slow-downs hit both alike:

- interpreter work: small tuples, dict updates, json of small records;
- array work: building 1 MB tables with numpy and gathering from them.

The mix is weighted so that, over minutes of interleaved measurement on a
shared 2-vCPU host, the kernel's time and the operations' times rose and
fell in proportion (a log-log slope near 1).  Gathers on small arrays were
left out: they slowed down more than any workload did.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_MS = 4.0  # one kernel() call, by definition, in reference ms
BURST = 3  # kernel() calls per measurement; their median is taken
CAL_EVERY_S = 0.5  # a burst follows any operation that ends this long after the last

_BIG_N = 512
_LARGE_PASSES = 2


def _interpreter() -> int:
    acc = 0
    rows = {}
    for j in range(1200):
        rec = (j % 7, j * 31 % 625, j & 1 == 0, "case", None)
        rows[j & 63] = rec
        acc += rec[1] ^ j
        if j % 4 == 0:
            acc += len(json.dumps({"tid": "3.6", "delta": rec[1], "gamma": j, "agree": rec[2]}))
    return acc + len(rows)


def _large_numpy() -> int:
    xs = np.arange(_BIG_N, dtype=np.int32)
    out = 0
    for k in range(_LARGE_PASSES):
        table = np.add.outer(xs, xs * (7 + k)) % _BIG_N
        col = table[xs, xs[::-1]]
        out += int(table[col, xs].sum())
    return out


def kernel() -> int:
    return _interpreter() + _large_numpy()


def burst(n: int = BURST) -> float:
    """Median seconds of one kernel() call over n calls."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


if __name__ == "__main__":
    for part in (_interpreter, _large_numpy, kernel):
        ts = []
        for _ in range(50):
            t = time.perf_counter()
            part()
            ts.append(time.perf_counter() - t)
        print(f"{part.__name__:14s} {1e3 * statistics.median(ts):7.3f} ms")
