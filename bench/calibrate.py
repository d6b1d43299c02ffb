"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-core host the benchmark was built on, the speed of a pure-Python loop
drifts by up to 1.7x in stretches of 10 to 30 seconds (other tenants share
the cores), which gives run-to-run spreads of about 20% in any wall time. A
fixed reference job timed next to the operations tracks that drift. It shares
no code with zqforce, so no change to the program can move it.

Two reference jobs, each matched to the work it calibrates:

* ``loop_sample`` for operations inside the benchmark process: bitmask
  colour-change closures and dict updates in pure Python, the solvers' kind
  of work. Over 200 s of alternating solves and samples it cut the spread of
  8-solve medians from 12-17% to 4-5%. A loop with a large dict working set
  tracked the drift worse.
* ``child_sample`` for child processes (the CLI, and set-up in a fresh
  interpreter): a fresh interpreter that imports numpy, argparse and json,
  which is where a CLI run spends its time. Over 150 s of alternating runs it
  cut the spread of 10-invocation medians from 11% to 5%; the pure-Python
  loop managed only 9%.

An operation's normalised time is its wall time times the job's reference
time divided by the median of the job's samples taken during the operation
and within WINDOW_S of it (at least MIN_SAMPLES, the nearest ones): seconds
at the speed the host had when the reference times were measured.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from random import Random

# Median time of one sample on the reference host (Intel Xeon, 2.1 GHz,
# 2 vCPUs, Python 3.11); only scale factors, the same for every run.
LOOP_REFERENCE_S = 0.02
CHILD_REFERENCE_S = 0.18
CHILD_CODE = "import numpy, argparse, json"
WINDOW_S = 0.5  # samples this close to an operation describe its speed
MIN_SAMPLES = 4  # nearest samples used when the window holds fewer

_rng = Random(12345)
_N = 24
_ADJ = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.2:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_STARTS = [_rng.getrandbits(_N) & _rng.getrandbits(_N) for _ in range(400)]
_FULL = (1 << _N) - 1
_REPEATS = 28


def _work() -> int:
    seen: dict[int, int] = {}
    adj = _ADJ
    for b in _STARTS:
        w = _FULL & ~b
        changed = True
        while changed and w:
            changed = False
            m = b
            while m:
                low = m & -m
                m ^= low
                x = adj[low.bit_length() - 1] & w
                if x and not x & (x - 1):
                    b |= x
                    w ^= x
                    changed = True
        seen[b] = seen.get(b, 0) + 1
    return len(seen)


def loop_sample() -> float:
    """Seconds taken by the fixed in-process reference work."""
    t = time.perf_counter()
    for _ in range(_REPEATS):
        _work()
    return time.perf_counter() - t


def child_sample(env=None, cwd=None) -> float:
    """Seconds taken by a fresh interpreter running CHILD_CODE."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - t


class Samples:
    """Reference samples with their start times, in time order."""

    def __init__(self, probe, reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.at: list[float] = []
        self.seconds: list[float] = []

    def take(self) -> float:
        """Take one sample; return the wall time it took."""
        t = time.perf_counter()
        s = self.probe()
        self.at.append(t)
        self.seconds.append(s)
        return time.perf_counter() - t

    def factor(self, start: float, end: float) -> float:
        """Scale from wall seconds to reference seconds for an operation
        that ran from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return self.reference_s / statistics.median(self.seconds[lo:hi])
