"""A fixed pure-Python reference workload, timed next to every measured phase.

The hosts this benchmark runs on change speed by up to about 1.8x for
minutes at a time (other tenants share the cores), and every wall time
follows.  A phase's wall time divided by the reference's wall time,
measured in the same process just before and just after the phase, cancels
most of that drift, and still moves with every change to dnrlab, which the
reference never calls.  The `*_norm` metrics are such ratios: how many
reference durations the phase takes.  Set-up is scaled the same way but
reported in seconds: its ratio times NOMINAL_S.
"""

from __future__ import annotations

import statistics
import time

ROUNDS = 50_000  # about 12 ms of dict and integer work, no garbage to collect
PASSES = 3  # reference passes before and after the phase
# A reference pass on the host this benchmark was built on, in its fast
# state; setup_s is reported in seconds at that speed (run.py).
NOMINAL_S = 0.013


def reference_s() -> float:
    """Wall time of one pass of the reference workload."""
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(ROUNDS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += key * 3 % 7
    return time.perf_counter() - started


def median_pass() -> float:
    return statistics.median(reference_s() for _ in range(PASSES))


def timed(fn):
    """(fn(), its wall time, the median reference pass around it)."""
    passes = [reference_s() for _ in range(PASSES)]
    started = time.perf_counter()
    result = fn()
    took = time.perf_counter() - started
    passes += [reference_s() for _ in range(PASSES)]
    return result, took, statistics.median(passes)
