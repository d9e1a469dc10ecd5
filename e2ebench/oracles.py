"""Reference computations made apart from the program.

Each check in the benchmark compares the program's output against one
of these, or against a property the method must have — never against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np


def fcfs_response_times(arrivals, works, n_servers: int) -> np.ndarray:
    """FCFS G/G/k response times by the Kiefer-Wolfowitz recursion.

    ``w`` is the sorted vector of work each server still owes when a
    query arrives; the query waits ``w[0]``, joins that server, and the
    vector ages by the next inter-arrival gap.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    works = np.asarray(works, dtype=float)
    w = np.zeros(n_servers)
    out = np.empty(arrivals.shape[0])
    for i in range(arrivals.shape[0]):
        wait = w[0]
        out[i] = wait + works[i]
        w[0] += works[i]
        if i + 1 < arrivals.shape[0]:
            gap = arrivals[i + 1] - arrivals[i]
            w = np.sort(np.maximum(w - gap, 0.0))
    return out


def slo_match(rt: np.ndarray, tolerance: float = 0.05) -> int:
    """The paper's two-step SLO-matching rule, written from its text.

    Step 1: each service accepts the combinations whose predicted
    response time is within ``tolerance`` of its own best.  Step 2:
    choose a combination every service accepts; while none exists,
    double the tolerance.  Ties go to the smallest worst-case ratio to
    the per-service best, then to the lowest index.
    """
    rt = np.asarray(rt, dtype=float)
    best = [min(rt[:, j]) for j in range(rt.shape[1])]
    tol = tolerance
    while True:
        accepted = [
            c for c in range(rt.shape[0])
            if all(rt[c, j] <= best[j] * (1.0 + tol) for j in range(rt.shape[1]))
        ]
        if accepted:
            worst = [max(rt[c, j] / best[j] for j in range(rt.shape[1]))
                     for c in accepted]
            return accepted[worst.index(min(worst))]
        tol *= 2.0


def geometric_mean(values) -> float:
    values = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))
