"""Volume-level confusion metrics and Fisher's exact test, in plain Python
so that ``compare`` runs without numpy; :mod:`ctadet.evaluation`
re-exports them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence


@dataclass(frozen=True)
class ConfusionMetrics:
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    sensitivity: float
    specificity: float
    f1: float


def _ratio(num: int, den: int) -> float:
    return num / den if den else math.nan


def confusion_at_threshold(
    scores: Sequence[tuple[float, bool]],
    threshold: float,
    inclusive: bool = False,
) -> ConfusionMetrics:
    """Volume-level confusion counts: positive when score > threshold
    (or >= with ``inclusive``, used to realize FPPV operating points where
    the threshold is itself an attained candidate probability)."""
    tp = fp = tn = fn = 0
    for score, has_lesion in scores:
        predicted = score >= threshold if inclusive else score > threshold
        if has_lesion:
            tp += predicted
            fn += not predicted
        else:
            fp += predicted
            tn += not predicted
    n = tp + fp + tn + fn
    return ConfusionMetrics(
        threshold=float(threshold),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=_ratio(tp + tn, n),
        sensitivity=_ratio(tp, tp + fn),
        specificity=_ratio(tn, tn + fp),
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
    )


def fisher_exact(table: Sequence[Sequence[int]]) -> float:
    """Two-sided Fisher's exact test by the minimum-likelihood rule.

    Sums the hypergeometric probabilities (same margins) of every table at
    most as probable as the observed one, with a 1e-12 slack absorbing
    float ties; probabilities come from log-space factorials, a running
    sum of ``math.log(i)`` for i = 1..n.
    """
    (a, b), (c, d) = table
    counts = (a, b, c, d)
    if any(x < 0 or x != int(x) for x in counts):
        raise ValueError(f"table entries must be non-negative integers, got {table}")
    a, b, c, d = (int(x) for x in counts)
    n = a + b + c + d
    if n == 0:
        raise ValueError("Fisher's exact test is undefined for an all-zero table")
    r1, r2, c1 = a + b, c + d, a + c
    if 0 in (r1, r2, c1, b + d):
        return 1.0  # a zero margin admits a single table

    lf = list(accumulate(map(math.log, range(1, n + 1)), initial=0.0))
    const = lf[c1] + lf[n - c1] - lf[n] + lf[r1] + lf[r2]

    def prob(k: int) -> float:
        return math.exp(const - lf[k] - lf[r1 - k] - lf[c1 - k] - lf[r2 - c1 + k])

    k_lo = max(0, c1 - r2)
    k_hi = min(r1, c1)
    p_obs = prob(a)
    total = 0.0
    excluded = 0
    for k in range(k_lo, k_hi + 1):
        p = prob(k)
        if p <= p_obs + 1e-12:
            total += p
        else:
            excluded += 1
    if excluded == 0:
        return 1.0  # the whole support is included; its exact sum is 1
    return min(total, 1.0)
