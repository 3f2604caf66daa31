"""Per-anchor detection loss, hard-negative mining, and gradient checking.

The per-anchor loss is cross-entropy on the probability plus, for
positive anchors, a weighted L1 penalty on the four geometric components
of the target vector.  Patch-level aggregation averages all positive
anchors together with the top-k highest-loss negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .anchors import Anchor, AnchorLabel, AnchorStatus, TargetVector
from .config import RunConfig


@dataclass(frozen=True)
class LossParams:
    lambda_reg: float = RunConfig.lambda_reg
    eps: float = 1e-7  # probability clamp before logs
    hard_neg_k: int = RunConfig.hard_neg_k

    def __post_init__(self):
        if self.lambda_reg < 0:
            raise ValueError(f"lambda_reg must be >= 0, got {self.lambda_reg}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must be in (0, 0.5), got {self.eps}")
        if self.hard_neg_k < 1:
            raise ValueError(f"hard_neg_k must be >= 1, got {self.hard_neg_k}")


@dataclass(frozen=True)
class AnchorPrediction:
    anchor: Anchor
    t: TargetVector


def anchor_loss(
    pred: AnchorPrediction,
    label: AnchorLabel,
    params: LossParams = LossParams(),
) -> tuple[float, np.ndarray]:
    """Loss and analytic gradient for one anchor.

    Returns ``(value, grad)`` where grad holds the partial derivatives with
    respect to the five predicted components (p, dx, dy, dz, ds).  The
    regression term applies only to positive anchors and uses the L1
    subgradient with sign(0) = 0.  Ignored anchors are a caller error.
    """
    if label.status is AnchorStatus.IGNORED:
        raise ValueError("ignored anchors contribute no loss; filter them out")
    p = min(max(pred.t.p, params.eps), 1.0 - params.eps)
    grad = np.zeros(5)
    if label.status is AnchorStatus.POSITIVE:
        value = -np.log(p)
        grad[0] = -1.0 / p
        g = np.asarray(pred.t.geometry)
        g_star = np.asarray(label.target.geometry)
        diff = g - g_star
        value += params.lambda_reg * np.abs(diff).sum()
        grad[1:] = params.lambda_reg * np.sign(diff)
    else:
        value = -np.log1p(-p)
        grad[0] = 1.0 / (1.0 - p)
    return float(value), grad


def patch_loss(
    preds: Sequence[AnchorPrediction],
    labels: Sequence[AnchorLabel],
    params: LossParams = LossParams(),
) -> float:
    """Mean loss over all positive anchors plus the top-k hardest negatives.

    Negatives are ranked by individual loss, ties broken by list index.
    Ignored anchors contribute nothing.  Raises when no anchor is
    selectable at all.
    """
    if len(preds) != len(labels):
        raise ValueError(f"{len(preds)} predictions vs {len(labels)} labels")
    positive = []
    negative = []
    for idx, (pred, label) in enumerate(zip(preds, labels)):
        if label.status is AnchorStatus.IGNORED:
            continue
        value, _ = anchor_loss(pred, label, params)
        if label.status is AnchorStatus.POSITIVE:
            positive.append(value)
        else:
            negative.append((value, idx))
    negative.sort(key=lambda t: (-t[0], t[1]))
    selected = positive + [v for v, _ in negative[: params.hard_neg_k]]
    if not selected:
        raise ValueError("no positive or negative anchors to aggregate")
    # fixed summation order so the result is independent of anchor ordering
    return float(sum(sorted(selected, reverse=True)) / len(selected))


@dataclass(frozen=True)
class GradCheckReport:
    """Central-finite-difference comparison; skipped coordinates are the
    ones the caller flagged as too close to an L1 kink."""

    max_rel_error: float
    rel_errors: tuple[Optional[float], ...]
    skipped: tuple[int, ...]
    passed: bool


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: Sequence[float],
    h: float = 1e-5,
    tol: float = 1e-4,
    skip: Sequence[int] = (),
) -> GradCheckReport:
    """Compare f's analytic gradient against central differences at a point."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    point = np.asarray(point, dtype=float)
    skip = frozenset(int(i) for i in skip)
    _, grad = f(point)
    grad = np.asarray(grad, dtype=float)
    errors: list[Optional[float]] = []
    for i in range(point.size):
        if i in skip:
            errors.append(None)
            continue
        e = np.zeros_like(point)
        e[i] = h
        numeric = (f(point + e)[0] - f(point - e)[0]) / (2.0 * h)
        denom = max(abs(grad[i]), abs(numeric), 1e-8)
        errors.append(abs(grad[i] - numeric) / denom)
    max_err = max((e for e in errors if e is not None), default=0.0)
    return GradCheckReport(
        max_rel_error=max_err,
        rel_errors=tuple(errors),
        skipped=tuple(sorted(skip)),
        passed=max_err <= tol,
    )


def anchor_loss_closure(
    pred: AnchorPrediction,
    label: AnchorLabel,
    params: LossParams = LossParams(),
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """View anchor_loss as a function of the predicted 5-vector."""

    def f(t5: np.ndarray) -> tuple[float, np.ndarray]:
        t = TargetVector(*[float(x) for x in t5])
        return anchor_loss(AnchorPrediction(pred.anchor, t), label, params)

    return f


def l1_kink_coords(
    t5: Sequence[float],
    label: AnchorLabel,
    h: float,
    factor: float = 10.0,
) -> tuple[int, ...]:
    """Geometric coordinates within ``factor * h`` of an L1 kink, where
    central differences are unreliable."""
    if label.status is not AnchorStatus.POSITIVE:
        return ()
    g_star = label.target.geometry
    return tuple(
        i + 1 for i in range(4) if abs(float(t5[i + 1]) - g_star[i]) < factor * h
    )


def check_anchor_loss_gradient(
    pred: AnchorPrediction,
    label: AnchorLabel,
    params: LossParams = LossParams(),
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Gradient-check anchor_loss at the predicted point, skipping L1 kinks."""
    t5 = np.asarray(pred.t.as_tuple())
    return grad_check(
        anchor_loss_closure(pred, label, params),
        t5,
        h=h,
        tol=tol,
        skip=l1_kink_coords(t5, label, h),
    )
