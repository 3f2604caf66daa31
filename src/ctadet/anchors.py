"""Anchor grids, 3D cube geometry, and box <-> target-vector encoding.

Detections and ground truth share one box model: an axis-aligned cube
given by its center (voxel coordinates) and edge length ("diameter").
Anchors are reference cubes tiled on a coarse grid inside a patch; a
detection is represented relative to an anchor as a 5-vector
(probability, normalized center offsets, log size ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .config import RunConfig


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned cube: center (x, y, z) in voxels, edge length ``diameter``."""

    center: tuple[float, float, float]
    diameter: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "diameter", float(self.diameter))
        if len(self.center) != 3:
            raise ValueError("box center must have 3 coordinates")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"box center must be finite, got {self.center}")
        if not 0 < self.diameter < math.inf:  # False for NaN too
            raise ValueError(
                f"box diameter must be positive and finite, got {self.diameter}"
            )

    @property
    def lo(self) -> tuple[float, float, float]:
        h = self.diameter / 2.0
        return tuple(c - h for c in self.center)

    @property
    def hi(self) -> tuple[float, float, float]:
        h = self.diameter / 2.0
        return tuple(c + h for c in self.center)

    @property
    def volume(self) -> float:
        return self.diameter ** 3

    def contains(self, point: Sequence[float]) -> bool:
        """Closed-interval containment: one :func:`box_contains` call."""
        return bool(box_contains(cube_bounds(self.center, self.diameter), point)[0])

    def translated(self, offset: Sequence[float]) -> "BoundingBox":
        return BoundingBox(
            tuple(c + o for c, o in zip(self.center, offset)), self.diameter
        )


@dataclass(frozen=True)
class Lesion:
    """A ground-truth box plus free-form string labels used for stratified
    evaluation (e.g. size class, location)."""

    box: BoundingBox
    labels: Mapping[str, str] = field(default_factory=dict)


def _as_boxes(lesions: Sequence) -> list[BoundingBox]:
    """Boxes of a mixed list of :class:`Lesion` and :class:`BoundingBox`."""
    return [l.box if isinstance(l, Lesion) else l for l in lesions]


@dataclass(frozen=True)
class Anchor:
    """Reference cube of size ``anchor_size`` centered at an output-grid point."""

    grid_index: tuple[int, int, int]
    position: tuple[float, float, float]
    anchor_size: float
    scale_index: int

    @property
    def box(self) -> BoundingBox:
        return BoundingBox(self.position, self.anchor_size)


@dataclass(frozen=True)
class TargetVector:
    """Per-anchor network output: probability plus normalized geometry.

    dx, dy, dz are center offsets divided by the anchor size; ds is the
    natural log of the box diameter over the anchor size.
    """

    p: float
    dx: float
    dy: float
    dz: float
    ds: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.p}")

    @property
    def geometry(self) -> tuple[float, float, float, float]:
        return (self.dx, self.dy, self.dz, self.ds)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p, self.dx, self.dy, self.dz, self.ds)


class AnchorStatus(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IGNORED = "ignored"


@dataclass(frozen=True)
class AnchorLabel:
    """Training assignment for one anchor.

    Positive anchors carry the matched ground-truth box and its encoded
    target; negative and ignored anchors carry neither.
    """

    status: AnchorStatus
    matched_box: Optional[BoundingBox] = None
    target: Optional[TargetVector] = None

    def __post_init__(self):
        if self.status is AnchorStatus.POSITIVE:
            if self.matched_box is None or self.target is None:
                raise ValueError("positive label requires matched_box and target")
        elif self.matched_box is not None or self.target is not None:
            raise ValueError(f"{self.status.value} label must not carry a match")


def anchor_grid(
    patch_size: int = RunConfig.patch_size[0],
    grid_size: int = RunConfig.grid_size,
    anchor_sizes: Sequence[float] = RunConfig.anchor_sizes,
) -> tuple[Anchor, ...]:
    """Build the full anchor tuple for one patch.

    Grid points are cell centers: position = (index + 0.5) * downsample
    factor, with factor = patch_size / grid_size.  Anchors are ordered
    grid-index-major (x, then y, then z) with scales innermost, matching
    :func:`anchor_index`.  The result is immutable, and the last grid
    built is memoised on ``(patch_size, grid_size, anchor_sizes)``, so the
    volumes of a run share one grid.
    """
    return _anchor_grid(patch_size, grid_size, tuple(anchor_sizes))


@lru_cache(maxsize=1)
def _anchor_grid(
    patch_size: int, grid_size: int, anchor_sizes: tuple[float, ...]
) -> tuple[Anchor, ...]:
    if patch_size % grid_size != 0:
        raise ValueError(
            f"patch size {patch_size} not divisible by grid size {grid_size}"
        )
    factor = patch_size // grid_size
    anchors = []
    for i in range(grid_size):
        for j in range(grid_size):
            for k in range(grid_size):
                pos = ((i + 0.5) * factor, (j + 0.5) * factor, (k + 0.5) * factor)
                for s, size in enumerate(anchor_sizes):
                    anchors.append(Anchor((i, j, k), pos, float(size), s))
    return tuple(anchors)


def anchor_index(
    grid_index: tuple[int, int, int],
    scale_index: int,
    grid_size: int,
    n_scales: int,
) -> int:
    """Flat position of an anchor in the list built by :func:`anchor_grid`."""
    i, j, k = grid_index
    return ((i * grid_size + j) * grid_size + k) * n_scales + scale_index


class BoxBounds(NamedTuple):
    """Axis-aligned cubes as arrays: corners ``lo`` and ``hi`` shaped
    (..., 3) and ``volume`` shaped (...)."""

    lo: np.ndarray
    hi: np.ndarray
    volume: np.ndarray

    def take(self, index) -> "BoxBounds":
        """The cubes at ``index`` of the leading axes, e.g. ``np.s_[:, None]``
        to pair every cube with every cube of another set."""
        return BoxBounds(self.lo[index], self.hi[index], self.volume[index])


def cube_bounds(center, diameter) -> BoxBounds:
    """Bounds of cubes given by (n, 3) centers and (n,) edge lengths.

    Corners are ``c - d/2`` and ``c + d/2``; volumes multiply the extents
    x, y, z, so identical cubes have IoU exactly 1.0.
    """
    center = np.asarray(center, dtype=float).reshape(-1, 3)
    half = np.asarray(diameter, dtype=float).reshape(-1, 1) / 2.0
    lo = center - half
    hi = center + half
    ext = hi - lo
    return BoxBounds(lo, hi, ext[:, 0] * ext[:, 1] * ext[:, 2])


def box_bounds(boxes: Sequence[BoundingBox]) -> BoxBounds:
    """:func:`cube_bounds` of a list of boxes."""
    return cube_bounds([b.center for b in boxes], [b.diameter for b in boxes])


def box_iou(a: BoxBounds, b: BoxBounds) -> np.ndarray:
    """Intersection over union of cubes ``a`` and ``b``, broadcast over
    their leading axes; 0 for a pair that is apart or touching on an axis."""
    # clamp each overlap extent at 0, since two negative extents would
    # multiply to a positive intersection
    ext = np.maximum(np.minimum(a.hi, b.hi) - np.maximum(a.lo, b.lo), 0.0)
    inter = ext[..., 0] * ext[..., 1] * ext[..., 2]
    return inter / (a.volume + b.volume - inter)


def box_contains(boxes: BoxBounds, points) -> np.ndarray:
    """Whether each point (..., 3) lies in each cube, broadcast over the
    leading axes; closed intervals, so a point on a face is inside."""
    return ((boxes.lo <= points) & (points <= boxes.hi)).all(axis=-1)


def iou3d(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two cubes: one :func:`box_iou` call."""
    both = cube_bounds((a.center, b.center), (a.diameter, b.diameter))
    return float(box_iou(both.take(0), both.take(1)))


def anchor_bounds(anchors: Sequence[Anchor]) -> BoxBounds:
    """Bounds of the anchors' boxes."""
    return cube_bounds([a.position for a in anchors], [a.anchor_size for a in anchors])


def encode(box: BoundingBox, anchor: Anchor, p: float) -> TargetVector:
    """Express a box relative to an anchor: offsets over anchor size,
    log size ratio."""
    l = anchor.anchor_size
    return TargetVector(
        p,
        (box.center[0] - anchor.position[0]) / l,
        (box.center[1] - anchor.position[1]) / l,
        (box.center[2] - anchor.position[2]) / l,
        math.log(box.diameter / l),
    )


def decode(t: TargetVector, anchor: Anchor) -> tuple[BoundingBox, float]:
    """Exact inverse of :func:`encode`."""
    l = anchor.anchor_size
    center = (
        anchor.position[0] + t.dx * l,
        anchor.position[1] + t.dy * l,
        anchor.position[2] + t.dz * l,
    )
    return BoundingBox(center, l * math.exp(t.ds)), t.p


def assign_labels(
    anchors: Sequence[Anchor],
    lesions: Sequence[BoundingBox],
    pos_iou: float = RunConfig.pos_iou,
    neg_iou: float = RunConfig.neg_iou,
) -> list[AnchorLabel]:
    """Label each anchor by its best IoU against the ground-truth boxes.

    max IoU > pos_iou: positive, matched to the argmax lesion (ties broken
    by lowest lesion index) with its encoded target.  max IoU < neg_iou:
    negative.  Otherwise ignored (borderline overlap, excluded from
    training).  Requires ``0 <= neg_iou < pos_iou``.
    """
    if not 0.0 <= neg_iou < pos_iou:
        raise ValueError(f"need 0 <= neg_iou < pos_iou, got {neg_iou}, {pos_iou}")
    ious = box_iou(anchor_bounds(anchors).take(np.s_[:, None]), box_bounds(lesions))
    best_iou = ious.max(axis=1, initial=0.0)
    # frozen, so one negative and one ignored label serve every anchor
    negative = AnchorLabel(AnchorStatus.NEGATIVE)
    ignored = AnchorLabel(AnchorStatus.IGNORED)
    labels = [negative if v < neg_iou else ignored for v in best_iou.tolist()]
    for i in np.flatnonzero(best_iou > pos_iou):
        box = lesions[ious[i].argmax()]  # the first of tied lesions
        labels[i] = AnchorLabel(AnchorStatus.POSITIVE, box, encode(box, anchors[i], 1.0))
    return labels
