"""Candidate filtering, greedy 3D NMS, and cross-tile aggregation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .anchors import BoundingBox, box_bounds, box_iou
from .config import RunConfig
from .volume import PatchSpec


class Stage(Enum):
    DETECTOR = "detector"
    REDUCED = "reduced"


@dataclass(frozen=True)
class CandidateDetection:
    """A scored box plus provenance (originating tile and anchor scale)."""

    box: BoundingBox
    probability: float
    stage: Stage = Stage.DETECTOR
    source_tile: Optional[PatchSpec] = None
    scale_index: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


def _sort_key(c: CandidateDetection):
    # total order: probability desc, then box center/diameter, then provenance
    return (
        -c.probability,
        c.box.center,
        c.box.diameter,
        c.stage.value,
        -1 if c.scale_index is None else c.scale_index,
        (-1, -1, -1) if c.source_tile is None else c.source_tile.origin,
    )


def nms(
    cands: Sequence[CandidateDetection],
    iou_thresh: float = RunConfig.nms_iou,
    prob_thresh: float = RunConfig.nms_prob,
) -> list[CandidateDetection]:
    """Greedy non-maximum suppression.

    Candidates at or below ``prob_thresh`` are dropped first.  The
    highest-probability survivor is kept and suppresses every remaining
    candidate with IoU strictly above ``iou_thresh``; ties in probability
    are broken by lexicographic box center so the result is deterministic.
    Output is sorted by descending probability.  Each kept candidate takes
    one :func:`~ctadet.anchors.box_iou` call against the survivors after it.
    """
    alive = sorted((c for c in cands if c.probability > prob_thresh), key=_sort_key)
    bounds = box_bounds([c.box for c in alive])
    rest = np.arange(len(alive))
    kept: list[CandidateDetection] = []
    while rest.size:
        best, rest = rest[0], rest[1:]
        kept.append(alive[best])
        rest = rest[box_iou(bounds.take(rest), bounds.take(best)) <= iou_thresh]
    return kept


def to_volume_coords(
    cands: Sequence[CandidateDetection], tile: PatchSpec
) -> list[CandidateDetection]:
    """Translate tile-local candidates into parent-volume coordinates."""
    return [
        replace(c, box=c.box.translated(tile.origin), source_tile=tile)
        for c in cands
    ]


def merge_tiles(
    per_tile: Sequence[tuple[PatchSpec, Sequence[CandidateDetection]]],
    iou_thresh: float = RunConfig.nms_iou,
    prob_thresh: float = RunConfig.nms_prob,
) -> list[CandidateDetection]:
    """Globalize per-tile candidates, concatenate, and run one NMS pass.

    The output does not depend on the order of the tile list.
    """
    merged: list[CandidateDetection] = []
    for tile, cands in per_tile:
        merged.extend(to_volume_coords(cands, tile))
    return nms(merged, iou_thresh=iou_thresh, prob_thresh=prob_thresh)
