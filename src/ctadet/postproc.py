"""Candidate filtering, greedy 3D NMS, and cross-tile aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .anchors import BoundingBox, BoxBounds, box_iou, cube_bounds, overlapping_pairs
from .config import RunConfig

if TYPE_CHECKING:  # eval reads candidates without loading the volume code
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
    # total order: probability desc, then box center/diameter, then
    # provenance; CandidateArrays.sort_order sorts rows in this order
    return (
        -c.probability,
        c.box.center,
        c.box.diameter,
        c.stage.value,
        -1 if c.scale_index is None else c.scale_index,
        (-1, -1, -1) if c.source_tile is None else c.source_tile.origin,
    )


_STAGES = tuple(sorted(Stage, key=lambda s: s.value))  # in _sort_key's order


@dataclass(frozen=True)
class CandidateArrays:
    """Candidates as columns, one row each, which NMS sorts and suppresses
    without building objects.  ``stage`` indexes ``_STAGES``,
    ``scale_index`` is -1 for none and ``tile`` indexes ``tiles``, -1 for
    none.  A table made :meth:`of` objects keeps them in ``objects``."""

    center: np.ndarray  # (n, 3)
    diameter: np.ndarray  # (n,)
    probability: np.ndarray  # (n,)
    scale_index: np.ndarray  # (n,) int
    stage: np.ndarray  # (n,) int
    tile: np.ndarray  # (n,) int
    tiles: tuple[PatchSpec, ...] = ()
    objects: Optional[tuple[CandidateDetection, ...]] = None

    def __len__(self) -> int:
        return len(self.probability)

    @classmethod
    def of(cls, cands: Sequence[CandidateDetection]) -> "CandidateArrays":
        tiles = tuple(t for t in dict.fromkeys(c.source_tile for c in cands) if t is not None)
        index = {t: i for i, t in enumerate(tiles)}
        return cls(
            np.array([c.box.center for c in cands], dtype=float).reshape(-1, 3),
            np.array([c.box.diameter for c in cands], dtype=float),
            np.array([c.probability for c in cands], dtype=float),
            np.array([-1 if c.scale_index is None else c.scale_index for c in cands], dtype=int),
            np.array([_STAGES.index(c.stage) for c in cands], dtype=int),
            np.array([index.get(c.source_tile, -1) for c in cands], dtype=int),
            tiles,
            tuple(cands),
        )

    @classmethod
    def detected(cls, center, diameter, probability, scale_index) -> "CandidateArrays":
        """Detector rows with no source tile."""
        n = len(probability)
        return cls(center, diameter, probability, scale_index,
                   np.full(n, _STAGES.index(Stage.DETECTOR)), np.full(n, -1))

    def sort_order(self) -> np.ndarray:
        """The row order of ``sorted(key=_sort_key)``, as one stable
        lexsort (whose last key is the primary one)."""
        origin = np.array([t.origin for t in self.tiles] + [(-1, -1, -1)])[self.tile]
        c = self.center
        return np.lexsort((
            origin[:, 2], origin[:, 1], origin[:, 0], self.scale_index, self.stage,
            self.diameter, c[:, 2], c[:, 1], c[:, 0], -self.probability,
        ))

    def detections(self, rows: np.ndarray) -> list[CandidateDetection]:
        """The candidates at ``rows``: the kept objects, or new ones."""
        rows = rows.tolist()
        if self.objects is not None:
            return [self.objects[i] for i in rows]
        tiles = self.tiles + (None,)
        return [
            CandidateDetection(BoundingBox(tuple(c), d), p, _STAGES[s], tiles[t],
                               None if k < 0 else k)
            for c, d, p, s, t, k in zip(
                self.center[rows].tolist(), self.diameter[rows].tolist(),
                self.probability[rows].tolist(), self.stage[rows].tolist(),
                self.tile[rows].tolist(), self.scale_index[rows].tolist(),
            )
        ]


def _greedy_keep(bounds: BoxBounds, iou_thresh: float) -> np.ndarray:
    """Which cubes greedy NMS keeps when they come in priority order: each
    kept cube suppresses every later one whose IoU with it is not at or
    below ``iou_thresh``.  :func:`box_iou` runs only on the pairs that
    :func:`overlapping_pairs` finds, since every other pair has IoU 0."""
    n = len(bounds.volume)
    if not iou_thresh >= 0:  # every IoU is >= 0 or NaN: the first suppresses all
        return np.arange(n) < 1
    first, later = overlapping_pairs(bounds)
    hit = ~(box_iou(bounds.take(later), bounds.take(first)) <= iou_thresh)
    removed = [False] * n
    # pairs come in order of ``first``, so a cube's own fate is settled
    # before the pairs in which it would suppress
    for a, b in zip(first[hit].tolist(), later[hit].tolist()):
        if not removed[a]:
            removed[b] = True
    return ~np.array(removed, dtype=bool)


def nms(
    cands: Union[Sequence[CandidateDetection], CandidateArrays],
    iou_thresh: float = RunConfig.nms_iou,
    prob_thresh: float = RunConfig.nms_prob,
) -> list[CandidateDetection]:
    """Greedy non-maximum suppression.

    Candidates at or below ``prob_thresh`` are dropped first.  The
    highest-probability survivor is kept and suppresses every remaining
    candidate with IoU strictly above ``iou_thresh``; ties in probability
    are broken by lexicographic box center so the result is deterministic.
    Output is sorted by descending probability.  ``cands`` may be a
    :class:`CandidateArrays`, whose objects are built only for kept rows.
    """
    table = cands if isinstance(cands, CandidateArrays) else CandidateArrays.of(cands)
    order = table.sort_order()
    order = order[table.probability[order] > prob_thresh]
    bounds = cube_bounds(table.center[order], table.diameter[order])
    return table.detections(order[_greedy_keep(bounds, iou_thresh)])


def merge_tiles(
    per_tile: Sequence[tuple[PatchSpec, Union[Sequence[CandidateDetection], CandidateArrays]]],
    iou_thresh: float = RunConfig.nms_iou,
    prob_thresh: float = RunConfig.nms_prob,
) -> list[CandidateDetection]:
    """Globalize per-tile candidates, concatenate, and run one NMS pass:
    each tile's rows are shifted by the tile origin into volume
    coordinates, then :func:`nms` runs on them all.

    The output does not depend on the order of the tile list.
    """
    tiles = tuple(tile for tile, _ in per_tile)
    parts = [CandidateArrays.of(())] + [
        c if isinstance(c, CandidateArrays) else CandidateArrays.of(c) for _, c in per_tile
    ]

    def stacked(column):
        return np.concatenate([getattr(p, column) for p in parts])

    tile = np.repeat(np.arange(len(tiles)), [len(p) for p in parts[1:]])
    origin = np.array([t.origin for t in tiles], dtype=int).reshape(-1, 3)
    merged = CandidateArrays(
        stacked("center") + origin[tile], stacked("diameter"), stacked("probability"),
        stacked("scale_index"), stacked("stage"), tile, tiles,
    )
    return nms(merged, iou_thresh=iou_thresh, prob_thresh=prob_thresh)
