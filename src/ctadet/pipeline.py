"""Volume-level pipeline wiring: tiled detection with anchor decoding and
cross-tile NMS, then candidate rescoring by a patch classifier.

A detector is pluggable as a *tile scorer*: given a normalized patch and
the patch's :class:`~ctadet.anchors.AnchorGrid`, it returns a
(len(grid), 5) prediction array with one (probability, dx, dy, dz, ds)
row per grid row.  A scorer factory builds one scorer per volume; the
shipped factory wraps the ground-truth oracle detector so the whole chain
(tiling, decoding, NMS, rescoring) runs without a neural network.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .anchors import (
    AnchorGrid,
    BoundingBox,
    TargetVector,
    anchor_grid,
    box_bounds,
    box_iou,
    decode,
    encode,
)
from .config import RunConfig
from .fpr import extract_fpr_patches, patch_origins, rescore, select_candidates
from .postproc import CandidateDetection, Stage, merge_tiles
from .synth import OracleDetectorSpec, oracle_detect
from .volume import (
    PatchSpec,
    Volume,
    extract_patch,
    normalize_hu,
    tile_volume,
    truncate_cranial,
)


class VolumeDataError(ValueError):
    """A volume that the pipeline cannot process; the message names it."""


class PluginOutputError(VolumeDataError):
    """A scorer or classifier plugin returned output that breaks its
    contract; the message names the volume (and the tile)."""


class TileScorer(Protocol):
    def score(self, patch: Volume, tile: PatchSpec, grid: AnchorGrid) -> np.ndarray: ...


ScorerFactory = Callable[[Volume, Sequence[BoundingBox], RunConfig, int], TileScorer]


class OracleTileScorer:
    """Projects known candidate boxes onto the anchor grid of each tile.

    Each candidate whose center falls inside a tile is encoded against the
    best-overlapping anchor at the nearest grid point, so decoding on the
    other side reproduces the candidate box exactly and candidates in tile
    overlaps deduplicate under NMS.
    """

    def __init__(self, candidates: Sequence[CandidateDetection]):
        self.candidates = list(candidates)

    def score(self, patch: Volume, tile: PatchSpec, grid: AnchorGrid) -> np.ndarray:
        preds = np.zeros((len(grid), 5))
        for cand in self.candidates:
            local = tuple(c - o for c, o in zip(cand.box.center, tile.origin))
            if not all(0 <= lc < s for lc, s in zip(local, tile.size)):
                continue
            gi = tuple(
                min(max(int(round(lc / grid.factor - 0.5)), 0), grid.grid_size - 1)
                for lc in local
            )
            local_box = BoundingBox(local, cand.box.diameter)
            base = grid.row(gi, 0)
            # the first best-overlapping scale at this grid point
            scales = grid.bounds.take(np.s_[base : base + len(grid.sizes)])
            best = base + int(box_iou(scales, box_bounds([local_box])).argmax())
            if cand.probability > preds[best, 0]:
                t = encode(local_box, grid.anchor(best), cand.probability)
                preds[best] = t.as_tuple()
        return preds


def oracle_scorer_factory(
    volume: Volume,
    lesions: Sequence[BoundingBox],
    cfg: RunConfig,
    seed: int,
) -> OracleTileScorer:
    """Scorer factory backed by :func:`ctadet.synth.oracle_detect`."""
    spec = OracleDetectorSpec(
        hit_prob=cfg.detector_hit_prob,
        center_jitter_sigma=cfg.detector_center_jitter,
        diameter_jitter_ratio=cfg.detector_diameter_jitter,
        fp_per_volume=cfg.detector_fp_per_volume,
        fp_prob_range=cfg.detector_fp_prob_range,
        tp_prob_range=cfg.detector_tp_prob_range,
        seed=seed,
    )
    return OracleTileScorer(oracle_detect(lesions, spec, volume.dims))


def _decode_grid(
    preds: np.ndarray,
    grid: AnchorGrid,
    floor: float,
    tile: PatchSpec,
) -> list[CandidateDetection]:
    """Candidates of the rows with probability above ``floor``; each goes
    through the scalar :func:`decode`, so its bits match a per-row loop."""
    out = []
    for i in np.flatnonzero(preds[:, 0] > floor):
        anchor = grid.anchor(i)
        box, prob = decode(TargetVector(*(float(x) for x in preds[i])), anchor)
        out.append(
            CandidateDetection(
                box, prob, Stage.DETECTOR, source_tile=tile,
                scale_index=anchor.scale_index,
            )
        )
    return out


def _checked_preds(preds, n_anchors: int, where: str) -> np.ndarray:
    """A scorer's output as a float64 array, or PluginOutputError when it is
    not (n_anchors, 5), not finite, or has a probability outside [0, 1]."""
    try:
        arr = np.asarray(preds, dtype=float)
    except (TypeError, ValueError) as e:
        raise PluginOutputError(f"{where}: scorer output is not numeric: {e}") from e
    if arr.shape != (n_anchors, 5):
        problem = f"has shape {arr.shape}, expected ({n_anchors}, 5)"
    elif not np.isfinite(arr).all():
        problem = "holds NaN or Inf"
    elif not ((arr[:, 0] >= 0.0) & (arr[:, 0] <= 1.0)).all():
        problem = "has a probability outside [0, 1]"
    else:
        return arr
    raise PluginOutputError(f"{where}: scorer output {problem}")


def detect_volume(
    volume: Volume,
    lesions: Sequence[BoundingBox],
    cfg: RunConfig,
    seed: int,
    scorer_factory: ScorerFactory = oracle_scorer_factory,
) -> list[CandidateDetection]:
    """Run preprocessing, tiling, per-tile scoring, decoding, and NMS merge.

    Candidates come back in the coordinates of the *input* volume even when
    cranial truncation removed caudal slices.  The probability floor is the
    high-sensitivity one; downstream stages re-threshold as needed.
    """
    v = volume
    z_offset = 0
    if v.cranial_axis is not None:
        try:
            truncated = truncate_cranial(v, cfg.cranial_max_extent_mm)
        except ValueError as e:
            raise VolumeDataError(f"volume {v.volume_id!r}: {e}") from e
        if v.cranial_axis == "+z":
            z_offset = v.dims[2] - truncated.dims[2]
        v = truncated
    elif v.dims[2] * v.spacing[2] > cfg.cranial_max_extent_mm:
        raise VolumeDataError(
            f"volume {v.volume_id!r} exceeds the {cfg.cranial_max_extent_mm} mm "
            "extent limit but lacks the cranial-direction flag"
        )
    shifted = [b.translated((0, 0, -z_offset)) for b in lesions]
    scorer = scorer_factory(v, shifted, cfg, seed)
    grid = anchor_grid(cfg.patch_size[0], cfg.grid_size, cfg.anchor_sizes)
    tiles = tile_volume(v, cfg.patch_size, cfg.tile_overlap)
    per_tile = []
    for tile in tiles:
        patch = normalize_hu(extract_patch(v, tile), cfg.hu_window)
        preds = _checked_preds(
            scorer.score(patch, tile, grid),
            len(grid),
            f"volume {volume.volume_id!r}, tile at {tile.origin}",
        )
        per_tile.append((tile, _decode_grid(preds, grid, cfg.sensitivity_floor, tile)))
    merged = merge_tiles(per_tile, cfg.nms_iou, cfg.sensitivity_floor)
    if z_offset:
        merged = [replace(c, box=c.box.translated((0, 0, z_offset))) for c in merged]
    return merged


def reduce_volume(
    volume: Volume,
    candidates: Sequence[CandidateDetection],
    classifier,
    cfg: RunConfig,
) -> list[CandidateDetection]:
    """Rescore first-stage candidates with a patch classifier.

    Candidates are re-selected at the high-sensitivity floor, the three
    fixed-size patches extracted around each, and the candidate probability
    replaced by the classifier's averaged output.  Candidates whose center
    falls outside the volume cannot be rescored and are dropped.  A
    classifier result that is not three probabilities in [0, 1] raises
    :class:`PluginOutputError`.
    """
    selected = select_candidates(candidates, cfg.sensitivity_floor, cfg.nms_iou)
    out = []
    for cand in selected:
        if patch_origins(cand.box.center, volume.dims, cfg.fpr_patch_sizes) is None:
            continue
        patch_set = extract_fpr_patches(
            volume, cand, cfg.fpr_patch_sizes, window=cfg.hu_window
        )
        probs = classifier(patch_set)
        try:
            out.append(rescore(cand, probs))
        except (TypeError, ValueError) as e:
            raise PluginOutputError(
                f"volume {volume.volume_id!r}, candidate at {cand.box.center}: "
                f"classifier output {probs!r} rejected: {e}"
            ) from e
    return out
