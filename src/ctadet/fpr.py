"""False-positive reduction stage: multi-scale patch extraction around
candidates, training-label rules, and probability averaging.

The classifier contract, one call per volume, is
:class:`ctadet.pipeline.FprBatch`; reference classifiers live in
:mod:`ctadet.synth`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .anchors import BoundingBox, box_bounds, box_contains
from .config import RunConfig
from .postproc import CandidateDetection, Stage, nms
from .volume import AIR_HU, PatchSpec, Volume, extract_patch, normalize_hu, write_volume


@dataclass(frozen=True)
class FprPatchSet:
    """Three patches of fixed sizes centered on one candidate, normalized
    to [-1, 1]."""

    candidate: CandidateDetection
    patches: tuple[Volume, Volume, Volume]

    def __post_init__(self):
        if len(self.patches) != 3:
            raise ValueError(f"expected exactly 3 patches, got {len(self.patches)}")

    @property
    def sizes(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(p.dims for p in self.patches)


class FprLabel(Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"
    EXCLUDED = "excluded"


def select_candidates(
    cands: Sequence[CandidateDetection],
    floor: float = RunConfig.sensitivity_floor,
    iou_thresh: float = RunConfig.nms_iou,
) -> list[CandidateDetection]:
    """Pick the locations to rescore: NMS with its probability cut at the
    high-sensitivity ``floor``, so that as many true locations as possible
    reach the second stage."""
    return nms(cands, iou_thresh=iou_thresh, prob_thresh=floor)


def patch_origins(
    centers,
    dims: Sequence[int],
    patch_sizes: Sequence[tuple[int, int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``centers`` (n, 3) lie inside a volume of ``dims``, and the
    integer origins (m, len(patch_sizes), 3) of the patches centered on each
    of those m centers, one per size.

    The center voxel is ``floor(c + 0.5)``; for even sizes it maps to patch
    index size/2.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    inside = ((centers >= 0) & (centers < np.asarray(dims))).all(axis=1)
    center_idx = np.floor(centers[inside] + 0.5).astype(np.int64)
    sizes = np.asarray(patch_sizes, dtype=np.int64).reshape(-1, 3)
    return inside, center_idx[:, None, :] - sizes // 2


def extract_fpr_patches(
    v: Volume,
    cand: CandidateDetection,
    patch_sizes: Sequence[tuple[int, int, int]] = RunConfig.fpr_patch_sizes,
    pad_value: float = AIR_HU,
    window: tuple[float, float] = RunConfig.hu_window,
) -> FprPatchSet:
    """Extract the three candidate-centered patches, padded and normalized.

    The candidate center must lie inside the volume.
    """
    inside, origins = patch_origins([cand.box.center], v.dims, patch_sizes)
    if not inside[0]:
        raise ValueError(
            f"candidate center {cand.box.center} outside volume bounds {v.dims}"
        )
    patches = [
        normalize_hu(extract_patch(v, PatchSpec(origin, size, pad_value)), window)
        for origin, size in zip(origins[0], patch_sizes)
    ]
    return FprPatchSet(cand, tuple(patches))


def label_candidate(
    cand: CandidateDetection,
    lesions: Sequence[BoundingBox],
    patch_size: tuple[int, int, int],
) -> FprLabel:
    """Training label for a candidate at one patch scale.

    Positive when the candidate center lies inside any lesion box (closed
    intervals).  Otherwise excluded when some lesion center is within half
    the patch extent on every axis (too close to train on), else negative.
    """
    center = cand.box.center
    if box_contains(box_bounds(lesions), center).any():
        return FprLabel.POSITIVE
    for lesion in lesions:
        if all(
            abs(c - lc) < s / 2.0
            for c, lc, s in zip(center, lesion.center, patch_size)
        ):
            return FprLabel.EXCLUDED
    return FprLabel.NEGATIVE


@dataclass(frozen=True)
class FprTrainingRecord:
    """One pre-extracted training patch: a candidate location at one scale
    with its training label and the patch file on disk."""

    volume_id: str
    center_vox: tuple[float, float, float]
    label: FprLabel
    scale: int
    patch_file: str


def export_training_patches(
    volume: Volume,
    candidates: Sequence[CandidateDetection],
    lesions: Sequence[BoundingBox],
    out_dir,
    patch_sizes: Sequence[tuple[int, int, int]] = RunConfig.fpr_patch_sizes,
    pad_value: float = AIR_HU,
) -> list[FprTrainingRecord]:
    """Extract candidate-centered patches to disk for classifier training.

    Patches are stored raw (HU int16, one volume-file pair per patch scale)
    so normalization stays a training-time choice; labels follow
    :func:`label_candidate`, one per scale.  Candidates centered outside
    the volume are skipped.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    inside, origins = patch_origins(
        [c.box.center for c in candidates], volume.dims, patch_sizes
    )
    for idx, cand_origins in zip(np.flatnonzero(inside), origins):
        cand = candidates[idx]
        for scale, (origin, size) in enumerate(zip(cand_origins, patch_sizes)):
            patch = extract_patch(volume, PatchSpec(origin, size, pad_value))
            name = f"{volume.volume_id}-c{idx:04d}-s{scale}"
            write_volume(patch, out_dir / name)
            records.append(
                FprTrainingRecord(
                    volume_id=volume.volume_id,
                    center_vox=cand.box.center,
                    label=label_candidate(cand, lesions, size),
                    scale=scale,
                    patch_file=f"{name}.vol.json",
                )
            )
    return records


def rescore(cand: CandidateDetection, probs: Sequence[float]) -> CandidateDetection:
    """Replace the candidate probability with the mean of the per-scale
    classifier outputs and mark the candidate as second-stage."""
    if len(probs) != 3:
        raise ValueError(f"expected 3 probabilities, got {len(probs)}")
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
    mean = sum(float(p) for p in probs) / 3.0
    return replace(cand, probability=mean, stage=Stage.REDUCED)
