"""False-positive reduction stage: multi-scale patch extraction around
candidates and probability averaging.

The classifier contract, one call per volume, is
:class:`ctadet.pipeline.FprBatch`; reference classifiers live in
:mod:`ctadet.synth`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import RunConfig
from .postproc import CandidateDetection, Stage, nms
from .volume import AIR_HU, PatchSpec, Volume, extract_patch, normalize_hu


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
