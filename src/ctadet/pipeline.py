"""Volume-level pipeline wiring: tiled detection with anchor decoding and
cross-tile NMS, then candidate rescoring by a patch classifier.

A detector is pluggable as a *tile scorer*: given the volume, one tile of
it and the tile's :class:`~ctadet.anchors.AnchorGrid`, it returns a
(len(grid), 5) prediction array with one (probability, dx, dy, dz, ds)
row per grid row.  A scorer reads pixels only if it asks for them, with
:func:`tile_patch`.  A scorer factory builds one scorer per volume; the
shipped factory wraps the ground-truth oracle detector so the whole chain
(tiling, decoding, NMS, rescoring) runs without a neural network.

A second-stage *classifier* is called once per volume with an
:class:`FprBatch` and returns an (n, 3) array: one probability per
candidate and patch scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .anchors import AnchorGrid, BoundingBox, anchor_grid, box_iou, cube_bounds
from .config import RunConfig
from .fpr import (
    FprPatchSet,
    extract_fpr_patches,
    patch_origins,
    rescore,
    select_candidates,
)
from .postproc import CandidateArrays, CandidateDetection, merge_tiles
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

    exit_code = 3  # the CLI's data error


class PluginOutputError(VolumeDataError):
    """A scorer or classifier plugin returned output that breaks its
    contract; the message names the volume (and the tile)."""


class TileScorer(Protocol):
    def score(self, volume: Volume, tile: PatchSpec, grid: AnchorGrid) -> np.ndarray: ...


def tile_patch(
    volume: Volume, tile: PatchSpec, window: tuple[float, float] = RunConfig.hu_window
) -> Volume:
    """The pixels under ``tile``, HU-windowed into [-1, 1], for a scorer
    that reads them."""
    return normalize_hu(extract_patch(volume, tile), window)


ScorerFactory = Callable[[Volume, Sequence[BoundingBox], RunConfig, int], TileScorer]


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
        """The batch of those ``candidates`` centered inside ``volume``."""
        inside, origins = patch_origins(
            [c.box.center for c in candidates], volume.dims, patch_sizes
        )
        origins.flags.writeable = False
        return cls(
            volume,
            tuple(c for c, ok in zip(candidates, inside) if ok),
            origins,
            tuple(tuple(int(p) for p in s) for s in patch_sizes),
            tuple(window),
        )

    def patch_sets(self) -> Iterator[FprPatchSet]:
        """Each candidate's three padded, normalized patches, extracted when
        the iteration reaches it, so that no more than one candidate's
        pixels are held at a time."""
        for cand in self.candidates:
            yield extract_fpr_patches(
                self.volume, cand, self.patch_sizes, window=self.window
            )


Classifier = Callable[[FprBatch], np.ndarray]


class OracleTileScorer:
    """Projects known candidate boxes onto the anchor grid of each tile.

    Each candidate whose center falls inside a tile is encoded against the
    best-overlapping anchor at the nearest grid point, so decoding on the
    other side reproduces the candidate box exactly and candidates in tile
    overlaps deduplicate under NMS.  Of candidates that share an anchor,
    the first with the highest probability wins it.  No pixel is read.
    """

    def __init__(self, candidates: Sequence[CandidateDetection]):
        self._center = np.array([c.box.center for c in candidates], dtype=float).reshape(-1, 3)
        self._diameter = np.array([c.box.diameter for c in candidates], dtype=float)
        self._probability = np.array([c.probability for c in candidates], dtype=float)

    def score(self, volume: Volume, tile: PatchSpec, grid: AnchorGrid) -> np.ndarray:
        preds = np.zeros((len(grid), 5))
        local = self._center - tile.origin
        inside = np.flatnonzero(((local >= 0) & (local < tile.size)).all(axis=1))
        local, diameter = local[inside], self._diameter[inside]
        prob = self._probability[inside]
        # np.rint rounds half to even, as round() does
        gi = np.clip(np.rint(local / grid.factor - 0.5), 0, grid.grid_size - 1)
        base = grid.row(gi.astype(int), 0)
        # the first best-overlapping scale at each grid point
        scales = grid.bounds.take(base[:, None] + np.arange(len(grid.sizes)))
        own = cube_bounds(local, diameter).take(np.s_[:, None])
        best = base + box_iou(scales, own).argmax(axis=1)
        # per anchor, the first candidate of the highest probability above 0
        order = np.lexsort((-prob, best))
        head = np.diff(best[order], prepend=-1) != 0
        win = order[head & (prob[order] > 0)]
        row, size = best[win], grid.size[best[win]]
        # encode()'s arithmetic, with its scalar math.log
        preds[row, 0] = prob[win]
        preds[row, 1:4] = (local[win] - grid.position[row]) / size[:, None]
        preds[row, 4] = [math.log(r) for r in (diameter[win] / size).tolist()]
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
    what: str,
    offsets: Iterable[tuple[int, int, int]] = ((0, 0, 0),),
) -> CandidateArrays:
    """Tile-local candidates of the rows with probability above ``floor``,
    by :func:`decode`'s arithmetic with its scalar ``math.exp``, so that
    their bits match a per-row loop.  A row that decodes to no box (an
    overflowing diameter, or a cube whose volume is 0, infinite or NaN
    once shifted by any of ``offsets``, the tile's places in the volume
    coordinates that NMS runs in) raises :class:`PluginOutputError`;
    ``what`` names the output."""
    rows = np.flatnonzero(preds[:, 0] > floor)
    t, size = preds[rows], grid.size[rows]
    with np.errstate(over="ignore"):  # an infinite center is reported below
        center = grid.position[rows] + t[:, 1:4] * size[:, None]
    ds = t[:, 4].tolist()
    try:
        diameter = np.array([l * math.exp(x) for l, x in zip(size.tolist(), ds)])
    except OverflowError:
        raise PluginOutputError(
            f"{what} row {rows[np.argmax(t[:, 4])]} has ds {max(ds)}, "
            "whose box diameter overflows"
        ) from None
    for offset in offsets:
        with np.errstate(over="ignore", invalid="ignore"):
            volume = cube_bounds(center + offset, diameter).volume
        bad = ~((volume > 0) & (volume < math.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise PluginOutputError(
                f"{what} row {rows[k]} decodes to a box of diameter {diameter[k]} "
                f"at {tuple(center[k].tolist())}, whose cube has volume {volume[k]}"
            )
    return CandidateArrays.detected(center, diameter, t[:, 0], rows % len(grid.sizes))


def _checked_output(out, shape: tuple[int, int], n_probs: int, what: str) -> np.ndarray:
    """A plugin's output as a float64 array, or PluginOutputError when it is
    not ``shape``, not finite, or has a probability outside [0, 1]; the
    probabilities are its first ``n_probs`` columns.  ``what`` names the
    output and where it came from."""
    try:
        arr = np.asarray(out, dtype=float)
    except (TypeError, ValueError) as e:
        raise PluginOutputError(f"{what} is not numeric: {e}") from e
    if arr.shape != shape:
        problem = f"has shape {arr.shape}, expected {shape}"
    elif not np.isfinite(arr).all():
        problem = "holds NaN or Inf"
    elif not ((arr[:, :n_probs] >= 0.0) & (arr[:, :n_probs] <= 1.0)).all():
        problem = "has a probability outside [0, 1]"
    else:
        return arr
    raise PluginOutputError(f"{what} {problem}")


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
        what = f"volume {volume.volume_id!r}, tile at {tile.origin}: scorer output"
        preds = _checked_output(scorer.score(v, tile, grid), (len(grid), 5), 1, what)
        x, y, z = tile.origin  # the cube's place for merge_tiles and for reduce
        offsets = dict.fromkeys([(x, y, z), (x, y, z + z_offset)])
        per_tile.append((tile, _decode_grid(preds, grid, cfg.sensitivity_floor, what, offsets)))
    merged = merge_tiles(per_tile, cfg.nms_iou, cfg.sensitivity_floor)
    if z_offset:
        merged = [replace(c, box=c.box.translated((0, 0, z_offset))) for c in merged]
    return merged


def reduce_volume(
    volume: Volume,
    candidates: Sequence[CandidateDetection],
    classifier: Classifier,
    cfg: RunConfig,
) -> list[CandidateDetection]:
    """Rescore first-stage candidates with a patch classifier.

    Candidates are re-selected at the high-sensitivity floor, and those
    centered inside the volume go to the classifier in one
    :class:`FprBatch`; each candidate probability is replaced by the mean
    of its row of the classifier's output.  Candidates whose center falls
    outside the volume cannot be rescored and are dropped.  An output that
    is not an (n, 3) array of probabilities in [0, 1] raises
    :class:`PluginOutputError`.
    """
    selected = select_candidates(candidates, cfg.sensitivity_floor, cfg.nms_iou)
    batch = FprBatch.around(volume, selected, cfg.fpr_patch_sizes, cfg.hu_window)
    probs = _checked_output(
        classifier(batch),
        (len(batch.candidates), 3),
        3,
        f"volume {volume.volume_id!r}: classifier output",
    )
    return [rescore(cand, row) for cand, row in zip(batch.candidates, probs.tolist())]
