"""Synthetic phantoms and the oracle detector for end-to-end pipeline tests.

Phantoms are tubular "vessels" (random smooth walks painted as tubes)
with spherical lesions attached to the vessel paths, on a uniform
background; each voxel's HU is a rounded Gaussian around its tissue's.
The oracle detector stands in for the
first-stage network of a real deployment: it reports ground truth with
controllable misses, jitter, and injected false positives.  The
second-stage stand-ins, the reference and perfect classifiers, live in
:mod:`ctadet.fpr`.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .anchors import BoundingBox, Lesion, _as_boxes
from .config import RunConfig
from .postproc import CandidateDetection, Stage
from .volume import _checked_spacing, _slab_planes

SIZE_CLASS_BINS = ((3.0, "2.5-3mm"), (5.0, "3-5mm"), (10.0, "5-10mm"))
SIZE_CLASS_TOP = ">10mm"
_FP_DIAMETER_RANGE = (2.5, 10.0)  # the oracle's false-positive box edges, in voxels
_BLOCK_CELLS = 1 << 16  # cube cells per painting block, voxels per background-HU block
_QUANTILES = 1 << 16  # entries of a tissue's HU table: one per value of a uint16 draw


def size_class(diameter_vox: float, spacing: Sequence[float]) -> str:
    """Size-class label from the physical diameter (mean spacing across axes)."""
    mm = diameter_vox * float(np.mean(spacing))
    for upper, label in SIZE_CLASS_BINS:
        if mm < upper:
            return label
    return SIZE_CLASS_TOP


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(0.0, 1.0, 3)
        n = math.sqrt(v.dot(v))  # numpy's norm of a 1-D float array, without its overhead
        if n > 1e-6:
            return v / n


def _vessel_path(
    rng: np.random.Generator, dims: Sequence[int], margin: float
) -> np.ndarray:
    """Smooth random walk through the volume, reflected at the margins.

    The walk steps on Python floats, whose arithmetic is float64's; only
    the step's norm is numpy's, ``math.sqrt(v.dot(v))`` as in
    :func:`_random_unit`, so the points keep their bits.
    """
    lo = np.full(3, margin)
    hi = np.asarray(dims, dtype=float) - 1.0 - margin
    px, py, pz = rng.uniform(lo, hi).tolist()
    dx, dy, dz = _random_unit(rng).tolist()
    n_steps = int(2.0 * max(dims))
    kicks = 0.35 * rng.normal(0.0, 1.0, (n_steps, 3))  # as one draw per step
    (lx, ly, lz), (hx, hy, hz) = lo.tolist(), hi.tolist()
    v = np.empty(3)  # the direction, for its norm
    points = []
    for kx, ky, kz in kicks.tolist():
        points.append((px, py, pz))
        v[0] = dx = dx + kx
        v[1] = dy = dy + ky
        v[2] = dz = dz + kz
        n = math.sqrt(v.dot(v))
        dx, dy, dz = dx / n, dy / n, dz / n
        px, py, pz = px + dx, py + dy, pz + dz
        if px < lx:
            px, dx = 2 * lx - px, abs(dx)
        elif px > hx:
            px, dx = 2 * hx - px, -abs(dx)
        if py < ly:
            py, dy = 2 * ly - py, abs(dy)
        elif py > hy:
            py, dy = 2 * hy - py, -abs(dy)
        if pz < lz:
            pz, dz = 2 * lz - pz, abs(dz)
        elif pz > hz:
            pz, dz = 2 * hz - pz, -abs(dz)
    return np.array(points).reshape(n_steps, 3)


def _ball_voxels(shape, centers, radius: float, z0: int = 0) -> Iterator[np.ndarray]:
    """The voxels within ``radius`` of any of ``centers`` in the z-slab of
    ``shape`` ``(nx, ny, m)`` that starts at plane ``z0`` of a volume and
    spans it in x and y, as blocks of flat indices into the slab, x
    fastest (the raw file's order); a voxel may recur.

    A ball is scored on a cube of edge ``k = ceil(2r) + 2`` from ``floor(c - r)``,
    which holds its box ``[floor(c - r), ceil(c + r)]``; ``d2`` adds the squared
    offsets in x, y, z order, as a ``sum`` over that box does, so painted voxels
    keep their bits.  Along z the cube is cut to ``min(k, slab planes)`` cells from
    the later of its first cell and the slab's first plane: that holds every cube
    cell in the slab, and the cells it adds past the cube lie more than ``r + 1``
    from the center.  Cells outside the slab are masked as cells outside the volume
    are, and a ball whose cube misses the slab is skipped, so the voxels of a
    volume's slabs are those of the volume taken whole.  Balls are scored in blocks
    of at most ``_BLOCK_CELLS`` cube cells (one ball's cube when that is larger), so
    the scratch, about 18 bytes per cell, stays near 1 MiB; a block's size moves
    neither the voxels nor the bits of ``d2``.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    k = math.ceil(2.0 * radius) + 2
    kz = min(k, shape[2])
    first = np.floor(centers[:, 2] - radius)
    centers = centers[(first + k > z0) & (first < z0 + shape[2])]
    step = max(1, _BLOCK_CELLS // (kz * k * k))
    lo = np.array([0, 0, z0])[:, None]
    hi = lo + np.array(shape)[:, None]
    strides = np.array([1, shape[0], shape[0] * shape[1]])[:, None]
    for b in range(0, len(centers), step):
        c = centers[b : b + step, :, None]
        g = np.floor(c - radius).astype(np.int64)
        g[:, 2] = np.maximum(g[:, 2], z0)
        g = g + np.arange(k)  # (n, 3, k); along z only the first kz are scored
        off2 = (g - c) ** 2
        off2[(g < lo) | (g >= hi)] = np.inf  # outside the slab or the volume
        # cells as (n, z, y, x), so each ball's indices ascend
        d2 = off2[:, 0, None, None, :] + off2[:, 1, None, :, None]
        inside = d2 + off2[:, 2, :kz, None, None] <= radius * radius
        g = (g - lo) * strides
        # the cells' flat indices are dropped before the block is yielded
        yield (g[:, 2, :kz, None, None] + g[:, 1, None, :, None] + g[:, 0, None, None, :])[inside]


def _separated(a: BoundingBox, b: BoundingBox, margin: float) -> bool:
    # disjoint with at least `margin` clearance along some axis
    return any(
        abs(ca - cb) - (a.diameter + b.diameter) / 2.0 >= margin
        for ca, cb in zip(a.center, b.center)
    )


def _hu_table(hu: float, sigma: float) -> np.ndarray:
    """The HU of a voxel of one tissue, ``clip(rint(hu + sigma * Z))`` to
    int16 for a standard normal ``Z``, as an inverse-CDF table: entry ``j``
    of the ``_QUANTILES`` int16 entries is the smallest ``k`` with
    ``P(HU <= k) > (j + 0.5) / _QUANTILES``, so a uniform uint16 draw is a
    voxel's HU at 2**-16 resolution.  Every entry is ``rint(hu)`` (ties to
    even) when ``sigma`` is 0.

    ``P(HU <= k)`` is ``erfc((hu - k - 0.5) / (sigma * sqrt 2)) / 2`` below
    32767 and 1 at it, and ``ceil(_QUANTILES * P - 0.5)`` quantiles lie
    below it, exactly: scaling by a power of two rounds nothing, and
    subtracting 0.5 is exact when the product is at least 0.5 and leaves a
    negative result, which counts none, otherwise.  No quantile lies more
    than 5 sigma from ``hu`` (``2**16 * Phi(-5)`` is below 0.5; the table's
    support is about ``hu`` ± 4.33 sigma), so only the integers in that
    span, clipped to int16, are stepped: at most 65,536 of them.
    """
    if sigma == 0:
        return np.full(_QUANTILES, np.clip(np.rint(hu), -32768, 32767), dtype=np.int16)
    lo = math.floor(min(max(hu - 5.0 * sigma, -32768), 32767))
    hi = math.ceil(min(max(hu + 5.0 * sigma, -32768), 32767))
    scale = sigma * math.sqrt(2.0)
    below = np.fromiter(
        (math.ceil(_QUANTILES // 2 * math.erfc((hu - k - 0.5) / scale) - 0.5)
         for k in range(lo, hi)),
        dtype=np.int64, count=hi - lo)
    counts = np.diff(below, prepend=0, append=_QUANTILES)
    return np.repeat(np.arange(lo, hi + 1, dtype=np.int16), counts)


def generate_phantom(cfg: RunConfig, volume_id: str = "phantom"):
    """Draw a phantom and its ground-truth lesion list from the
    ``phantom_*``, vessel and aneurysm fields of ``cfg``: a
    :class:`Phantom`, whose voxels are filled only when asked for, and the
    lesions.

    Deterministic given ``cfg.seed``.  Lesion annotations carry a
    size-class label (from the physical diameter) and the index of the
    vessel they attach to.  Raises if lesions are asked for without
    vessels, if a vessel does not fit the dims, or if the requested lesions
    cannot be placed without overlap after bounded retries.

    Every draw for vessels and lesions is made here; a fill then makes the
    phantom in z-slabs of at most ``_SLAB_VOXELS`` voxels
    (:func:`~ctadet.volume._slab_planes`), in file order.  For each slab it
    draws one uint16 per voxel, x fastest, and looks each voxel's HU up in
    its tissue's table (:func:`_hu_table`): the background table for the
    whole slab, in blocks of ``_BLOCK_CELLS`` voxels, then the vessel table
    and then the aneurysm table at the voxels of their balls
    (:func:`_ball_voxels`).  Slabs of an even voxel count draw what one
    whole-volume draw would, as numpy's uint16 draw takes two from each
    32-bit word.  So the int16 slab, its draw and the three 128 KiB tables
    are all a fill holds that scale with the volume, and the whole phantom
    too when it fills ``values``.  A noise-free phantom draws nothing.
    """
    if cfg.n_aneurysms > 0 and cfg.n_vessels == 0:
        raise ValueError("aneurysms attach to vessels; need n_vessels >= 1")
    rng = np.random.default_rng(cfg.seed)
    dims = tuple(int(d) for d in cfg.phantom_dims)
    vessels = []
    for _ in range(cfg.n_vessels):
        radius = rng.uniform(*cfg.vessel_radius_range)
        margin = 2.0 + radius
        if min(dims) - 1.0 - margin < margin:  # where the path's start draw would fail
            raise ValueError(
                f"phantom_dims {list(dims)} are too small for vessel radius {radius:.6g}: "
                f"each dim must be at least 5 + 2 * radius"
            )
        vessels.append((_vessel_path(rng, dims, margin), radius))

    lesions: list[Lesion] = []
    for _ in range(cfg.n_aneurysms):
        for _attempt in range(200):
            v_idx = int(rng.integers(len(vessels)))
            path, radius = vessels[v_idx]
            point = path[int(rng.integers(len(path)))]
            diameter = float(rng.uniform(*cfg.aneurysm_diameter_range))
            center = point + (radius + 0.45 * diameter) * _random_unit(rng)
            box = BoundingBox(tuple(center), diameter)
            if any(l < 0.5 for l in box.lo) or any(
                h > d - 1.5 for h, d in zip(box.hi, dims)
            ):
                continue
            if all(_separated(box, l.box, 3.0) for l in lesions):
                lesions.append(
                    Lesion(
                        box,
                        {
                            "size_class": size_class(diameter, cfg.phantom_spacing),
                            "location": f"vessel-{v_idx}",
                        },
                    )
                )
                break
        else:
            raise ValueError(
                f"could not place {cfg.n_aneurysms} non-overlapping lesions "
                f"in dims {dims} after 200 retries"
            )

    noise = rng if cfg.phantom_noise_sigma > 0 else None  # a noise-free phantom draws nothing
    return Phantom(cfg, volume_id, vessels, lesions, noise), lesions


class Phantom:
    """A drawn phantom, with a :class:`~ctadet.volume.Volume`'s ``dims``,
    ``spacing``, ``volume_id`` and ``cranial_axis``, whose voxels are
    filled when asked for: slab by slab by :meth:`z_slabs`, which
    :func:`~ctadet.volume.write_volume` writes as it goes, or whole by
    ``values``.  Each fill starts from a copy of the noise generator as it
    was after the vessel and lesion draws, so every fill gives the same
    voxels.
    """

    def __init__(self, cfg: RunConfig, volume_id: str, vessels, lesions, noise_rng):
        self.dims = tuple(int(d) for d in cfg.phantom_dims)
        self.spacing = _checked_spacing(cfg.phantom_spacing)
        self.volume_id = volume_id
        self.cranial_axis = "+z"
        self._cfg = cfg
        self._vessels = vessels
        self._lesions = lesions
        self._noise_rng = noise_rng

    @cached_property
    def values(self) -> np.ndarray:
        """The whole int16 phantom, Fortran-ordered, filled on first read."""
        # the phantom before the fill's buffers: with the slab buffers
        # first, glibc's heap placement kept a 128x128x96 synth worker's
        # peak about 3 MiB higher
        values = np.empty(self.dims, dtype=np.int16, order="F")
        z = 0
        for slab in self.z_slabs():
            values[:, :, z : z + slab.shape[2]] = slab
            z += slab.shape[2]
        return values

    def z_slabs(self) -> Iterator[np.ndarray]:
        """The phantom's int16 z-slabs in z order, Fortran-ordered, each
        valid until the next one is taken."""
        cfg, (nx, ny, nz) = self._cfg, self.dims
        planes = _slab_planes(self.dims)
        background, vessel, aneurysm = (
            _hu_table(hu, cfg.phantom_noise_sigma)
            for hu in (cfg.background_hu, cfg.vessel_hu, cfg.aneurysm_hu))
        rng = copy.deepcopy(self._noise_rng)
        slab = np.empty(nx * ny * planes, dtype=np.int16)  # what is handed on
        # noise-free, each table holds one value, so any draws do
        quiet = np.zeros(slab.size, np.uint16) if rng is None else None
        for z0 in range(0, nz, planes):
            shape = (nx, ny, min(planes, nz - z0))
            n = math.prod(shape)
            draws = quiet[:n] if rng is None else rng.integers(0, _QUANTILES, n, np.uint16)
            hu = slab[:n]
            for i in range(0, n, _BLOCK_CELLS):  # take's index scratch is 8 bytes a voxel
                np.take(background, draws[i : i + _BLOCK_CELLS], out=hu[i : i + _BLOCK_CELLS])
            for path, radius in self._vessels:
                for idx in _ball_voxels(shape, path, radius, z0):
                    hu[idx] = vessel[draws[idx]]
            for lesion in self._lesions:
                for idx in _ball_voxels(shape, lesion.box.center, lesion.box.diameter / 2.0, z0):
                    hu[idx] = aneurysm[draws[idx]]
            yield hu.reshape(shape, order="F")


def oracle_detect(
    truth: Sequence[BoundingBox],
    cfg: RunConfig,
    seed: int,
    dims: tuple[int, int, int],
) -> list[CandidateDetection]:
    """Ground-truth-backed detector with the errors that the ``detector_*``
    fields of ``cfg`` set.

    Each lesion is independently reported with probability
    ``detector_hit_prob``, its box jittered; Poisson-many false candidates
    are placed uniformly, kept clear of every true lesion.  Per-lesion
    substreams are derived from (seed, 0, lesion index) and the
    false-positive stream from (seed, 1), so results are independent of
    list-external state.
    """
    boxes = _as_boxes(truth)
    cands: list[CandidateDetection] = []
    for i, box in enumerate(boxes):
        r = np.random.default_rng([seed, 0, i])
        if r.random() >= cfg.detector_hit_prob:
            continue
        center = np.asarray(box.center, dtype=float)
        if cfg.detector_center_jitter > 0:
            center = center + r.normal(0.0, cfg.detector_center_jitter, 3)
        diameter = box.diameter
        if cfg.detector_diameter_jitter > 0:
            diameter *= 1.0 + cfg.detector_diameter_jitter * r.uniform(-1.0, 1.0)
        prob = float(r.uniform(*cfg.detector_tp_prob_range))
        cands.append(
            CandidateDetection(
                BoundingBox(tuple(center), max(diameter, 0.1)), prob, Stage.DETECTOR
            )
        )

    r = np.random.default_rng([seed, 1])
    for _ in range(int(r.poisson(cfg.detector_fp_per_volume))):
        for _attempt in range(100):
            center = tuple(r.uniform(2.0, d - 3.0) for d in dims)
            diameter = float(r.uniform(*_FP_DIAMETER_RANGE))
            fp_box = BoundingBox(center, diameter)
            if all(_separated(fp_box, b, 4.0) for b in boxes):
                prob = float(r.uniform(*cfg.detector_fp_prob_range))
                cands.append(CandidateDetection(fp_box, prob, Stage.DETECTOR))
                break
    return cands
