"""Synthetic phantoms and the oracle detector for end-to-end pipeline tests.

Phantoms are tubular "vessels" (random smooth walks painted as tubes)
with spherical lesions attached to the vessel paths, on a uniform
background plus Gaussian noise.  The oracle detector stands in for the
first-stage network of a real deployment: it reports ground truth with
controllable misses, jitter, and injected false positives.  The
second-stage stand-ins, the reference and perfect classifiers, live in
:mod:`ctadet.fpr`.
"""

from __future__ import annotations

import copy
import math
import queue
import threading
from contextlib import contextmanager
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .anchors import BoundingBox, Lesion, _as_boxes
from .config import RunConfig
from .postproc import CandidateDetection, Stage
from .volume import _checked_spacing

SIZE_CLASS_BINS = ((3.0, "2.5-3mm"), (5.0, "3-5mm"), (10.0, "5-10mm"))
SIZE_CLASS_TOP = ">10mm"
_FP_DIAMETER_RANGE = (2.5, 10.0)  # the oracle's false-positive box edges, in voxels
_BLOCK_CELLS = 1 << 16  # cube cells per painting block, voxels per tissue-HU block
_SLAB_VOXELS = 1 << 19  # a phantom fill's x-slabs hold about half this many voxels
_AHEAD_SLAB_PLANES = 16  # planes per drawn-ahead noise slab at most: bounds the two on small planes


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


def _paint_balls(vol: np.ndarray, centers, radius: float, value: int, x0: int = 0):
    """Set every voxel within ``radius`` of any of ``centers`` to ``value``,
    where ``vol`` is the x-slab of a volume's canvas that starts at plane
    ``x0`` and spans the volume in y and z.

    A ball is scored on a cube of edge ``k = ceil(2r) + 2`` from ``floor(c - r)``,
    which holds its box ``[floor(c - r), ceil(c + r)]``; ``d2`` adds the squared
    offsets in x, y, z order, as a ``sum`` over that box does, so painted voxels
    keep their bits.  Along x the cube is cut to ``min(k, slab planes)`` cells from
    the later of its first cell and the slab's first plane: that holds every cube
    cell in the slab, and the cells it adds past the cube lie more than ``r + 1``
    from the center.  Cells outside the slab are masked as cells outside the volume
    are, and a ball whose cube misses the slab is skipped, so painting a volume slab
    by slab sets the voxels of painting it whole.  Balls are scored in blocks of
    at most ``_BLOCK_CELLS`` cube cells (one ball's cube when that is larger), so
    the scratch, about 18 bytes per cell, stays near 1 MiB; a block's size moves
    neither the painted set nor the bits of ``d2``.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    k = math.ceil(2.0 * radius) + 2
    kx = min(k, vol.shape[0])
    first = np.floor(centers[:, 0] - radius)
    centers = centers[(first + k > x0) & (first < x0 + vol.shape[0])]
    step = max(1, _BLOCK_CELLS // (kx * k * k))
    lo = np.array([x0, 0, 0])[:, None]
    hi = lo + np.array(vol.shape)[:, None]
    strides = np.array([vol.shape[1] * vol.shape[2], vol.shape[2], 1])[:, None]
    for b in range(0, len(centers), step):
        c = centers[b : b + step, :, None]
        g = np.floor(c - radius).astype(np.int64)
        g[:, 0] = np.maximum(g[:, 0], x0)
        g = g + np.arange(k)  # (n, 3, k); along x only the first kx are scored
        off2 = (g - c) ** 2
        off2[(g < lo) | (g >= hi)] = np.inf  # outside the slab or the volume
        d2 = off2[:, 0, :kx, None, None] + off2[:, 1, None, :, None]
        inside = d2 + off2[:, 2, None, None, :] <= radius * radius
        g = (g - lo) * strides
        flat = g[:, 0, :kx, None, None] + g[:, 1, None, :, None] + g[:, 2, None, None, :]
        np.put(vol, flat[inside], value)


def _separated(a: BoundingBox, b: BoundingBox, margin: float) -> bool:
    # disjoint with at least `margin` clearance along some axis
    return any(
        abs(ca - cb) - (a.diameter + b.diameter) / 2.0 >= margin
        for ca, cb in zip(a.center, b.center)
    )


def _fill_noise(rng: np.random.Generator | None, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with standard normals, or with zeros without ``rng`` (a
    noise-free phantom): every noise number of a phantom is drawn here."""
    if rng is None:
        out.fill(0.0)
        return out
    return rng.standard_normal(out=out)


def _draw_ahead(rng, sizes, free: queue.SimpleQueue, ready: queue.SimpleQueue) -> None:
    """The noise thread: for each slab, take a free buffer, fill its first
    ``sizes[i]`` planes and pass it on, until the sizes or a ``None``
    buffer end it.  An exception is passed on in place of a buffer."""
    try:
        for m in sizes:
            buf = free.get()
            if buf is None:
                return
            _fill_noise(rng, buf[:m])
            ready.put(buf)
    except BaseException as e:  # the consumer re-raises it
        ready.put(e)


@contextmanager
def _noise_slabs(rng, sizes, plane, ahead: bool) -> Iterator[Iterator[np.ndarray]]:
    """An iterator over standard-normal slabs of ``sizes[i]`` planes of
    shape ``plane``, drawn from ``rng`` in order, so they hold the numbers
    of one whole draw; without ``rng`` the slabs hold zeros.  A slab is
    valid, and the caller's to write into, until the next one is taken.

    With ``ahead``, ``rng`` and any slab to draw, a helper thread owns ``rng`` and draws each
    slab while the one before it is in use, into two alternating buffers (the
    draw releases the GIL); the thread is joined on exit, also on an error.
    Otherwise each slab is drawn, into one buffer, when it is taken.
    """
    shape = (max(sizes, default=0), *plane)
    if not (ahead and rng is not None and sizes):
        buf = np.empty(shape)
        yield (_fill_noise(rng, buf[:m]) for m in sizes)
        return
    free, ready = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty(shape))
    helper = threading.Thread(
        target=_draw_ahead, args=(rng, sizes, free, ready), name="phantom-noise", daemon=True
    )
    helper.start()

    def slabs():
        for m in sizes:
            buf = ready.get()
            if isinstance(buf, BaseException):
                raise buf
            yield buf[:m]
            free.put(buf)

    try:
        yield slabs()
    finally:
        free.put(None)
        helper.join()


def _slab_planes(dims: Sequence[int], ahead: bool) -> int:
    """Planes per x-slab when filling a phantom of ``dims``: about
    ``_SLAB_VOXELS // 2`` voxels, at least one plane and at most ``dims[0]``;
    at most ``_AHEAD_SLAB_PLANES`` when the noise is drawn ``ahead`` into two
    buffers."""
    step = min(dims[0], max(1, _SLAB_VOXELS // 2 // (dims[1] * dims[2])))
    return min(step, _AHEAD_SLAB_PLANES) if ahead else step


def generate_phantom(cfg: RunConfig, volume_id: str = "phantom", *, overlap: bool = False):
    """Draw a phantom and its ground-truth lesion list from the
    ``phantom_*``, vessel and aneurysm fields of ``cfg``: a
    :class:`Phantom`, whose voxels are filled only when asked for, and the
    lesions.

    Deterministic given ``cfg.seed``, and independent of ``overlap``.
    Lesion annotations carry a size-class label (from the physical
    diameter) and the index of the vessel they attach to.  Raises if
    lesions are asked for without vessels, if a vessel does not fit the
    dims, or if the requested lesions cannot be placed without overlap
    after bounded retries.

    Every draw for vessels and lesions is made here; a fill then makes the
    phantom in x-slabs of about ``_SLAB_VOXELS // 2`` voxels.  Each slab is
    painted into a slab-sized uint8 tissue-label canvas, and its tissue HU
    is added into its scaled noise slab in place, through a block of
    ``_BLOCK_CELLS`` float64 values: ``z * sigma + hu`` has the bits of
    ``hu + z * sigma``, as IEEE addition commutes.  Each block is rounded,
    clipped and cast into an int16 slab, the one handed on.  So its noise
    slab(s), the canvas and the int16 slab are all a fill holds that scale
    with the volume, and the whole phantom too when it fills ``values``.
    With ``overlap`` and noise, a helper thread draws each noise slab while
    the one before it is painted, filled and taken; it pays only where a
    core is spare.  Its two slabs are cut to at most
    ``_AHEAD_SLAB_PLANES`` planes (:func:`_slab_planes`), so a 128x96 plane
    takes 16-plane slabs, not 21; inline, one slab keeps the larger size,
    whose fewer, longer x-runs fill faster.
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
    return Phantom(cfg, volume_id, vessels, lesions, noise, overlap and noise is not None), lesions


class Phantom:
    """A drawn phantom, with a :class:`~ctadet.volume.Volume`'s ``dims``,
    ``spacing``, ``volume_id`` and ``cranial_axis``, whose voxels are
    filled when asked for: slab by slab by :meth:`x_slabs`, which
    :func:`~ctadet.volume.write_volume` writes as it goes, or whole by
    ``values``.  Each fill starts from a copy of the noise generator as it
    was after the vessel and lesion draws, so every fill gives the same
    voxels.
    """

    def __init__(self, cfg: RunConfig, volume_id: str, vessels, lesions, noise_rng, ahead: bool):
        self.dims = tuple(int(d) for d in cfg.phantom_dims)
        self.spacing = _checked_spacing(cfg.phantom_spacing)
        self.volume_id = volume_id
        self.cranial_axis = "+z"
        self._cfg = cfg
        self._vessels = vessels
        self._lesions = lesions
        self._noise_rng = noise_rng
        self._ahead = ahead

    @cached_property
    def values(self) -> np.ndarray:
        """The whole int16 phantom, Fortran-ordered, filled on first read."""
        # the phantom, then the noise buffers, then the slab buffers: with the
        # slab buffers first, glibc's heap placement kept a 128x128x96 synth
        # worker's peak about 3 MiB higher
        values = np.empty(self.dims, dtype=np.int16, order="F")
        x = 0
        for slab in self.x_slabs():
            values[x : x + len(slab)] = slab
            x += len(slab)
        return values

    def x_slabs(self) -> Iterator[np.ndarray]:
        """The phantom's int16 x-slabs in x order, each valid until the
        next one is taken."""
        cfg, dims = self._cfg, self.dims
        # x-slabs in C order draw the same noise numbers as one whole-volume draw
        step = _slab_planes(dims, self._ahead)
        starts = range(0, dims[0], step)
        sizes = [min(step, dims[0] - x) for x in starts]
        hu = np.array([cfg.background_hu, cfg.vessel_hu, cfg.aneurysm_hu], dtype=np.float64)
        rng = copy.deepcopy(self._noise_rng)
        with _noise_slabs(rng, sizes, dims[1:], self._ahead) as noise:
            # tissue labels index `hu`: 0 background, 1 vessel, 2 aneurysm
            canvas = np.empty((step, *dims[1:]), dtype=np.uint8)
            tissue = np.empty(min(_BLOCK_CELLS, canvas.size))
            hu_slab = np.empty(canvas.shape, dtype=np.int16)  # what is handed on
            for x, m in zip(starts, sizes):
                labels = canvas[:m]
                labels.fill(0)
                for path, radius in self._vessels:
                    _paint_balls(labels, path, radius, 1, x)
                for lesion in self._lesions:
                    _paint_balls(labels, lesion.box.center, lesion.box.diameter / 2.0, 2, x)
                slab = next(noise)
                slab *= cfg.phantom_noise_sigma
                flat, flat_labels = slab.reshape(-1), labels.reshape(-1)
                flat_hu = hu_slab[:m].reshape(-1)
                for i in range(0, flat.size, tissue.size):
                    block = flat[i : i + tissue.size]
                    block += np.take(hu, flat_labels[i : i + tissue.size],
                                     out=tissue[: block.size], mode="clip")
                    np.clip(np.rint(block, out=block), -32768, 32767, out=block)
                    flat_hu[i : i + block.size] = block
                yield hu_slab[:m]


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
