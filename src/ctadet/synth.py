"""Synthetic phantoms and reference scorers for end-to-end pipeline tests.

Phantoms are tubular "vessels" (random smooth walks painted as tubes)
with spherical lesions attached to the vessel paths, on a uniform
background plus Gaussian noise.  The oracle detector and the reference
classifier stand in for the neural networks of a real deployment: the
detector reports ground truth with controllable misses, jitter, and
injected false positives; the classifier scores a patch by how sphere-like
its bright center is.
"""

from __future__ import annotations

import math
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .anchors import BoundingBox, Lesion, _as_boxes, box_bounds, box_contains
from .config import RunConfig
from .postproc import CandidateDetection, Stage
from .volume import _SLAB_VOXELS, AIR_HU, Volume, normalize_hu

if TYPE_CHECKING:
    from .pipeline import FprBatch

SIZE_CLASS_BINS = ((3.0, "2.5-3mm"), (5.0, "3-5mm"), (10.0, "5-10mm"))
SIZE_CLASS_TOP = ">10mm"


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = RunConfig.phantom_dims
    spacing: tuple[float, float, float] = RunConfig.phantom_spacing
    n_vessels: int = RunConfig.n_vessels
    vessel_radius_range: tuple[float, float] = RunConfig.vessel_radius_range
    n_aneurysms: int = RunConfig.n_aneurysms
    aneurysm_diameter_range: tuple[float, float] = RunConfig.aneurysm_diameter_range
    vessel_hu: float = RunConfig.vessel_hu
    aneurysm_hu: float = RunConfig.aneurysm_hu
    background_hu: float = RunConfig.background_hu
    noise_sigma: float = RunConfig.phantom_noise_sigma
    seed: int = 0

    def __post_init__(self):
        if self.n_vessels < 0 or self.n_aneurysms < 0:
            raise ValueError("counts must be >= 0")
        for name, rng_ in (
            ("vessel_radius_range", self.vessel_radius_range),
            ("aneurysm_diameter_range", self.aneurysm_diameter_range),
        ):
            if rng_[0] <= 0 or rng_[1] < rng_[0]:
                raise ValueError(f"{name} must be positive and ordered, got {rng_}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.n_aneurysms > 0 and self.n_vessels == 0:
            raise ValueError("aneurysms attach to vessels; need n_vessels >= 1")


@dataclass(frozen=True)
class OracleDetectorSpec:
    """Controls for the ground-truth-backed stand-in detector."""

    hit_prob: float = RunConfig.detector_hit_prob
    center_jitter_sigma: float = RunConfig.detector_center_jitter
    diameter_jitter_ratio: float = RunConfig.detector_diameter_jitter
    fp_per_volume: float = RunConfig.detector_fp_per_volume
    fp_prob_range: tuple[float, float] = RunConfig.detector_fp_prob_range
    tp_prob_range: tuple[float, float] = RunConfig.detector_tp_prob_range
    fp_diameter_range: tuple[float, float] = (2.5, 10.0)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.hit_prob <= 1.0:
            raise ValueError(f"hit_prob must be in [0, 1], got {self.hit_prob}")
        for name, rng_ in (
            ("fp_prob_range", self.fp_prob_range),
            ("tp_prob_range", self.tp_prob_range),
        ):
            if not 0.0 <= rng_[0] <= rng_[1] <= 1.0:
                raise ValueError(f"{name} must be ordered within [0, 1], got {rng_}")
        if self.center_jitter_sigma < 0 or self.diameter_jitter_ratio < 0:
            raise ValueError("jitter magnitudes must be >= 0")
        if self.fp_per_volume < 0:
            raise ValueError("fp_per_volume must be >= 0")


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
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def _vessel_path(
    rng: np.random.Generator, dims: Sequence[int], margin: float
) -> np.ndarray:
    """Smooth random walk through the volume, reflected at the margins."""
    lo = np.full(3, margin)
    hi = np.asarray(dims, dtype=float) - 1.0 - margin
    pos = rng.uniform(lo, hi)
    direction = _random_unit(rng)
    n_steps = int(2.0 * max(dims))
    kicks = 0.35 * rng.normal(0.0, 1.0, (n_steps, 3))  # as one draw per step
    points = np.empty((n_steps, 3))
    for i in range(n_steps):
        points[i] = pos
        direction = direction + kicks[i]
        direction /= np.linalg.norm(direction)
        pos = pos + direction
        for ax in range(3):
            if pos[ax] < lo[ax]:
                pos[ax] = 2 * lo[ax] - pos[ax]
                direction[ax] = abs(direction[ax])
            elif pos[ax] > hi[ax]:
                pos[ax] = 2 * hi[ax] - pos[ax]
                direction[ax] = -abs(direction[ax])
    return points


def _paint_balls(vol: np.ndarray, centers, radius: float, value: int):
    """Set every voxel within ``radius`` of any of ``centers`` to ``value``.

    A ball is scored on a cube of edge ``ceil(2r) + 2`` from ``floor(c - r)``, which
    holds its box ``[floor(c - r), ceil(c + r)]``; ``d2`` adds the squared offsets in
    x, y, z order, as a ``sum`` over that box does, so painted voxels keep their bits.
    Blocks of at most ``_SLAB_VOXELS`` cube cells bound the scratch memory.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    k = math.ceil(2.0 * radius) + 2
    step = max(1, _SLAB_VOXELS // k**3)
    strides = np.array([vol.shape[1] * vol.shape[2], vol.shape[2], 1])[:, None]
    for b in range(0, len(centers), step):
        c = centers[b : b + step, :, None]
        g = np.floor(c - radius).astype(np.int64) + np.arange(k)  # (n, 3, k)
        off2 = (g - c) ** 2
        off2[(g < 0) | (g >= np.array(vol.shape)[:, None])] = np.inf  # outside the volume
        d2 = off2[:, 0, :, None, None] + off2[:, 1, None, :, None]
        inside = d2 + off2[:, 2, None, None, :] <= radius * radius
        g *= strides
        flat = g[:, 0, :, None, None] + g[:, 1, None, :, None] + g[:, 2, None, None, :]
        np.put(vol, flat[inside], value)


def _separated(a: BoundingBox, b: BoundingBox, margin: float) -> bool:
    # disjoint with at least `margin` clearance along some axis
    return any(
        abs(ca - cb) - (a.diameter + b.diameter) / 2.0 >= margin
        for ca, cb in zip(a.center, b.center)
    )


def _fill_noise(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with standard normals: every noise number of a phantom
    is drawn here."""
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
    of one whole draw.  A slab is valid until the next one is taken.

    With ``ahead`` and any slab to draw, a helper thread owns ``rng`` and draws each slab while
    the one before it is in use, into two alternating buffers (the draw
    releases the GIL); the thread is joined on exit, also on an error.
    Otherwise each slab is drawn, into one buffer, when it is taken.
    """
    shape = (max(sizes, default=0), *plane)
    if not (ahead and sizes):
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


def generate_phantom(spec: PhantomSpec, volume_id: str = "phantom", *, overlap: bool = False):
    """Build a phantom volume and its ground-truth lesion list.

    Deterministic given ``spec.seed``, and independent of ``overlap``.
    Lesion annotations carry a size-class label (from the physical
    diameter) and the index of the vessel they attach to.  Raises if a
    vessel does not fit the dims, or if the requested lesions cannot be
    placed without overlap after bounded retries.

    Every draw for vessels and lesions comes first; the noise follows in
    x-slabs of about ``_SLAB_VOXELS // 2`` voxels.  With ``overlap`` a
    helper thread draws each noise slab while the one before it is
    filled; it pays only where a core is spare.  The phantom is
    Fortran-ordered (x-fastest), the layout of the raw file.
    """
    rng = np.random.default_rng(spec.seed)
    dims = tuple(int(d) for d in spec.dims)
    vessels = []
    for _ in range(spec.n_vessels):
        radius = rng.uniform(*spec.vessel_radius_range)
        margin = 2.0 + radius
        if min(dims) - 1.0 - margin < margin:  # where the path's start draw would fail
            raise ValueError(
                f"phantom_dims {list(dims)} are too small for vessel radius {radius:.6g}: "
                f"each dim must be at least 5 + 2 * radius"
            )
        vessels.append((_vessel_path(rng, dims, margin), radius))

    lesions: list[Lesion] = []
    for _ in range(spec.n_aneurysms):
        for _attempt in range(200):
            v_idx = int(rng.integers(len(vessels)))
            path, radius = vessels[v_idx]
            point = path[int(rng.integers(len(path)))]
            diameter = float(rng.uniform(*spec.aneurysm_diameter_range))
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
                            "size_class": size_class(diameter, spec.spacing),
                            "location": f"vessel-{v_idx}",
                        },
                    )
                )
                break
        else:
            raise ValueError(
                f"could not place {spec.n_aneurysms} non-overlapping lesions "
                f"in dims {dims} after 200 retries"
            )

    # x-slabs in C order draw the same noise numbers as one whole-volume draw
    step = min(dims[0], max(1, _SLAB_VOXELS // 2 // (dims[1] * dims[2])))
    starts = range(0, dims[0], step)
    sizes = [min(step, dims[0] - x) for x in starts]
    noisy = spec.noise_sigma > 0
    with _noise_slabs(rng, sizes if noisy else [], dims[1:], overlap) as noise:
        # tissue labels index `hu`: 0 background, 1 vessel, 2 aneurysm
        labels = np.zeros(dims, dtype=np.uint8)
        for path, radius in vessels:
            _paint_balls(labels, path, radius, 1)
        for lesion in lesions:
            _paint_balls(labels, lesion.box.center, lesion.box.diameter / 2.0, 2)
        hu = np.array([spec.background_hu, spec.vessel_hu, spec.aneurysm_hu], dtype=np.float64)
        values = np.empty(dims, dtype=np.int16, order="F")
        buf = np.empty((step, *dims[1:]))
        for x, m in zip(starts, sizes):
            slab = np.take(hu, labels[x : x + m], out=buf[:m], mode="clip")
            if noisy:
                z = next(noise)
                z *= spec.noise_sigma
                slab += z
            np.clip(np.rint(slab, out=slab), -32768, 32767, out=slab)
            values[x : x + m] = slab
    volume = Volume(values, spec.spacing, volume_id, cranial_axis="+z")
    return volume, lesions


def oracle_detect(
    truth: Sequence[BoundingBox],
    spec: OracleDetectorSpec,
    dims: tuple[int, int, int],
) -> list[CandidateDetection]:
    """Ground-truth-backed detector with controllable errors.

    Each lesion is independently reported with probability ``hit_prob``,
    its box jittered per ``spec``; Poisson-many false candidates are placed
    uniformly, kept clear of every true lesion.  Per-lesion substreams are
    derived from (seed, 0, lesion index) and the false-positive stream from
    (seed, 1), so results are independent of list-external state.
    """
    boxes = _as_boxes(truth)
    cands: list[CandidateDetection] = []
    for i, box in enumerate(boxes):
        r = np.random.default_rng([spec.seed, 0, i])
        if r.random() >= spec.hit_prob:
            continue
        center = np.asarray(box.center, dtype=float)
        if spec.center_jitter_sigma > 0:
            center = center + r.normal(0.0, spec.center_jitter_sigma, 3)
        diameter = box.diameter
        if spec.diameter_jitter_ratio > 0:
            diameter *= 1.0 + spec.diameter_jitter_ratio * r.uniform(-1.0, 1.0)
        prob = float(r.uniform(*spec.tp_prob_range))
        cands.append(
            CandidateDetection(
                BoundingBox(tuple(center), max(diameter, 0.1)), prob, Stage.DETECTOR
            )
        )

    r = np.random.default_rng([spec.seed, 1])
    for _ in range(int(r.poisson(spec.fp_per_volume))):
        for _attempt in range(100):
            center = tuple(r.uniform(2.0, d - 3.0) for d in dims)
            diameter = float(r.uniform(*spec.fp_diameter_range))
            fp_box = BoundingBox(center, diameter)
            if all(_separated(fp_box, b, 4.0) for b in boxes):
                prob = float(r.uniform(*spec.fp_prob_range))
                cands.append(CandidateDetection(fp_box, prob, Stage.DETECTOR))
                break
    return cands


def reference_classifier(batch: "FprBatch", threshold: float = 0.15) -> np.ndarray:
    """Analytic patch scorer: per candidate and patch scale, the bright
    fraction inside a central sphere minus the bright fraction in the
    surrounding shell, squashed to [0, 1]; an (n, 3) array.

    On phantom data this scores lesion-centered patches above vessel or
    background patches: a sphere fills the patch center while a tube
    continues into the shell.  A voxel is bright when its normalized HU
    exceeds ``threshold``.  The int16 volume is read through views, one
    per candidate, scale and mask; patch voxels outside the volume are air.
    """
    values = batch.volume.values
    if values.dtype != np.int16:
        raise ValueError(f"the reference classifier reads int16 HU, got {values.dtype}")
    cut, pad_bright = _bright_cut(tuple(batch.window), threshold)
    order = "F" if abs(values.strides[0]) < abs(values.strides[2]) else "C"
    scores = np.empty((len(batch.origins), len(batch.patch_sizes)))
    for k, size in enumerate(batch.patch_sizes):
        frac_in, frac_shell = (
            _bright_count(values, batch.origins[:, k] + offset, mask, cut, pad_bright) / count
            if count else np.zeros(len(scores))
            for mask, offset, count in _sphere_masks(tuple(size), order)
        )
        scores[:, k] = np.clip(0.5 + 0.5 * (frac_in - frac_shell), 0.0, 1.0)
    return scores


@lru_cache(maxsize=8)
def _bright_cut(window: tuple[float, float], threshold: float) -> tuple[int, bool]:
    """The smallest int16 HU whose normalized value exceeds ``threshold``
    (32768 when none does), and whether the air padding does.

    :func:`normalize_hu` is non-decreasing in HU, so "normalized value >
    threshold" is exactly "HU >= cut" on int16 data.
    """
    every = np.arange(-32768, 32768, dtype=np.int16).reshape(-1, 1, 1)
    bright = normalize_hu(Volume(every, (1, 1, 1)), window).values.ravel() > threshold
    cut = int(np.argmax(bright)) - 32768 if bright.any() else 32768
    air = normalize_hu(Volume(np.full((1, 1, 1), AIR_HU), (1, 1, 1)), window)
    return cut, bool(air.values[0, 0, 0] > threshold)


def _bright_count(values, corners, mask, cut: int, pad_bright: bool) -> np.ndarray:
    """Per row of ``corners`` (n, 3), the voxels under ``mask`` placed at
    that corner that are bright: HU >= ``cut`` inside the volume, and all
    of them outside it when ``pad_bright``.

    Each placed mask must overlap or touch the volume, as the masks of a
    patch centered inside it do.
    """
    lo = np.maximum(corners, 0)
    hi = np.minimum(corners + mask.shape, values.shape)
    out = np.empty(len(corners), dtype=np.int64)
    rows = zip(lo.tolist(), hi.tolist(), (lo - corners).tolist(), (hi - corners).tolist())
    for i, ((x0, y0, z0), (x1, y1, z1), (a0, b0, c0), (a1, b1, c1)) in enumerate(rows):
        part = mask[a0:a1, b0:b1, c0:c1]
        bright = values[x0:x1, y0:y1, z0:z1] >= cut
        np.logical_and(bright, part, out=bright)
        out[i] = np.count_nonzero(bright)
        if pad_bright and part.size < mask.size:
            out[i] += np.count_nonzero(mask) - np.count_nonzero(part)
    return out


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


def perfect_classifier(lesions: Sequence) -> Callable[["FprBatch"], np.ndarray]:
    """Oracle rescorer: 1.0 at every scale for candidates centered inside a
    lesion, else 0."""
    bounds = box_bounds(_as_boxes(lesions))

    def classify(batch: "FprBatch") -> np.ndarray:
        centers = np.array([c.box.center for c in batch.candidates], dtype=float)
        hit = box_contains(bounds, centers.reshape(-1, 1, 3)).any(axis=1)
        return np.repeat(hit[:, None].astype(float), 3, axis=1)

    return classify
