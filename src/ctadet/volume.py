"""Volume data model, raw-file I/O, preprocessing, and tiling.

A volume is a 3D scalar grid in Hounsfield units with per-axis spacing.
On disk a volume is a pair of files: ``<id>.vol.raw`` (x-fastest voxel
order, little-endian int16 HU) and a ``<id>.vol.json`` sidecar holding
dims, spacing, cranial direction and the volume id.  In memory, values
are indexed ``[x, y, z]``.  :func:`read_volume` maps the raw file
read-only and returns a Fortran-ordered (x-fastest) view of the mapping,
cranial truncation is a view of that, and extracted patches keep the
source's memory order, so a command holds in memory only the voxels it
reads.  :func:`write_volume` takes the values as z-slabs and appends
them in file order, so a phantom is written as it is filled, and it
replaces the raw file rather than rewriting it, so a mapping of the old
file stays valid.
"""

from __future__ import annotations

import math
import mmap
import os
import stat
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .config import RunConfig, dump_json, is_number, load_json

AIR_HU = -1000.0

_RAW_SUFFIX = ".vol.raw"
_JSON_SUFFIX = ".vol.json"
_SLAB_VOXELS = 1 << 18  # voxels per z-slab written or filled at a time (512 KiB of int16)
_WRITE_BYTES = 1 << 16  # bytes per write of a raw file: the page cache keeps it in small folios


def _checked_spacing(spacing) -> tuple[float, float, float]:
    """``spacing`` as 3 floats; a ValueError unless they are 3 positive
    finite values."""
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ValueError(f"spacing must be 3 positive finite values, got {spacing}")
    return spacing


def _slab_planes(dims) -> int:
    """z-planes per slab of a volume of ``dims``: at most ``_SLAB_VOXELS``
    voxels, and at least one plane, but an even number of planes when a
    plane holds an odd number of voxels and the volume spans more than one
    slab, so that every slab but the last holds an even number of voxels
    (a phantom's noise draw of two voxels per 32-bit word depends on it)."""
    nx, ny, nz = dims
    planes = min(nz, max(1, _SLAB_VOXELS // (nx * ny)))
    if planes < nz and planes % 2 and nx * ny % 2:
        planes += 1 if planes == 1 else -1
    return planes


@dataclass(frozen=True)
class Volume:
    """3D scalar grid with anisotropic voxel spacing (mm per voxel).

    ``cranial_axis`` declares which end of the z axis is the cranial side
    ("+z" or "-z"); it is carried from the file header and never inferred
    from content.
    """

    values: np.ndarray  # shape (nx, ny, nz), indexed [x, y, z]
    spacing: tuple[float, float, float]
    volume_id: str = ""
    cranial_axis: Optional[str] = None

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"volume values must be 3D, got shape {self.values.shape}")
        if any(d < 1 for d in self.values.shape):
            raise ValueError(f"volume dims must all be >= 1, got {self.values.shape}")
        object.__setattr__(self, "spacing", _checked_spacing(self.spacing))
        if self.cranial_axis not in (None, "+z", "-z"):
            raise ValueError(f"cranial_axis must be '+z' or '-z', got {self.cranial_axis!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def z_slabs(self) -> Iterator[np.ndarray]:
        """The values as z-slabs in z order, as :func:`write_volume` takes
        them: one slab, a view of them all."""
        yield self.values


@dataclass(frozen=True)
class PatchSpec:
    """Location of a patch inside a parent volume.

    The origin may lie outside the volume; extraction fills out-of-bounds
    voxels with air (``AIR_HU``).
    """

    origin: tuple[int, int, int]
    size: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(int(o) for o in self.origin))
        object.__setattr__(self, "size", tuple(int(s) for s in self.size))
        if any(s < 1 for s in self.size):
            raise ValueError(f"patch size must be >= 1 per axis, got {self.size}")


def _mapping(values: np.ndarray) -> Optional[mmap.mmap]:
    """The mapping that ``values`` views, as :func:`read_volume`'s values
    do; None for an array in memory."""
    base = values
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):  # np.frombuffer's view of the mapping
        base = base.obj
    return base if isinstance(base, mmap.mmap) else None


def _volume_paths(path) -> tuple[Path, Path]:
    """Resolve a base path, raw path, or sidecar path to the (raw, json) pair."""
    p = Path(path)
    name = p.name
    if name.endswith(_RAW_SUFFIX):
        base = p.with_name(name[: -len(_RAW_SUFFIX)])
    elif name.endswith(_JSON_SUFFIX):
        base = p.with_name(name[: -len(_JSON_SUFFIX)])
    else:
        base = p
    return (
        base.with_name(base.name + _RAW_SUFFIX),
        base.with_name(base.name + _JSON_SUFFIX),
    )


def _store_int16(dst: np.ndarray, part: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """Cast ``part``, a piece of ``slab``, into the int16 ``dst`` and
    return ``dst``.

    The cast keeps a value exactly when it is finite, integral and within
    int16, so the piece equals its cast exactly when all its values are
    valid; otherwise the ValueError names what is wrong with ``slab``.  The
    comparison's only scratch is a bool per voxel of the piece.
    """
    if part.dtype == np.int16:
        np.copyto(dst, part)
        return dst
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range casts are caught below
        np.copyto(dst, part, casting="unsafe")
    if np.array_equal(dst, part):
        return dst
    if not np.issubdtype(slab.dtype, np.integer):
        if not np.all(np.isfinite(slab)) or np.any(slab != np.rint(slab)):
            raise ValueError("raw volume files store int16 HU; values must be integral")
    raise ValueError(f"HU values [{slab.min()}, {slab.max()}] exceed the int16 range")


def _write_header(json_path: Path, v) -> None:
    header = {
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing),
        "cranial_axis": v.cranial_axis,
        "volume_id": v.volume_id,
    }
    json_path.write_text(dump_json(header))


def _append(f, piece: np.ndarray) -> None:
    """Append the Fortran-ordered little-endian int16 ``piece`` to ``f`` in
    file order, in writes of at most ``_WRITE_BYTES``.

    The page cache sizes a new folio by the write that makes it, and a read
    fault maps a whole folio, so small writes keep a reader of a mapping of
    the file (``reduce``) from holding more than it reads: 512 KiB writes
    raised ``reduce``'s peak on a 512x512x300 scan from 35 to 47 MiB (Linux
    6.18, ext4).
    """
    data = memoryview(piece.T).cast("B")  # the transpose's C order: x fastest
    for i in range(0, len(data), _WRITE_BYTES):
        f.write(data[i : i + _WRITE_BYTES])


def write_volume(v: Volume, path) -> None:
    """Write the raw/sidecar pair of ``v``, from its ``z_slabs()``.

    ``v`` is a :class:`Volume`, or a phantom from
    :func:`~ctadet.synth.generate_phantom`, which fills each z-slab as it is
    taken; either way the values must be integral and fit int16.  Each
    slab is appended to a temporary sibling in pieces of at most
    ``_SLAB_VOXELS`` voxels (:func:`_slab_planes`), in file order: a piece
    that is little-endian int16 in Fortran order, as a phantom's slabs
    are, is written as it is, and any other is cast into an int16 copy
    first, refusing values that are not integral or do not fit int16.  So
    the writer holds at most one piece, never the volume.  The sibling then
    replaces the file, so a mapping of the old file (read_volume's values,
    perhaps these very ones) keeps its inode; on an error the sibling is
    removed.
    """
    nx, ny, nz = v.dims
    raw_path, json_path = _volume_paths(path)
    planes = _slab_planes(v.dims)
    tmp_path = raw_path.with_name(f".{raw_path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp_path, "wb") as f:
            z0 = 0
            with closing(v.z_slabs()) as slabs:
                for slab in slabs:
                    m = slab.shape[2]
                    if slab.shape[:2] != (nx, ny) or z0 + m > nz:
                        raise ValueError(
                            f"z-slab {slab.shape} at z = {z0} does not fit dims {v.dims}")
                    for z in range(0, m, planes):
                        part = slab[:, :, z : z + planes]
                        if part.dtype != np.dtype("<i2") or not part.flags.f_contiguous:
                            part = _store_int16(np.empty(part.shape, "<i2", order="F"), part, slab)
                        _append(f, part)
                    z0 += m
            if z0 != nz:
                raise ValueError(f"z-slabs cover {z0} of {nz} planes")
        os.replace(tmp_path, raw_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    _write_header(json_path, v)


def read_volume(path) -> Volume:
    """Map a raw/sidecar pair written by :func:`write_volume`.

    The header must give three integral ``dims`` of at least 1 and three
    finite positive ``spacing_mm``, and the raw file must be a regular file
    of exactly the declared size; otherwise the ValueError names the file.
    The values are a read-only, Fortran-ordered int16 view of a read-only
    mapping of the raw file, not a copy: a voxel is read from the page
    cache when it is first used, and processes that read one file share
    its pages.  The mapping lives as long as any view of it; on Python
    before 3.13 each live mapping also holds one file descriptor.  A file
    truncated while it is mapped faults on access (SIGBUS), which is why
    :func:`write_volume` replaces a file instead of rewriting it.
    """
    raw_path, json_path = _volume_paths(path)
    if not json_path.exists():
        raise FileNotFoundError(f"missing volume header {json_path}")
    if not raw_path.exists():
        raise FileNotFoundError(f"missing volume data {raw_path}")
    try:
        header = load_json(json_path.read_text())
    except ValueError as e:  # JSON and UTF-8 decode errors
        raise ValueError(f"{json_path}: not a JSON header: {e}") from e
    if not isinstance(header, dict):
        raise ValueError(f"{json_path}: the header is not a JSON object")
    dims = header.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3
            and all(is_number(d) and d >= 1 and d == int(d) for d in dims)):
        raise ValueError(f"{json_path}: dims must be 3 integers >= 1, got {dims!r}")
    spacing = header.get("spacing_mm")
    if not (isinstance(spacing, list) and len(spacing) == 3
            and all(is_number(s) and 0 < s < math.inf for s in spacing)):
        raise ValueError(
            f"{json_path}: spacing_mm must be 3 finite positive numbers, got {spacing!r}"
        )
    dims = tuple(int(d) for d in dims)
    expected = dims[0] * dims[1] * dims[2] * 2
    st = raw_path.stat()
    if not stat.S_ISREG(st.st_mode):
        raise ValueError(f"{raw_path}: not a regular file")
    if st.st_size != expected:
        raise ValueError(
            f"{raw_path}: header declares dims {dims} ({expected} bytes) "
            f"but file holds {st.st_size} bytes"
        )
    no_fd = {"trackfd": False} if sys.version_info >= (3, 13) else {}  # keep no duplicate fd
    with open(raw_path, "rb") as f:
        mapping = mmap.mmap(f.fileno(), expected, access=mmap.ACCESS_READ, **no_fd)
    # the file is x-fastest, so the mapping is the Fortran-ordered [x, y, z]
    values = np.frombuffer(mapping, "<i2").reshape(dims, order="F").astype(np.int16, copy=False)
    return Volume(
        values=values,
        spacing=tuple(float(s) for s in spacing),
        volume_id=str(header.get("volume_id", "")),
        cranial_axis=header.get("cranial_axis"),
    )


def normalize_hu(v: Volume, window: tuple[float, float] = RunConfig.hu_window) -> Volume:
    """Clamp HU to the window and scale into [-1, 1], as float32 in the
    source's memory order; non-decreasing in HU.

    The clamp is cast into the float32 result and divided in place: the
    bits of clip, cast, divide, without the float64 temporary.
    """
    lo, hi = window
    scale = max(abs(lo), abs(hi))
    values = np.clip(v.values, lo, hi, out=np.empty_like(v.values, dtype=np.float32),
                     casting="unsafe")
    values /= np.float32(scale)
    return Volume(values, v.spacing, v.volume_id, v.cranial_axis)


def truncate_cranial(
    v: Volume, max_extent_mm: float = RunConfig.cranial_max_extent_mm
) -> Volume:
    """Keep only the cranial-most slices up to ``max_extent_mm`` of z extent.

    The kept values are a view of the input's.  Volumes already within the
    limit are returned unchanged.  Requires the cranial direction flag from
    the header.
    """
    if v.cranial_axis is None:
        raise ValueError(
            f"volume {v.volume_id!r} lacks the cranial-direction flag; "
            "cannot decide which end to keep"
        )
    sz = v.spacing[2]
    nz = v.dims[2]
    keep = int(math.floor(max_extent_mm / sz + 1e-9))
    if keep >= nz:
        return v
    if keep < 1:
        raise ValueError(f"max_extent_mm={max_extent_mm} keeps no slices at spacing {sz}")
    if v.cranial_axis == "+z":
        values = v.values[:, :, nz - keep :]
    else:
        values = v.values[:, :, :keep]
    return Volume(values, v.spacing, v.volume_id, v.cranial_axis)


def _axis_origins(dim: int, patch: int, overlap: int) -> list[int]:
    if dim <= patch:
        return [0]
    stride = patch - overlap
    origins = list(range(0, dim - patch + 1, stride))
    # the last patch is shifted inward so it ends exactly at the boundary
    if origins[-1] + patch < dim:
        origins.append(dim - patch)
    return origins


def tile_volume(
    v: Volume,
    patch_size: tuple[int, int, int] = RunConfig.patch_size,
    overlap: int = RunConfig.tile_overlap,
) -> list[PatchSpec]:
    """Cover the volume with overlapping patches.

    Origins advance by ``patch - overlap`` per axis and the final patch per
    axis is shifted to end at the volume boundary, so interior patches
    overlap by at least ``overlap`` voxels.  Padding only occurs when the
    volume is smaller than a single patch.
    """
    if any(p <= overlap for p in patch_size):
        raise ValueError(f"patch size {patch_size} must exceed overlap {overlap}")
    per_axis = [
        _axis_origins(d, p, overlap) for d, p in zip(v.dims, patch_size)
    ]
    return [
        PatchSpec((ox, oy, oz), patch_size)
        for ox in per_axis[0]
        for oy in per_axis[1]
        for oz in per_axis[2]
    ]


def extract_patch(v: Volume, spec: PatchSpec) -> Volume:
    """Copy the voxels under ``spec`` in the source's memory order;
    out-of-bounds voxels are air."""
    out = np.full_like(v.values, AIR_HU, shape=spec.size)
    src = []
    dst = []
    for o, s, d in zip(spec.origin, spec.size, v.dims):
        lo = max(o, 0)
        hi = min(o + s, d)
        if hi <= lo:
            return Volume(out, v.spacing, v.volume_id, v.cranial_axis)
        src.append(slice(lo, hi))
        dst.append(slice(lo - o, hi - o))
    out[tuple(dst)] = v.values[tuple(src)]
    return Volume(out, v.spacing, v.volume_id, v.cranial_axis)
