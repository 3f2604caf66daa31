"""Volume data model, raw-file I/O, preprocessing, and tiling.

A volume is a 3D scalar grid in Hounsfield units with per-axis spacing.
On disk a volume is a pair of files: ``<id>.vol.raw`` (x-fastest voxel
order, little-endian int16 HU) and a ``<id>.vol.json`` sidecar holding
dims, spacing, cranial direction and the volume id.  In memory, values
are indexed ``[x, y, z]``.  :func:`read_volume` returns the file's own
buffer as a Fortran-ordered (x-fastest) array, cranial truncation is a
view of it, and extracted patches keep the source's memory order, so
detection holds one whole-volume buffer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import RunConfig, load_json

AIR_HU = -1000.0

_RAW_SUFFIX = ".vol.raw"
_JSON_SUFFIX = ".vol.json"
_SLAB_VOXELS = 1 << 20  # voxels per slab when a whole volume is filled or written


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
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        if len(self.spacing) != 3 or not all(0 < s < math.inf for s in self.spacing):
            raise ValueError(f"spacing must be 3 positive finite values, got {self.spacing}")
        if self.cranial_axis not in (None, "+z", "-z"):
            raise ValueError(f"cranial_axis must be '+z' or '-z', got {self.cranial_axis!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class PatchSpec:
    """Location of a patch inside a parent volume.

    The origin may lie outside the volume; extraction fills out-of-bounds
    voxels with ``pad_value``.
    """

    origin: tuple[int, int, int]
    size: tuple[int, int, int]
    pad_value: float = AIR_HU

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(int(o) for o in self.origin))
        object.__setattr__(self, "size", tuple(int(s) for s in self.size))
        if any(s < 1 for s in self.size):
            raise ValueError(f"patch size must be >= 1 per axis, got {self.size}")


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


def write_volume(v: Volume, path) -> None:
    """Write the raw/sidecar pair. Values must be integral and fit int16."""
    arr = np.asarray(v.values)
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isfinite(arr)) or np.any(arr != np.rint(arr)):
            raise ValueError("raw volume files store int16 HU; values must be integral")
    if arr.dtype != np.int16:  # int16 values cannot leave the int16 range
        lo, hi = arr.min(), arr.max()
        if lo < -32768 or hi > 32767:
            raise ValueError(f"HU values [{lo}, {hi}] exceed the int16 range")
    raw_path, json_path = _volume_paths(path)
    # z-slabs; .T puts x fastest in each slab's bytes, which for Fortran-ordered
    # int16 values (as read_volume and generate_phantom give) is a view, not a copy
    step = max(1, _SLAB_VOXELS // (arr.shape[0] * arr.shape[1]))
    with open(raw_path, "wb") as f:
        for z in range(0, arr.shape[2], step):
            f.write(np.ascontiguousarray(arr[:, :, z : z + step].T, dtype="<i2"))
    header = {
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing),
        "cranial_axis": v.cranial_axis,
        "volume_id": v.volume_id,
    }
    json_path.write_text(json.dumps(header, sort_keys=True, allow_nan=False) + "\n")


def read_volume(path) -> Volume:
    """Read a raw/sidecar pair written by :func:`write_volume`."""
    raw_path, json_path = _volume_paths(path)
    if not json_path.exists():
        raise FileNotFoundError(f"missing volume header {json_path}")
    if not raw_path.exists():
        raise FileNotFoundError(f"missing volume data {raw_path}")
    try:
        header = load_json(json_path.read_text())
    except ValueError as e:  # JSON and UTF-8 decode errors
        raise ValueError(f"{json_path}: not a JSON header: {e}") from e
    dims = tuple(int(d) for d in header["dims"])
    spacing = tuple(float(s) for s in header["spacing_mm"])
    if len(dims) != 3 or len(spacing) != 3:
        raise ValueError(
            f"{json_path}: dims and spacing_mm need 3 entries each, "
            f"got {len(dims)} and {len(spacing)}"
        )
    expected = dims[0] * dims[1] * dims[2] * 2
    size = raw_path.stat().st_size
    if size != expected:
        raise ValueError(
            f"{raw_path}: header declares dims {dims} ({expected} bytes) "
            f"but file holds {size} bytes"
        )
    # the file is x-fastest, so its one buffer is the Fortran-ordered [x, y, z]
    values = np.fromfile(raw_path, "<i2").reshape(dims, order="F").astype(np.int16, copy=False)
    return Volume(
        values=values,
        spacing=spacing,
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
    patch_size=RunConfig.patch_size,
    overlap: int = RunConfig.tile_overlap,
    pad_value: float = AIR_HU,
) -> list[PatchSpec]:
    """Cover the volume with overlapping patches.

    Origins advance by ``patch - overlap`` per axis and the final patch per
    axis is shifted to end at the volume boundary, so interior patches
    overlap by at least ``overlap`` voxels.  Padding only occurs when the
    volume is smaller than a single patch.
    """
    if isinstance(patch_size, int):
        patch_size = (patch_size,) * 3
    patch_size = tuple(int(p) for p in patch_size)
    if any(p <= overlap for p in patch_size):
        raise ValueError(f"patch size {patch_size} must exceed overlap {overlap}")
    per_axis = [
        _axis_origins(d, p, overlap) for d, p in zip(v.dims, patch_size)
    ]
    return [
        PatchSpec((ox, oy, oz), patch_size, pad_value)
        for ox in per_axis[0]
        for oy in per_axis[1]
        for oz in per_axis[2]
    ]


def extract_patch(v: Volume, spec: PatchSpec) -> Volume:
    """Copy the voxels under ``spec`` in the source's memory order;
    out-of-bounds voxels get the pad value."""
    out = np.full_like(v.values, spec.pad_value, shape=spec.size)
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
