"""Run configuration: every pipeline parameter with its documented default,
serializable to and from a JSON config file without loss; and the strict
JSON parsing every reader of the package's files uses."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} overflows a float")
    return value


# one decoder for every call: json.loads with a keyword builds a new one each time
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)


def load_json(text: str):
    """Parse JSON text, refusing the NaN, Infinity and -Infinity that
    :func:`json.loads` accepts but RFC 8259 does not, and number literals
    such as ``1e400`` that would read as infinite."""
    return _DECODER.decode(text)


@dataclass(frozen=True)
class RunConfig:
    # preprocessing
    hu_window: tuple[float, float] = (-1000.0, 1000.0)
    cranial_max_extent_mm: float = 200.0
    # tiled inference
    patch_size: tuple[int, int, int] = (96, 96, 96)
    tile_overlap: int = 16
    # anchor grid and label assignment
    grid_size: int = 24
    anchor_sizes: tuple[float, ...] = (5.0, 10.0, 20.0)
    pos_iou: float = 0.5
    neg_iou: float = 0.02
    # loss
    lambda_reg: float = 0.5
    hard_neg_k: int = 2
    # candidate postprocessing
    nms_iou: float = 0.25
    nms_prob: float = 0.25
    sensitivity_floor: float = 0.05
    # false-positive reduction
    fpr_patch_sizes: tuple[tuple[int, int, int], ...] = (
        (20, 20, 10),
        (32, 32, 16),
        (48, 48, 32),
    )
    # evaluation
    fppv_grid: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    operating_fppvs: tuple[float, ...] = (0.25, 1.0)
    strata_keys: tuple[str, ...] = ("size_class", "location")
    bootstrap_resamples: int = 1000
    bootstrap_level: float = 0.95
    # synthetic dataset
    n_volumes: int = 8
    phantom_dims: tuple[int, int, int] = (128, 128, 96)
    phantom_spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_vessels: int = 4
    vessel_radius_range: tuple[float, float] = (2.0, 4.0)
    n_aneurysms: int = 3
    aneurysm_diameter_range: tuple[float, float] = (2.5, 20.0)
    negative_fraction: float = 0.0
    vessel_hu: float = 300.0
    aneurysm_hu: float = 400.0
    background_hu: float = 40.0
    phantom_noise_sigma: float = 15.0
    # oracle detector
    detector_hit_prob: float = 1.0
    detector_center_jitter: float = 0.0
    detector_diameter_jitter: float = 0.0
    detector_fp_per_volume: float = 0.0
    detector_fp_prob_range: tuple[float, float] = (0.2, 0.8)
    detector_tp_prob_range: tuple[float, float] = (1.0, 1.0)
    # run control
    seed: int = 0
    jobs: int = 1

    def to_dict(self) -> dict:
        def convert(x):
            if isinstance(x, tuple):
                return [convert(v) for v in x]
            return x

        return {f.name: convert(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        defaults = cls()

        def restore(value, template):
            if isinstance(template, tuple):
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"expected a list, got {value!r}")
                inner = template[0] if template else None
                return tuple(restore(v, inner) for v in value)
            if isinstance(template, bool):
                return bool(value)
            if isinstance(value, bool) and isinstance(template, (int, float)):
                raise ValueError(f"expected a number, got {value!r}")
            if isinstance(template, int):
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(f"expected an integer, got {value!r}")
                return int(value)
            if isinstance(template, float):
                return float(value)
            return value

        kwargs = {}
        for name, value in data.items():
            try:
                kwargs[name] = restore(value, getattr(defaults, name))
            except ValueError as e:
                raise ValueError(f"{name}: {e}") from e
        return cls(**kwargs)

    def to_file(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(load_json(Path(path).read_text()))
