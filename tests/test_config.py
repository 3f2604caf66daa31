"""Guards for the single source of defaults: ``RunConfig`` declares each
documented default once, and library code derives its defaults from it."""

import dataclasses
import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import ctadet
from ctadet import cli, pipeline
from ctadet.config import RunConfig, load_json
from ctadet.synth import OracleDetectorSpec, PhantomSpec
from ctadet.volume import Volume

# names the defaults once had as module constants
RETIRED = {"FPR_PATCH_SIZES", "HU_WINDOW", "CRANIAL_MAX_EXTENT_MM"}


def test_no_module_redeclares_defaults():
    for info in pkgutil.iter_modules(ctadet.__path__):
        module = importlib.import_module(f"ctadet.{info.name}")
        names = {n for n in vars(module) if n.startswith("DEFAULT_") or n in RETIRED}
        assert not names, f"ctadet.{info.name} declares {sorted(names)}"


def test_phantom_spec_defaults_match_run_config():
    cfg = RunConfig()
    built = cli._phantom_spec(cfg, seed=7, n_aneurysms=cfg.n_aneurysms)
    assert dataclasses.replace(built, seed=0) == PhantomSpec()


def test_oracle_spec_defaults_match_run_config(monkeypatch):
    seen = []
    monkeypatch.setattr(
        pipeline, "oracle_detect", lambda truth, spec, dims: seen.append(spec) or []
    )
    volume = Volume(np.zeros((4, 4, 4), dtype=np.int16), (1.0, 1.0, 1.0))
    pipeline.oracle_scorer_factory(volume, [], RunConfig(), seed=7)
    assert dataclasses.replace(seen[0], seed=0) == OracleDetectorSpec()


def test_json_round_trip_is_lossless():
    cfg = dataclasses.replace(RunConfig(), seed=7, patch_size=(48, 48, 24), nms_iou=0.3)
    for original in (RunConfig(), cfg):
        assert RunConfig.from_dict(json.loads(json.dumps(original.to_dict()))) == original


def test_integral_floats_and_ints_convert():
    cfg = RunConfig.from_dict({"seed": 3.0, "nms_iou": 1, "patch_size": [48.0, 48, 24]})
    assert (cfg.seed, cfg.nms_iou, cfg.patch_size) == (3, 1.0, (48, 48, 24))
    assert type(cfg.seed) is int and type(cfg.nms_iou) is float


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("bootstrap_resamples", 2.5), ("jobs", True), ("seed", math.inf),
     ("seed", math.nan), ("patch_size", [96, 96, 95.5]), ("nms_iou", False)],
)
def test_inexact_values_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig.from_dict({field: value})


@pytest.mark.parametrize(
    "text, problem",
    [("NaN", "NaN is not valid JSON"), ('{"a": [Infinity]}', "Infinity is not valid JSON"),
     ("-Infinity", "-Infinity is not valid JSON"), ('{"a": 1e400}', "1e400 overflows")],
)
def test_strict_json_refuses_non_finite_numbers(text, problem):
    with pytest.raises(ValueError, match=problem):
        load_json(text)
    assert load_json(' {"a": [1, -2.5e-3, 1e300]}\n') == {"a": [1, -2.5e-3, 1e300]}
