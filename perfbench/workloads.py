"""The benchmark's workloads and the inputs each one gives the CLI.

Every workload runs the CLI from its own run directory with relative
paths, because ``report.json`` provenance embeds the paths as given.
Volume counts are scaled so that one benchmark run repeats the chain a
few times within its measuring time; each workload keeps the property
that makes one layer dominate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ORACLE = {
    "detector_hit_prob": 0.95,
    "detector_center_jitter": 1.0,
    "detector_fp_prob_range": [0.3, 0.9],
    "detector_tp_prob_range": [0.5, 1.0],
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict = field(default_factory=dict)  # RunConfig fields
    jobs: int = 1
    synth: bool = True  # False: the benchmark writes the inputs itself
    volumes: int = 0  # volumes the benchmark writes when synth is False


WORKLOADS = {
    w.name: w
    for w in (
        # Many default 128x128x96 scans (4 tiles each) at --jobs 2: the
        # per-volume fixed cost (the anchor list is rebuilt for every scan)
        # and the process pool dominate; NMS, FPR and bootstrap do little.
        Workload(
            "cohort",
            {
                **ORACLE,
                "n_volumes": 20,
                "n_aneurysms": 4,
                "aneurysm_diameter_range": [5.0, 18.0],
                "detector_fp_per_volume": 4.0,
                "negative_fraction": 0.3,
            },
            jobs=2,
        ),
        # About 400 false positives per scan just above the 0.05 floor, like
        # an untrained detector: quadratic NMS dominates detect and reduce.
        # One scan is lesion-free so that the AUC bootstrap runs.
        Workload(
            "crowded",
            {
                **ORACLE,
                "n_volumes": 2,
                "negative_fraction": 0.5,
                "detector_hit_prob": 0.9,
                "detector_fp_per_volume": 400.0,
                "detector_fp_prob_range": [0.06, 0.9],
            },
        ),
        # 256x256x240 scans at 0.8x0.8x1.0 mm, cranially truncated to 200
        # slices and 27 tiles: per-tile decode and per-voxel copies dominate
        # detect, and the float64 synth canvas sets the peak RSS.
        Workload(
            "large-field",
            {
                **ORACLE,
                "n_volumes": 2,
                "phantom_dims": [256, 256, 240],
                "phantom_spacing": [0.8, 0.8, 1.0],
                "n_vessels": 8,
                "n_aneurysms": 6,
                "detector_fp_per_volume": 8.0,
            },
        ),
        # Only eval and compare, on inputs the benchmark writes: bootstrap
        # CIs dominate.  Without it no workload is bound by evaluation.
        Workload("eval-cohort", synth=False, volumes=200),
    )
}


def cli_seed(w: Workload, seed: int) -> int:
    """The CLI seed for a workload seed: ``1000 * seed + k``.

    k is 0 unless the config asks for lesion-free volumes; then k is the
    first that gives both lesion-free and lesioned volumes, so that AUC and
    its bootstrap are defined.  The draw mirrors ``ctadet synth``: volume i
    is lesion-free when ``default_rng([seed, 9090, i]).random()`` falls
    below ``negative_fraction``; the set-up checks the manifest.
    """
    fraction = w.config.get("negative_fraction", 0.0)
    n = w.config.get("n_volumes", 0)
    for k in range(1000):
        s = 1000 * seed + k
        free = [np.random.default_rng([s, 9090, i]).random() < fraction for i in range(n)]
        if fraction <= 0 or (any(free) and not all(free)):
            return s
    raise ValueError(f"no seed in {1000 * seed}..{1000 * seed + 999} mixes lesion-free volumes")


def write_config(w: Workload, run_dir: Path, seed: int) -> None:
    doc = {**w.config, "seed": cli_seed(w, seed)}
    (run_dir / "config.json").write_text(json.dumps(doc, sort_keys=True) + "\n")


def setup_command(jobs: int) -> list[str]:
    return ["synth", "--config", "config.json", "--jobs", str(jobs), "--out", "data"]


def chain(w: Workload, jobs: int) -> list[tuple[str, list[str]]]:
    """(stage, CLI arguments) for one pass after set-up."""
    common = ["--config", "config.json", "--jobs", str(jobs)]
    data = ["--manifest", "data/manifest.json"]
    steps = []
    if w.synth:
        steps += [
            ("detect", ["detect", *common, *data, "--out", "cand"]),
            ("reduce", ["reduce", *common, *data, "--candidates", "cand",
                        "--out", "red", "--classifier", "reference"]),
        ]
    steps += [
        ("eval", ["eval", *common, *data, "--candidates", "cand", "--out", "eval-cand"]),
        ("eval", ["eval", *common, *data, "--candidates", "red", "--out", "eval-red"]),
        ("compare", ["compare", *common, "--report-a", "eval-cand/report.json",
                     "--report-b", "eval-red/report.json",
                     "--out", "cmp/comparison.json"]),
    ]
    return steps


def pass_outputs(w: Workload) -> tuple[str, ...]:
    """Directories one pass writes, removed before the next pass."""
    evals = ("eval-cand", "eval-red", "cmp")
    return ("cand", "red", *evals) if w.synth else evals


def _size_class(mm: float) -> str:
    for upper, label in ((3.0, "2.5-3mm"), (5.0, "3-5mm"), (10.0, "5-10mm")):
        if mm < upper:
            return label
    return ">10mm"


def _dump(f, obj) -> None:
    f.write(json.dumps(obj, sort_keys=True) + "\n")


def write_eval_inputs(w: Workload, run_dir: Path, seed: int) -> None:
    """Write the manifest, annotations and both candidate sets of
    ``eval-cohort`` in the documented formats (no voxel files: eval and
    compare read none).

    30% of volumes are lesion-free, the rest carry 1-4 labelled lesions;
    stage 1 finds 90% of lesions and about 4 false positives per volume,
    and the reduced set rescores the same boxes.
    """
    rng = random.Random(seed)
    data, cand, red = run_dir / "data", run_dir / "cand", run_dir / "red"
    for d in (data, cand, red):
        d.mkdir(parents=True)
    dims = (128.0, 128.0, 96.0)
    volumes = []
    with open(data / "annotations.jsonl", "w") as ann:
        for i in range(w.volumes):
            vid = f"vol-{i:04d}"
            n_lesions = 0 if rng.random() < 0.3 else rng.randint(1, 4)
            found, false = [], []
            for _ in range(n_lesions):
                center = [rng.uniform(12.0, d - 12.0) for d in dims]
                diameter = rng.uniform(2.5, 20.0)
                _dump(ann, {
                    "volume_id": vid,
                    "center_vox": center,
                    "diameter_vox": diameter,
                    "labels": {"size_class": _size_class(diameter),
                               "location": f"vessel-{rng.randrange(4)}"},
                })
                if rng.random() < 0.9:
                    jittered = [c + rng.gauss(0.0, 1.0) for c in center]
                    found.append((jittered, diameter * rng.uniform(0.9, 1.1)))
            for _ in range(sum(rng.random() < 0.5 for _ in range(8))):
                false.append(([rng.uniform(2.0, d - 3.0) for d in dims], rng.uniform(3.0, 10.0)))
            for out, stage, tp_range, fp_range in (
                (cand, "detector", (0.5, 1.0), (0.3, 0.9)),
                (red, "reduced", (0.6, 1.0), (0.05, 0.7)),
            ):
                with open(out / f"{vid}.cand.jsonl", "w") as f:
                    for boxes, prob_range in ((found, tp_range), (false, fp_range)):
                        for center, diameter in boxes:
                            _dump(f, {"volume_id": vid, "center_vox": center,
                                      "diameter_vox": diameter,
                                      "prob": rng.uniform(*prob_range), "stage": stage})
            volumes.append({"volume_id": vid, "volume": f"{vid}.vol.json",
                            "n_lesions": n_lesions})
    manifest = {"seed": seed, "annotations": "annotations.jsonl", "volumes": volumes}
    (data / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
