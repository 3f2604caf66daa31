"""Command-line surface: dataset synthesis, detection, rescoring,
evaluation, and two-run comparison.

Exit codes: 0 success, 2 configuration or usage error, 3 data error
(missing or corrupt files, including malformed manifest, annotation and
candidate records, a volume that preprocessing cannot handle, and plugin
output that breaks its contract), 4 consistency error (mismatched volume
sets).
Every command is deterministic given its config (seeds included); reruns
produce byte-identical outputs, independent of ``--jobs``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import RunConfig
from .evaluation import EvalVolume, build_report, confusion_at_threshold, fisher_exact
from .formats import (
    FormatError,
    Manifest,
    ManifestVolume,
    read_annotations,
    read_candidates,
    read_manifest,
    write_annotations,
    write_candidates,
    write_froc_csv,
    write_manifest,
    write_roc_csv,
)
from .pipeline import (
    VolumeDataError,
    detect_volume,
    oracle_scorer_factory,
    reduce_volume,
)
from .synth import PhantomSpec, generate_phantom, perfect_classifier, reference_classifier
from .volume import read_volume, write_volume


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


class ConsistencyError(Exception):
    exit_code = 4


def _load_config(args) -> RunConfig:
    if args.config:
        try:
            cfg = RunConfig.from_file(args.config)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {args.config}") from e
        except (ValueError, TypeError, json.JSONDecodeError) as e:
            raise ConfigError(f"invalid config {args.config}: {e}") from e
    else:
        cfg = RunConfig()
    for name in ("seed", "jobs"):  # command-line overrides
        if getattr(args, name) is not None:
            cfg = dataclasses.replace(cfg, **{name: getattr(args, name)})
    fppvs = cfg.fppv_grid + cfg.operating_fppvs
    for ok, problem in (  # each test is False for NaN
        (cfg.jobs >= 1, f"--jobs must be >= 1, got {cfg.jobs}"),
        (cfg.grid_size >= 1 and cfg.patch_size[0] % cfg.grid_size == 0,
         f"patch size {cfg.patch_size[0]} not divisible by grid size {cfg.grid_size}"),
        (all(0 <= cfg.tile_overlap < p for p in cfg.patch_size),
         f"tile_overlap must be >= 0 and below each of patch_size {cfg.patch_size}, "
         f"got {cfg.tile_overlap}"),
        (cfg.anchor_sizes and all(0 < s < math.inf for s in cfg.anchor_sizes),
         f"anchor_sizes must be non-empty, positive and finite, got {cfg.anchor_sizes}"),
        (len(cfg.hu_window) == 2 and cfg.hu_window[0] < cfg.hu_window[1],
         f"hu_window must be [lo, hi] with lo < hi, got {cfg.hu_window}"),
        (cfg.bootstrap_resamples >= 1,
         f"bootstrap_resamples must be >= 1, got {cfg.bootstrap_resamples}"),
        (0 < cfg.bootstrap_level < 1,
         f"bootstrap_level must be in (0, 1), got {cfg.bootstrap_level}"),
        (cfg.fppv_grid, "fppv_grid must not be empty"),
        (all(f >= 0 for f in fppvs),
         f"fppv_grid and operating_fppvs entries must be >= 0, got {fppvs}"),
    ):
        if not ok:
            raise ConfigError(problem)
    return cfg


def _run_tasks(worker, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _resolve_plugin(spec: str):
    module, _, attr = spec.partition(":")
    if not attr:
        raise ConfigError(f"plugin must be 'module:callable', got {spec!r}")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as e:
        raise ConfigError(f"cannot load plugin {spec!r}: {e}") from e


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _phantom_spec(cfg: RunConfig, seed: int, n_aneurysms: int) -> PhantomSpec:
    return PhantomSpec(
        dims=cfg.phantom_dims,
        spacing=cfg.phantom_spacing,
        n_vessels=cfg.n_vessels,
        vessel_radius_range=cfg.vessel_radius_range,
        n_aneurysms=n_aneurysms,
        aneurysm_diameter_range=cfg.aneurysm_diameter_range,
        vessel_hu=cfg.vessel_hu,
        aneurysm_hu=cfg.aneurysm_hu,
        background_hu=cfg.background_hu,
        noise_sigma=cfg.phantom_noise_sigma,
        seed=seed,
    )


def _synth_worker(task):
    vid, spec, out_dir = task
    volume, lesions = generate_phantom(spec, volume_id=vid)
    write_volume(volume, Path(out_dir) / vid)
    return vid, lesions


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise ConfigError(f"output directory not writable: {out_dir} ({e})") from e

    try:
        tasks = []
        for i in range(cfg.n_volumes):
            vid = f"vol-{i:04d}"
            # phantom seed is base seed + volume index; the lesion-free
            # decision draws from its own (seed, 9090, index) stream
            negative = (
                cfg.negative_fraction > 0
                and np.random.default_rng([cfg.seed, 9090, i]).random()
                < cfg.negative_fraction
            )
            n_an = 0 if negative else cfg.n_aneurysms
            tasks.append((vid, _phantom_spec(cfg, cfg.seed + i, n_an), str(out_dir)))
        results = _run_tasks(_synth_worker, tasks, cfg.jobs)
    except ValueError as e:
        raise ConfigError(f"invalid phantom configuration: {e}") from e

    annotations = {vid: lesions for vid, lesions in results if lesions}
    write_annotations(out_dir / "annotations.jsonl", annotations)
    manifest = Manifest(
        volumes=tuple(
            ManifestVolume(vid, f"{vid}.vol.json", len(lesions))
            for vid, lesions in results
        ),
        annotations="annotations.jsonl",
        seed=cfg.seed,
    )
    write_manifest(out_dir / "manifest.json", manifest)
    print(f"wrote {len(results)} volumes to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _load_dataset(manifest_path) -> tuple[Manifest, Path, dict]:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")
    manifest = read_manifest(manifest_path)
    base = manifest_path.parent
    ann_path = base / manifest.annotations
    if not ann_path.exists():
        raise DataError(f"annotation file not found: {ann_path}")
    annotations = read_annotations(ann_path)
    unknown = sorted(set(annotations) - set(manifest.volume_ids()))
    if unknown:
        raise ConsistencyError(
            f"annotations reference volume ids missing from the manifest: {unknown}"
        )
    return manifest, base, annotations


def _read_task_volume(vid, path):
    try:
        return read_volume(path)
    except (FileNotFoundError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"cannot read volume {vid!r}: {e}") from e


def _detect_worker(task):
    vid, volume_path, boxes, cfg, seed, detector = task
    volume = _read_task_volume(vid, volume_path)
    factory = (
        oracle_scorer_factory if detector == "oracle" else _resolve_plugin(detector)
    )
    return vid, detect_volume(volume, boxes, cfg, seed, factory)


def cmd_detect(args) -> int:
    cfg = _load_config(args)
    manifest, base, annotations = _load_dataset(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (
            entry.volume_id,
            str(base / entry.volume),
            [l.box for l in annotations.get(entry.volume_id, [])],
            cfg,
            cfg.seed + i,
            args.detector,
        )
        for i, entry in enumerate(manifest.volumes)
    ]
    results = _run_tasks(_detect_worker, tasks, cfg.jobs)
    for vid, cands in results:
        write_candidates(out_dir / f"{vid}.cand.jsonl", vid, cands)
    print(f"wrote candidates for {len(results)} volumes to {out_dir}")
    return 0


def _read_candidate_dir(cand_dir: Path, ids) -> dict:
    """The candidates of each manifest volume, reading each file once.

    A missing or unknown candidate file, or a record whose volume id is
    outside the manifest, is a volume-set consistency error; records of
    another manifest volume are ignored.
    """
    id_set = set(ids)
    names = {p.name[: -len(".cand.jsonl")] for p in cand_dir.glob("*.cand.jsonl")}
    missing = [vid for vid in ids if vid not in names]
    extra_files = sorted(names - id_set)
    if missing or extra_files:
        raise ConsistencyError(
            "candidate files do not match the manifest volume ids; "
            f"missing candidates: {missing}; unknown candidate files: {extra_files}"
        )
    candidates = {vid: [] for vid in ids}
    foreign = set()
    for vid in ids:
        for rec_vid, cand in read_candidates(cand_dir / f"{vid}.cand.jsonl"):
            if rec_vid not in id_set:
                foreign.add(rec_vid)
            elif rec_vid == vid:
                candidates[vid].append(cand)
    if foreign:
        raise ConsistencyError(
            f"candidate records reference unknown volume ids: {sorted(foreign)}"
        )
    return candidates


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _reduce_worker(task):
    vid, volume_path, cands, lesions, cfg, classifier = task
    volume = _read_task_volume(vid, volume_path)
    if classifier == "reference":
        clf = reference_classifier
    elif classifier == "perfect":
        clf = perfect_classifier(lesions)
    else:
        clf = _resolve_plugin(classifier)(volume, lesions, cfg)
    return vid, reduce_volume(volume, cands, clf, cfg)


def cmd_reduce(args) -> int:
    cfg = _load_config(args)
    manifest, base, annotations = _load_dataset(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    candidates = _read_candidate_dir(Path(args.candidates), manifest.volume_ids())
    tasks = [
        (entry.volume_id, str(base / entry.volume), candidates[entry.volume_id],
         annotations.get(entry.volume_id, []), cfg, args.classifier)
        for entry in manifest.volumes
    ]
    results = _run_tasks(_reduce_worker, tasks, cfg.jobs)
    for vid, cands in results:
        write_candidates(out_dir / f"{vid}.cand.jsonl", vid, cands)
    print(f"wrote rescored candidates for {len(results)} volumes to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    cfg = _load_config(args)
    manifest, base, annotations = _load_dataset(args.manifest)
    ids = manifest.volume_ids()
    candidates = _read_candidate_dir(Path(args.candidates), ids)
    volumes = [
        EvalVolume(
            vid,
            tuple(annotations.get(vid, [])),
            tuple(candidates[vid]),
        )
        for vid in ids
    ]
    try:
        report = build_report(
            volumes,
            fppv_grid=cfg.fppv_grid,
            operating_fppvs=cfg.operating_fppvs,
            strata_keys=cfg.strata_keys if annotations else (),
            n_resamples=cfg.bootstrap_resamples,
            level=cfg.bootstrap_level,
            seed=cfg.seed,
            provenance={
                "manifest": str(args.manifest),
                "candidates": str(args.candidates),
                "seed": cfg.seed,
                "bootstrap_resamples": cfg.bootstrap_resamples,
                "fppv_grid": list(cfg.fppv_grid),
                "operating_fppvs": list(cfg.operating_fppvs),
            },
        )
    except ValueError as e:
        raise DataError(f"cannot evaluate dataset: {e}") from e
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    write_froc_csv(out_dir / "froc.csv", report.froc.thresholds, report.froc.points)
    roc = report.roc
    write_roc_csv(
        out_dir / "roc.csv", roc.thresholds if roc else (), roc.points if roc else ()
    )
    print(f"wrote report to {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _confusion(report: dict, op: dict):
    """Volume-level confusion counts of one report at one operating point."""
    scores = {
        rec["volume_id"]: (rec["score"], rec["has_lesion"])
        for rec in report["volume_scores"]
    }
    return confusion_at_threshold(
        list(scores.values()), op["threshold"], inclusive=op["score_rule"] == "ge"
    )


def _fisher_or_none(table) -> float | None:
    if sum(table[0]) + sum(table[1]) == 0:
        return None
    return fisher_exact(table)


# the records compare reads from a report, and the types it needs in them
_REPORT_RECORDS = {
    "volume_scores": {"volume_id": str, "score": (int, float), "has_lesion": bool},
    "operating_points": {
        "name": str,
        "threshold": (int, float),
        "score_rule": str,
        "metrics": dict,
    },
}


def _report_problem(report) -> str | None:
    if not isinstance(report, dict):
        return "not a JSON object"
    for key, fields in _REPORT_RECORDS.items():
        records = report.get(key)
        if not isinstance(records, list):
            return f"{key!r} is missing or not a list"
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                return f"{key}[{i}] is not an object"
            for name, kind in fields.items():
                if not isinstance(rec.get(name), kind):
                    return f"{key}[{i}] lacks {name!r} or it has the wrong type"
    froc = report.get("froc")
    if not isinstance(froc, dict) or "points" not in froc:
        return "'froc' is missing or lacks 'points'"
    return None


def _read_report(path) -> dict:
    """A report.json holding every key compare reads; DataError otherwise."""
    try:
        report = json.loads(Path(path).read_text())
    except OSError as e:
        raise DataError(str(e)) from e
    except ValueError as e:  # JSON and UTF-8 decode errors
        raise DataError(f"{path}: not a JSON report: {e}") from e
    problem = _report_problem(report)
    if problem:
        raise DataError(f"{path}: malformed report: {problem}")
    return report


def cmd_compare(args) -> int:
    report_a = _read_report(args.report_a)
    report_b = _read_report(args.report_b)
    ids_a = {r["volume_id"] for r in report_a["volume_scores"]}
    ids_b = {r["volume_id"] for r in report_b["volume_scores"]}
    if ids_a != ids_b:
        raise ConsistencyError(
            "reports cover different volume sets; "
            f"only in A: {sorted(ids_a - ids_b)}; only in B: {sorted(ids_b - ids_a)}"
        )
    ops_a = {op["name"]: op for op in report_a["operating_points"]}
    ops_b = {op["name"]: op for op in report_b["operating_points"]}
    rows = []
    for name in [n for n in ops_a if n in ops_b]:
        ms = [_confusion(report_a, ops_a[name]), _confusion(report_b, ops_b[name])]
        rows.append(
            {
                "name": name,
                "a": ops_a[name]["metrics"],
                "b": ops_b[name]["metrics"],
                "p_accuracy": _fisher_or_none([[m.tp + m.tn, m.fp + m.fn] for m in ms]),
                "p_sensitivity": _fisher_or_none([[m.tp, m.fn] for m in ms]),
                "p_specificity": _fisher_or_none([[m.tn, m.fp] for m in ms]),
            }
        )
    comparison = {
        "n_volumes": len(ids_a),
        "operating_points": rows,
        "froc_a": report_a["froc"]["points"],
        "froc_b": report_b["froc"]["points"],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(comparison, sort_keys=True, indent=2) + "\n")
    print(f"wrote comparison to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=None, help="parallel volume workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctadet",
        description="Two-stage volumetric lesion detection pipeline and evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic phantom dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run first-stage detection over a dataset")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="dataset manifest.json")
    p.add_argument("--out", required=True, help="candidate output directory")
    p.add_argument(
        "--detector",
        default="oracle",
        help="'oracle' or a plugin 'module:factory' (default: oracle)",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("reduce", help="rescore candidates with a patch classifier")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--candidates", required=True, help="first-stage candidate dir")
    p.add_argument("--out", required=True, help="rescored candidate directory")
    p.add_argument(
        "--classifier",
        default="reference",
        help="'reference', 'perfect', or a plugin 'module:factory'",
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval", help="evaluate candidates against annotations")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare two evaluation reports")
    _add_common(p)
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--out", required=True, help="comparison JSON path")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, ConsistencyError, FormatError, VolumeDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        # a malformed input file, an unprocessable volume or bad plugin
        # output is a data error
        return getattr(e, "exit_code", DataError.exit_code)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
