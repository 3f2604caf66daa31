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
import math
import sys
from pathlib import Path

from .config import RunConfig, dump_json, load_json
from .stats import confusion_at_threshold, fisher_exact

# The names the commands call, by defining module.  A command binds the
# modules it runs with _load, so it loads nothing else (compare loads no
# numpy); a name bound before, such as a wrapper set on ``ctadet.cli.<name>``,
# stays bound and is what the command calls.
_LAZY = {
    "formats": (
        "FormatError", "Manifest", "ManifestVolume", "read_annotations", "read_candidates",
        "read_manifest", "write_annotations", "write_candidates", "write_curve_csv",
        "write_manifest",
    ),
    "evaluation": ("EvalVolume", "build_report"),
    "fpr": ("perfect_classifier", "reference_classifier"),
    "pipeline": ("detect_volume", "oracle_scorer_factory", "reduce_volume"),
    "synth": ("generate_phantom",),
    "volume": ("read_volume", "write_volume"),
}


def _load(*modules: str) -> None:
    g = globals()
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            if name not in g:
                g[name] = getattr(mod, name)


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


class ConsistencyError(Exception):
    exit_code = 4


# Cap on the oracle detector's mean false positives per volume: far larger
# values overflow numpy's Poisson draw, or give every scan that many
# candidates.  The benchmark's crowded workload uses 400.
_MAX_DETECTOR_FP_PER_VOLUME = 10_000


def _load_config(args) -> RunConfig:
    if args.config:
        try:
            cfg = RunConfig.from_file(args.config)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {args.config}") from e
        except (ValueError, TypeError) as e:  # JSON decode errors are ValueErrors
            raise ConfigError(f"invalid config {args.config}: {e}") from e
    else:
        cfg = RunConfig()
    for name in ("seed", "jobs"):  # command-line overrides
        if getattr(args, name) is not None:
            cfg = dataclasses.replace(cfg, **{name: getattr(args, name)})
    fppvs = cfg.fppv_grid + cfg.operating_fppvs
    phantom_ranges = (cfg.vessel_radius_range, cfg.aneurysm_diameter_range)
    detector_ranges = (cfg.detector_fp_prob_range, cfg.detector_tp_prob_range)
    detector_amounts = (cfg.detector_fp_per_volume, cfg.detector_center_jitter,
                        cfg.detector_diameter_jitter)
    for ok, problem in (  # each test is False for NaN
        (cfg.jobs >= 1, f"--jobs must be >= 1, got {cfg.jobs}"),
        (cfg.seed >= 0, f"seed must be >= 0, got {cfg.seed}"),
        (len(cfg.patch_size) == 3 and all(p >= 1 for p in cfg.patch_size),
         f"patch_size must be 3 positive integers, got {cfg.patch_size}"),
        (cfg.grid_size >= 1 and all(p % cfg.grid_size == 0 for p in cfg.patch_size[:1]),
         f"first patch_size entry of {cfg.patch_size} not divisible by grid size "
         f"{cfg.grid_size}"),
        (all(0 <= cfg.tile_overlap < p for p in cfg.patch_size),
         f"tile_overlap must be >= 0 and below each of patch_size {cfg.patch_size}, "
         f"got {cfg.tile_overlap}"),
        (cfg.anchor_sizes and all(0 < s < math.inf for s in cfg.anchor_sizes),
         f"anchor_sizes must be non-empty, positive and finite, got {cfg.anchor_sizes}"),
        (len(cfg.fpr_patch_sizes) == 3
         and all(len(s) == 3 and all(p >= 1 for p in s) for s in cfg.fpr_patch_sizes),
         f"fpr_patch_sizes must be 3 sizes of 3 positive integers, got {cfg.fpr_patch_sizes}"),
        (len(cfg.hu_window) == 2 and cfg.hu_window[0] < cfg.hu_window[1],
         f"hu_window must be [lo, hi] with lo < hi, got {cfg.hu_window}"),
        (cfg.cranial_max_extent_mm > 0,
         f"cranial_max_extent_mm must be > 0, got {cfg.cranial_max_extent_mm}"),
        (0 <= cfg.nms_iou <= 1, f"nms_iou must be in [0, 1], got {cfg.nms_iou}"),
        (0 <= cfg.sensitivity_floor < 1,
         f"sensitivity_floor must be in [0, 1), got {cfg.sensitivity_floor}"),
        (cfg.bootstrap_resamples >= 1,
         f"bootstrap_resamples must be >= 1, got {cfg.bootstrap_resamples}"),
        (0 < cfg.bootstrap_level < 1,
         f"bootstrap_level must be in (0, 1), got {cfg.bootstrap_level}"),
        (cfg.fppv_grid, "fppv_grid must not be empty"),
        (all(f >= 0 for f in fppvs),
         f"fppv_grid and operating_fppvs entries must be >= 0, got {fppvs}"),
        (all(len(r) == 2 and 0 < r[0] <= r[1] for r in phantom_ranges),
         f"vessel_radius_range and aneurysm_diameter_range must be [lo, hi] with "
         f"0 < lo <= hi, got {phantom_ranges[0]} and {phantom_ranges[1]}"),
        (cfg.n_vessels >= 0 and cfg.n_aneurysms >= 0,
         f"n_vessels and n_aneurysms must be >= 0, got {cfg.n_vessels} and {cfg.n_aneurysms}"),
        (cfg.phantom_noise_sigma >= 0,
         f"phantom_noise_sigma must be >= 0, got {cfg.phantom_noise_sigma}"),
        (0 <= cfg.detector_hit_prob <= 1,
         f"detector_hit_prob must be in [0, 1], got {cfg.detector_hit_prob}"),
        (all(len(r) == 2 and 0 <= r[0] <= r[1] <= 1 for r in detector_ranges),
         f"detector_fp_prob_range and detector_tp_prob_range must be [lo, hi] with "
         f"0 <= lo <= hi <= 1, got {detector_ranges[0]} and {detector_ranges[1]}"),
        (all(x >= 0 for x in detector_amounts),
         f"detector_fp_per_volume, detector_center_jitter and detector_diameter_jitter "
         f"must be >= 0, got {detector_amounts}"),
        (cfg.detector_fp_per_volume <= _MAX_DETECTOR_FP_PER_VOLUME,
         f"detector_fp_per_volume must be <= {_MAX_DETECTOR_FP_PER_VOLUME}, "
         f"got {cfg.detector_fp_per_volume}"),
        (len(cfg.phantom_dims) == 3 and all(d >= 1 for d in cfg.phantom_dims),
         f"phantom_dims needs 3 entries of at least 1, got {list(cfg.phantom_dims)}"),
        (len(cfg.phantom_spacing) == 3 and all(0 < s < math.inf for s in cfg.phantom_spacing),
         f"phantom_spacing needs 3 entries, each positive and finite, "
         f"got {list(cfg.phantom_spacing)}"),
        (cfg.n_volumes >= 0, f"n_volumes must be >= 0, got {cfg.n_volumes}"),
        (0 <= cfg.negative_fraction <= 1,
         f"negative_fraction must be in [0, 1], got {cfg.negative_fraction}"),
    ):
        if not ok:
            raise ConfigError(problem)
    return cfg


def _run_tasks(worker, tasks, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    # imported here: the pool machinery costs every command tens of ms
    from concurrent.futures import ProcessPoolExecutor

    # a fork pool starts all its workers at the first submit: start no idle ones
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
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

def _synth_worker(task):
    _load("synth", "volume")  # a spawned worker starts with nothing bound
    vid, cfg, out_dir = task
    phantom, lesions = generate_phantom(cfg, volume_id=vid)
    write_volume(phantom, Path(out_dir) / vid)  # fills the phantom as it writes it
    return vid, lesions


def cmd_synth(args) -> int:
    import numpy as np

    _load("formats", "synth", "volume")
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
            phantom_cfg = dataclasses.replace(cfg, seed=cfg.seed + i, n_aneurysms=n_an)
            tasks.append((vid, phantom_cfg, str(out_dir)))
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
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read volume {vid!r}: {e}") from e


def _detect_worker(task):
    _load("pipeline", "volume")
    vid, volume_path, boxes, cfg, seed, detector = task
    volume = _read_task_volume(vid, volume_path)
    factory = (
        oracle_scorer_factory if detector == "oracle" else _resolve_plugin(detector)
    )
    return vid, detect_volume(volume, boxes, cfg, seed, factory)


def cmd_detect(args) -> int:
    _load("formats", "pipeline", "volume")
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
    _load("fpr", "pipeline", "volume")
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
    _load("formats", "fpr", "pipeline", "volume")
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
    _load("formats", "evaluation")
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
    (out_dir / "report.json").write_text(dump_json(report, indent=2))
    write_curve_csv(out_dir / "froc.csv", ("threshold", "fppv", "sensitivity"),
                    report["froc"]["points"])
    write_curve_csv(out_dir / "roc.csv", ("threshold", "fpr", "tpr"), report["roc"] or ())
    print(f"wrote report to {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _confusion(report: dict, op: dict):
    """Volume-level confusion counts of one report at one operating point;
    a null threshold (an unreachable point) calls no volume positive."""
    scores = {
        rec["volume_id"]: (rec["score"], rec["has_lesion"])
        for rec in report["volume_scores"]
    }
    threshold = math.inf if op["threshold"] is None else op["threshold"]
    return confusion_at_threshold(
        list(scores.values()), threshold, inclusive=op["score_rule"] == "ge"
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
        "threshold": (int, float, type(None)),
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
                if name not in rec or not isinstance(rec[name], kind):
                    return f"{key}[{i}] lacks {name!r} or it has the wrong type"
    froc = report.get("froc")
    if not isinstance(froc, dict) or "points" not in froc:
        return "'froc' is missing or lacks 'points'"
    return None


def _read_report(path) -> dict:
    """A report.json holding every key compare reads; DataError otherwise."""
    try:
        report = load_json(Path(path).read_text())
    except OSError as e:
        raise DataError(str(e)) from e
    except ValueError as e:  # JSON and UTF-8 decode errors
        raise DataError(f"{path}: not a JSON report: {e}") from e
    problem = _report_problem(report)
    if problem:
        raise DataError(f"{path}: malformed report: {problem}")
    return report


def cmd_compare(args) -> int:
    _load_config(args)  # the common flags fail as they do for the other commands
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
    out.write_text(dump_json(comparison, indent=2))
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
    except (ConfigError, DataError, ConsistencyError, ValueError) as e:
        # the ValueErrors that carry an exit code, 3, are FormatError (a
        # malformed input file) and VolumeDataError (an unprocessable volume
        # or bad plugin output); any other is a bug
        if not hasattr(e, "exit_code"):
            raise
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
