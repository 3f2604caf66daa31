"""Two-stage volumetric lesion detection pipeline and its evaluation
protocol, exercised end to end on synthetic phantoms.

The exports below load their module on first access (PEP 562), so that
importing the package, or one command of :mod:`ctadet.cli`, loads only the
modules it uses.
"""

import importlib

_EXPORTS = {
    "anchors": (
        "Anchor", "AnchorGrid", "AnchorLabel", "AnchorStatus", "BoundingBox", "Lesion",
        "TargetVector", "anchor_grid", "assign_labels", "decode", "encode", "iou3d",
    ),
    "config": ("RunConfig",),
    "evaluation": (
        "EvalVolume", "EvaluationReport", "FrocCurve", "MatchResult", "StatisticUndefined",
        "avg_sensitivity", "best_f1_threshold", "bootstrap_ci", "build_report", "froc",
        "match_lesions", "roc_auc", "sensitivity_at_fppv", "threshold_for_operating_point",
        "volume_score",
    ),
    "fpr": ("FprPatchSet", "extract_fpr_patches", "rescore", "select_candidates"),
    "loss": (
        "AnchorPrediction", "GradCheckReport", "LossParams", "anchor_loss", "grad_check",
        "patch_loss",
    ),
    "postproc": ("CandidateDetection", "Stage", "merge_tiles", "nms"),
    "stats": ("confusion_at_threshold", "fisher_exact"),
    "synth": (
        "OracleDetectorSpec", "PhantomSpec", "generate_phantom", "oracle_detect",
        "perfect_classifier", "reference_classifier",
    ),
    "volume": (
        "PatchSpec", "Volume", "extract_patch", "normalize_hu", "read_volume", "tile_volume",
        "truncate_cranial", "write_volume",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
