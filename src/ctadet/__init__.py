"""Two-stage volumetric lesion detection pipeline and its evaluation
protocol, exercised end to end on synthetic phantoms."""

from .anchors import (
    Anchor,
    AnchorGrid,
    AnchorLabel,
    AnchorStatus,
    BoundingBox,
    Lesion,
    TargetVector,
    anchor_grid,
    assign_labels,
    decode,
    encode,
    iou3d,
)
from .config import RunConfig
from .evaluation import (
    EvalVolume,
    EvaluationReport,
    FrocCurve,
    MatchResult,
    StatisticUndefined,
    avg_sensitivity,
    best_f1_threshold,
    bootstrap_ci,
    build_report,
    confusion_at_threshold,
    fisher_exact,
    froc,
    match_lesions,
    roc_auc,
    sensitivity_at_fppv,
    threshold_for_operating_point,
    volume_score,
)
from .fpr import (
    FprLabel,
    FprPatchSet,
    extract_fpr_patches,
    label_candidate,
    rescore,
    select_candidates,
)
from .loss import (
    AnchorPrediction,
    GradCheckReport,
    LossParams,
    anchor_loss,
    grad_check,
    patch_loss,
)
from .postproc import CandidateDetection, Stage, merge_tiles, nms, to_volume_coords
from .synth import (
    OracleDetectorSpec,
    PhantomSpec,
    generate_phantom,
    oracle_detect,
    perfect_classifier,
    reference_classifier,
)
from .volume import (
    AugmentParams,
    PatchSpec,
    Volume,
    augment,
    extract_patch,
    normalize_hu,
    read_volume,
    sample_training_patches,
    tile_volume,
    truncate_cranial,
    write_volume,
)

__version__ = "0.1.0"
