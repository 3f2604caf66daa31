"""Acceptance suite: each test enforces one numbered acceptance criterion
at its stated tolerance and prints one pass/fail line (visible with
``pytest -s`` or on failure).

Criterion 7 drives the shipped CLI end to end on 50 synthetic volumes and
is the slowest test here (about 15 seconds); everything else is seconds.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ctadet.anchors import Anchor, AnchorLabel, AnchorStatus, BoundingBox, TargetVector, decode, encode, iou3d
from ctadet.cli import main
from ctadet.config import RunConfig
from ctadet.evaluation import (
    avg_sensitivity,
    bootstrap_ci,
    fisher_exact,
    froc,
    match_lesions,
)
from ctadet.loss import AnchorPrediction, LossParams, anchor_loss, check_anchor_loss_gradient, patch_loss
from ctadet.postproc import CandidateDetection, nms
from oracles import (
    avg_sensitivity_oracle,
    fisher_oracle,
    froc_oracle,
    iou3d_oracle,
    match_oracle,
    nms_oracle,
    top_k_subset_oracle,
)


def _report(num: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def _random_box(rng, lattice=False, span=20):
    if lattice:
        lo = rng.integers(-8, 9, 3)
        d = int(rng.integers(1, 9))
        return BoundingBox(tuple(lo + d / 2.0), d)
    return BoundingBox(tuple(rng.uniform(0, span, 3)), float(rng.uniform(0.5, 8)))


def _random_cands(rng, n, span=20.0):
    return [
        CandidateDetection(_random_box(rng, span=span), float(rng.uniform(0, 1)))
        for _ in range(n)
    ]


def test_criterion_1_geometry_oracle_equivalence():
    def body():
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            a, b = _random_box(rng, lattice=True), _random_box(rng, lattice=True)
            assert abs(iou3d(a, b) - float(iou3d_oracle(a, b))) <= 1e-12
        for _ in range(1000):
            cands = _random_cands(rng, int(rng.integers(0, 21)))
            assert nms(cands) == nms_oracle(cands, iou3d, 0.25, 0.25)
        for _ in range(1000):
            boxes = [_random_box(rng, span=40) for _ in range(int(rng.integers(0, 4)))]
            cands = _random_cands(rng, int(rng.integers(0, 8)), span=40)
            m = match_lesions(cands, boxes)
            is_tp, hit_probs = match_oracle(cands, boxes)
            assert list(m.candidate_is_tp) == is_tp
            assert list(m.lesion_hit_probs) == hit_probs
        assert time.monotonic() - start < 60.0

    _report(1, "geometry matches brute-force oracles", body)


def test_criterion_2_encode_decode_roundtrip():
    def body():
        rng = np.random.default_rng(1002)
        n = 100_000
        sizes = rng.choice([5.0, 10.0, 20.0], n)
        positions = rng.uniform(0.0, 96.0, (n, 3))
        centers = rng.uniform(0.0, 96.0, (n, 3))
        diameters = rng.uniform(0.3, 40.0, n)
        probs = rng.uniform(0.0, 1.0, n)
        for i in range(n):
            anchor = Anchor((0, 0, 0), tuple(positions[i]), float(sizes[i]), 0)
            box = BoundingBox(tuple(centers[i]), float(diameters[i]))
            out, p = decode(encode(box, anchor, float(probs[i])), anchor)
            assert p == probs[i]
            for got, want in zip(out.center, box.center):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            assert abs(out.diameter - box.diameter) <= 1e-9 * box.diameter

    _report(2, "encode/decode roundtrip within 1e-9 on 1e5 pairs", body)


def test_criterion_3_gradient_and_hard_negatives():
    def body():
        rng = np.random.default_rng(1003)
        anchor = Anchor((0, 0, 0), (10.0, 10.0, 10.0), 10.0, 1)
        worst = 0.0
        checked = 0
        while checked < 1000:
            target = TargetVector(1.0, *rng.uniform(-1.5, 1.5, 3), float(rng.uniform(-1, 1)))
            label = AnchorLabel(
                AnchorStatus.POSITIVE,
                matched_box=BoundingBox((10, 10, 10), 10.0),
                target=target,
            )
            h = 1e-5
            g = tuple(
                t + float(rng.uniform(0.05, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
                for t in target.geometry
            )
            p = float(rng.uniform(0.05, 0.95))
            pred = AnchorPrediction(anchor, TargetVector(p, *g))
            report = check_anchor_loss_gradient(pred, label, h=h, tol=1e-4)
            assert not report.skipped  # geometry drawn away from kinks
            assert report.passed, report
            worst = max(worst, report.max_rel_error)
            checked += 1
        assert worst < 1e-4

        params = LossParams()
        neg_label = AnchorLabel(AnchorStatus.NEGATIVE)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            preds = [
                AnchorPrediction(
                    anchor,
                    TargetVector(float(rng.uniform(0.01, 0.99)), *rng.uniform(-1, 1, 4)),
                )
                for _ in range(n)
            ]
            labels = [neg_label] * n
            losses = [anchor_loss(p, l, params)[0] for p, l in zip(preds, labels)]
            _, best_total = top_k_subset_oracle(losses, params.hard_neg_k)
            k = min(params.hard_neg_k, n)
            assert patch_loss(preds, labels, params) == pytest.approx(
                best_total / k, rel=1e-12
            )

    _report(3, "analytic gradients and top-2 hard negatives", body)


def _random_eval_volume(rng):
    lesions = [
        BoundingBox(tuple(rng.uniform(5, 55, 3)), float(rng.uniform(3, 10)))
        for _ in range(int(rng.integers(0, 4)))
    ]
    cands = []
    for _ in range(int(rng.integers(0, 7))):
        if lesions and rng.random() < 0.5:
            target = lesions[int(rng.integers(len(lesions)))]
            center = tuple(float(c + rng.uniform(-1, 1)) for c in target.center)
        else:
            center = tuple(rng.uniform(0, 60, 3))
        cands.append(CandidateDetection(BoundingBox(center, 4.0), float(rng.uniform(0, 1))))
    return lesions, cands


def test_criterion_4_froc_correctness():
    def body():
        # the two-volume worked example, exactly
        dataset = [
            ([BoundingBox((10, 10, 10), 6.0)],
             [CandidateDetection(BoundingBox((10, 10, 10), 4.0), 0.9),
              CandidateDetection(BoundingBox((40, 40, 40), 4.0), 0.6)]),
            ([BoundingBox((20, 20, 20), 6.0)],
             [CandidateDetection(BoundingBox((20, 20, 20), 4.0), 0.4)]),
        ]
        curve = froc(dataset)
        assert curve.thresholds == (0.9, 0.6, 0.4)
        assert curve.points == ((0.0, 0.5), (0.5, 0.5), (0.5, 1.0))

        grid = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        rng = np.random.default_rng(1004)
        for trial in range(1000):
            data = [_random_eval_volume(rng) for _ in range(int(rng.integers(1, 5)))]
            if sum(len(l) for l, _ in data) == 0:
                continue
            c = froc(data)
            fppvs = [f for f, _ in c.points]
            senss = [s for _, s in c.points]
            assert fppvs == sorted(fppvs) and senss == sorted(senss)
            if trial % 5 == 0:
                thresholds, points = froc_oracle(data)
                assert list(c.thresholds) == thresholds
                assert all(
                    abs(g[0] - w[0]) <= 1e-12 and abs(g[1] - w[1]) <= 1e-12
                    for g, w in zip(c.points, points)
                )
                got = avg_sensitivity(c, grid)
                want = avg_sensitivity_oracle(data, grid)
                assert abs(got - want) <= 1e-12

    _report(4, "FROC worked example, monotonicity, averaged sensitivity", body)


def test_criterion_5_fisher_exhaustive():
    def body():
        start = time.monotonic()
        assert fisher_exact([[3, 1], [1, 3]]) == pytest.approx(34 / 70, abs=1e-12)
        total_checked = 0
        for a in range(41):
            for b in range(41 - a):
                for c in range(41 - a - b):
                    for d in range(41 - a - b - c):
                        if a + b + c + d == 0:
                            continue
                        table = [[a, b], [c, d]]
                        got = fisher_exact(table)
                        want = float(fisher_oracle(table))
                        assert abs(got - want) <= max(1e-10 * want, 1e-12), table
                        total_checked += 1
        assert total_checked == 135750  # all tables with 1 <= grand total <= 40
        assert time.monotonic() - start < 60.0

    _report(5, "Fisher equals enumeration for all tables with total <= 40", body)


def test_criterion_6_bootstrap_determinism():
    def body():
        data = list(np.random.default_rng(7).normal(5.0, 2.0, 40))
        mean = lambda items: float(np.mean(items))
        first = bootstrap_ci(mean, data, n_resamples=1000, seed=123)
        second = bootstrap_ci(mean, data, n_resamples=1000, seed=123)
        assert first == second
        # schedule independence: computing resamples in any order gives the
        # same interval because seeds are derived from the resample index
        values = np.empty(1000)
        order = np.random.default_rng(0).permutation(1000)
        for i in order:
            rng = np.random.default_rng([123, int(i), 0])
            idx = rng.integers(0, len(data), len(data))
            values[i] = np.mean([data[j] for j in idx])
        lo, hi = np.percentile(values, [2.5, 97.5])
        assert first == (float(lo), float(hi))
        degenerate = bootstrap_ci(mean, [2.5] * 10, n_resamples=1000, seed=9)
        assert degenerate == (2.5, 2.5)

    _report(6, "bootstrap CIs bit-identical and schedule-independent", body)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _e2e_config(path: Path) -> None:
    cfg = RunConfig.from_dict(
        {
            **RunConfig().to_dict(),
            "n_volumes": 50,
            "n_aneurysms": 4,
            "aneurysm_diameter_range": [5.0, 18.0],
            "detector_hit_prob": 0.95,
            "detector_center_jitter": 1.0,
            "detector_fp_per_volume": 4.0,
            "detector_fp_prob_range": [0.3, 0.9],
            "detector_tp_prob_range": [0.5, 1.0],
            "seed": 20,
        }
    )
    cfg.to_file(path)


def _run_e2e(root: Path, jobs: int) -> None:
    c = str(root / "config.json")
    j = str(jobs)
    assert main(["synth", "--config", c, "--jobs", j, "--out", str(root / "data")]) == 0
    manifest = str(root / "data" / "manifest.json")
    assert main(["detect", "--config", c, "--jobs", j, "--manifest", manifest,
                 "--out", str(root / "cand")]) == 0
    assert main(["reduce", "--config", c, "--jobs", j, "--manifest", manifest,
                 "--candidates", str(root / "cand"), "--out", str(root / "reduced"),
                 "--classifier", "perfect"]) == 0
    assert main(["eval", "--config", c, "--manifest", manifest,
                 "--candidates", str(root / "cand"),
                 "--out", str(root / "eval-stage1")]) == 0
    assert main(["eval", "--config", c, "--manifest", manifest,
                 "--candidates", str(root / "reduced"),
                 "--out", str(root / "eval-reduced")]) == 0
    assert main(["compare",
                 "--report-a", str(root / "eval-stage1" / "report.json"),
                 "--report-b", str(root / "eval-reduced" / "report.json"),
                 "--out", str(root / "comparison.json")]) == 0


def _sens_at(report: dict, budget: float) -> float:
    best = 0.0
    for point in report["froc"]["points"]:
        if point["fppv"] <= budget:
            best = max(best, point["sensitivity"])
    return best


def test_criterion_7_end_to_end_pipeline(tmp_path, monkeypatch):
    def body():
        start = time.monotonic()
        digests = {}
        for jobs in (1, 2):
            root = tmp_path / f"run-jobs{jobs}"
            root.mkdir()
            _e2e_config(root / "config.json")
            monkeypatch.chdir(root)
            _run_e2e(Path("."), jobs)
            monkeypatch.chdir(tmp_path)
            digests[jobs] = _tree_digest(root)
        elapsed = time.monotonic() - start
        assert digests[1] == digests[2]  # deterministic, --jobs independent

        stage1 = json.loads((tmp_path / "run-jobs1" / "eval-stage1" / "report.json").read_text())
        reduced = json.loads((tmp_path / "run-jobs1" / "eval-reduced" / "report.json").read_text())
        sens_stage1_8 = _sens_at(stage1, 8.0)
        sens_stage1_025 = _sens_at(stage1, 0.25)
        sens_reduced_025 = _sens_at(reduced, 0.25)
        print(
            f"    stage1 sens@8={sens_stage1_8:.3f} sens@0.25={sens_stage1_025:.3f} "
            f"reduced sens@0.25={sens_reduced_025:.3f} elapsed={elapsed:.1f}s"
        )
        assert sens_stage1_8 >= 0.90
        assert sens_reduced_025 - sens_stage1_025 >= 0.2
        assert elapsed <= 300.0  # both runs together stay under the budget

    _report(7, "end-to-end synthetic pipeline with FPR ablation", body)


def test_criterion_8_golden_config():
    def body():
        cfg = RunConfig()
        assert cfg.hu_window == (-1000.0, 1000.0)
        assert cfg.cranial_max_extent_mm == 200.0
        assert cfg.patch_size == (96, 96, 96)
        assert cfg.tile_overlap == 16
        assert cfg.grid_size == 24
        assert cfg.anchor_sizes == (5.0, 10.0, 20.0)
        assert cfg.pos_iou == 0.5
        assert cfg.neg_iou == 0.02
        assert cfg.nms_iou == 0.25
        assert cfg.nms_prob == 0.25
        assert cfg.lambda_reg == 0.5
        assert cfg.hard_neg_k == 2
        assert cfg.fpr_patch_sizes == ((20, 20, 10), (32, 32, 16), (48, 48, 32))
        assert cfg.fppv_grid == (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        assert cfg.bootstrap_resamples == 1000
        # and the serialized form carries exactly the same constants
        doc = cfg.to_dict()
        assert doc["hu_window"] == [-1000.0, 1000.0]
        assert doc["cranial_max_extent_mm"] == 200.0
        assert doc["patch_size"] == [96, 96, 96]
        assert doc["tile_overlap"] == 16
        assert doc["grid_size"] == 24
        assert doc["anchor_sizes"] == [5.0, 10.0, 20.0]
        assert doc["pos_iou"] == 0.5
        assert doc["neg_iou"] == 0.02
        assert doc["nms_iou"] == 0.25
        assert doc["nms_prob"] == 0.25
        assert doc["lambda_reg"] == 0.5
        assert doc["hard_neg_k"] == 2
        assert doc["fpr_patch_sizes"] == [[20, 20, 10], [32, 32, 16], [48, 48, 32]]
        assert doc["fppv_grid"] == [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        assert doc["bootstrap_resamples"] == 1000

    _report(8, "default config serializes the documented constants", body)
