import numpy as np
import pytest

from ctadet.anchors import BoundingBox
from ctadet.config import RunConfig
from ctadet.evaluation import froc, sensitivity_at_fppv
from ctadet.fpr import (
    FprPatchSet,
    extract_fpr_patches,
    rescore,
    select_candidates,
)
from ctadet.postproc import CandidateDetection, Stage, nms
from ctadet.synth import (
    OracleDetectorSpec,
    PhantomSpec,
    generate_phantom,
    oracle_detect,
    perfect_classifier,
)
from ctadet.volume import Volume


def cand(center, d=4.0, p=0.5):
    return CandidateDetection(BoundingBox(center, d), p)


def uniform_volume(dims=(128, 128, 128), value=40):
    return Volume(np.full(dims, value, dtype=np.int16), (1, 1, 1), "u", "+z")


class TestSelectCandidates:
    def test_low_probability_kept_only_in_sensitivity_mode(self):
        c = cand((10, 10, 10), p=0.1)
        assert select_candidates([c]) == [c]

    def test_empty(self):
        assert select_candidates([]) == []

    def test_identical_above_normal_threshold(self):
        cands = [cand((10, 10, 10), p=0.9), cand((60, 60, 60), p=0.4)]
        assert select_candidates(cands) == nms(cands)


class TestExtractFprPatches:
    def test_center_of_volume_fully_in_bounds(self):
        rng = np.random.default_rng(2)
        v = Volume(rng.integers(-100, 100, (128, 128, 128)).astype(np.int16),
                   (1, 1, 1), "r", "+z")
        ps = extract_fpr_patches(v, cand((64.0, 64.0, 64.0)))
        assert ps.sizes == RunConfig.fpr_patch_sizes
        # no padding anywhere: every voxel comes from the volume interior
        for patch in ps.patches:
            assert patch.values.min() >= -100 / 1000.0

    def test_near_face_padded(self):
        v = uniform_volume(value=500)
        ps = extract_fpr_patches(v, cand((5.0, 64.0, 64.0)))
        largest = ps.patches[2].values  # 48x48x32
        assert (largest[:19] == -1.0).all()  # air padding, normalized
        assert (largest[19:] == 0.5).all()

    def test_even_size_centering(self):
        v = uniform_volume(dims=(64, 64, 64), value=0)
        marked = v.values.copy()
        marked[30, 30, 30] = 1000
        v = Volume(marked, (1, 1, 1), "m", "+z")
        ps = extract_fpr_patches(v, cand((30.0, 30.0, 30.0)))
        for patch, size in zip(ps.patches, RunConfig.fpr_patch_sizes):
            idx = tuple(s // 2 for s in size)
            assert patch.values[idx] == 1.0

    def test_center_outside_rejected(self):
        v = uniform_volume(dims=(32, 32, 32))
        with pytest.raises(ValueError, match="outside"):
            extract_fpr_patches(v, cand((40.0, 10.0, 10.0)))

    def test_patch_set_requires_three(self):
        v = uniform_volume(dims=(32, 32, 32))
        p = extract_fpr_patches(v, cand((16.0, 16.0, 16.0))).patches[0]
        with pytest.raises(ValueError):
            FprPatchSet(cand((16.0, 16.0, 16.0)), (p, p))


class TestRescore:
    def test_mean(self):
        out = rescore(cand((1, 1, 1), p=0.9), (0.9, 0.6, 0.3))
        assert out.probability == pytest.approx(0.6, abs=1e-12)
        assert out.stage is Stage.REDUCED
        assert out.box == cand((1, 1, 1)).box

    @pytest.mark.parametrize("probs,expected", [((1, 1, 1), 1.0), ((0, 0, 0), 0.0)])
    def test_degenerate(self, probs, expected):
        assert rescore(cand((1, 1, 1)), probs).probability == expected

    def test_order_irrelevant(self):
        a = rescore(cand((1, 1, 1)), (0.1, 0.5, 0.9)).probability
        b = rescore(cand((1, 1, 1)), (0.9, 0.1, 0.5)).probability
        assert a == b

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rescore(cand((1, 1, 1)), (0.5, 1.2, 0.1))


class TestPerfectClassifierAblation:
    def test_rescoring_never_hurts_and_cuts_false_positives(self):
        # detector with injected false positives; the oracle rescorer must
        # improve sensitivity at every fixed FPPV and shrink the
        # positive-probability false-positive pool
        spec = OracleDetectorSpec(
            hit_prob=1.0,
            center_jitter_sigma=0.5,
            fp_per_volume=5.0,
            fp_prob_range=(0.3, 0.95),
            tp_prob_range=(0.4, 0.9),
            seed=0,
        )
        dataset_before = []
        dataset_after = []
        fp_before = fp_after = 0
        for i in range(12):
            phantom_spec = PhantomSpec(
                seed=500 + i, n_aneurysms=3, aneurysm_diameter_range=(6.0, 14.0)
            )
            _, lesions = generate_phantom(phantom_spec, f"p{i}")
            boxes = [l.box for l in lesions]
            spec_i = OracleDetectorSpec(**{**spec.__dict__, "seed": i})
            cands = oracle_detect(boxes, spec_i, phantom_spec.dims)
            probs = perfect_classifier(boxes)(FakeBatch(cands))
            rescored = [rescore(c, p) for c, p in zip(cands, probs)]
            dataset_before.append((boxes, cands))
            dataset_after.append((boxes, rescored))
            fp_before += sum(
                1 for c in cands
                if c.probability > 0 and not any(b.contains(c.box.center) for b in boxes)
            )
            fp_after += sum(
                1 for c in rescored
                if c.probability > 0 and not any(b.contains(c.box.center) for b in boxes)
            )
        curve_before = froc(dataset_before)
        curve_after = froc(dataset_after)
        for q in (0.125, 0.25, 0.5, 1, 2, 4, 8):
            assert sensitivity_at_fppv(curve_after, q) >= sensitivity_at_fppv(
                curve_before, q
            )
        assert fp_before > 0
        assert fp_after < fp_before


class FakeBatch:
    """Just enough of FprBatch for classifiers that only read the candidates."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
