import numpy as np
import pytest

from ctadet.anchors import BoundingBox
from ctadet.config import RunConfig
from ctadet.evaluation import froc, sensitivity_at_fppv
from ctadet.fpr import (
    FprLabel,
    FprPatchSet,
    extract_fpr_patches,
    label_candidate,
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


class TestLabelCandidate:
    PATCH = (32, 32, 16)

    def test_center_inside_lesion_positive(self):
        lesion = BoundingBox((50, 50, 50), 6.0)
        assert label_candidate(cand((50, 50, 50)), [lesion], self.PATCH) is FprLabel.POSITIVE

    def test_far_from_everything_negative(self):
        lesion = BoundingBox((50, 50, 50), 6.0)
        assert label_candidate(cand((150, 50, 50)), [lesion], self.PATCH) is FprLabel.NEGATIVE

    def test_near_miss_excluded(self):
        lesion = BoundingBox((50.0, 50.0, 50.0), 6.0)
        # just outside the box (dy > 3) but within half the patch extent on
        # every axis: (3, 3.5, 0) < (16, 16, 8)
        c = cand((53.0, 53.5, 50.0))
        assert not lesion.contains(c.box.center)
        assert label_candidate(c, [lesion], self.PATCH) is FprLabel.EXCLUDED

    def test_positive_dominates_excluded(self):
        lesion = BoundingBox((50, 50, 50), 6.0)
        c = cand((51.0, 50.0, 50.0))  # inside the lesion and near its center
        assert label_candidate(c, [lesion], self.PATCH) is FprLabel.POSITIVE

    def test_exclusion_is_per_axis(self):
        lesion = BoundingBox((50.0, 50.0, 50.0), 2.0)
        # 10 voxels off along z: inside half-x (16) and half-y (16) but not
        # half-z (8) -> must stay negative
        assert label_candidate(cand((50.0, 50.0, 61.0)), [lesion], self.PATCH) is FprLabel.NEGATIVE
        # 10 voxels off along x is within half-x -> excluded
        assert label_candidate(cand((60.0, 50.0, 50.0)), [lesion], self.PATCH) is FprLabel.EXCLUDED

    def test_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(11)
        lesions = [BoundingBox(tuple(rng.uniform(20, 80, 3)), float(rng.uniform(2, 10)))
                   for _ in range(3)]
        for _ in range(300):
            c = cand(tuple(rng.uniform(0, 100, 3)))
            label = label_candidate(c, lesions, self.PATCH)
            inside = any(l.contains(c.box.center) for l in lesions)
            near = any(
                all(abs(a - b) < s / 2 for a, b, s in zip(c.box.center, l.center, self.PATCH))
                for l in lesions
            )
            if inside:
                assert label is FprLabel.POSITIVE
            elif near:
                assert label is FprLabel.EXCLUDED
            else:
                assert label is FprLabel.NEGATIVE


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


class TestExportTrainingPatches:
    def test_export_writes_patches_and_labels(self, tmp_path):
        import numpy as np

        from ctadet.formats import read_fpr_manifest, write_fpr_manifest
        from ctadet.fpr import export_training_patches
        from ctadet.volume import read_volume

        spec = PhantomSpec(seed=13, n_aneurysms=2, aneurysm_diameter_range=(6.0, 10.0))
        vol, lesions = generate_phantom(spec, "train-0")
        boxes = [l.box for l in lesions]
        cands = oracle_detect(
            boxes,
            OracleDetectorSpec(fp_per_volume=3.0, fp_prob_range=(0.3, 0.9), seed=1),
            vol.dims,
        )
        records = export_training_patches(vol, cands, boxes, tmp_path)
        assert len(records) == 3 * len(cands)
        for r in records:
            assert r.scale in (0, 1, 2)
            patch = read_volume(tmp_path / r.patch_file)
            assert patch.dims == RunConfig.fpr_patch_sizes[r.scale]
            expected = label_candidate(
                cand(r.center_vox), boxes, RunConfig.fpr_patch_sizes[r.scale]
            )
            assert r.label is expected
        # true detections label positive, injected ones negative or excluded
        labels_by_hit = {True: set(), False: set()}
        for r in records:
            hit = any(b.contains(r.center_vox) for b in boxes)
            labels_by_hit[hit].add(r.label)
        assert labels_by_hit[True] == {FprLabel.POSITIVE}
        assert FprLabel.POSITIVE not in labels_by_hit[False]

        manifest_path = tmp_path / "fpr-train.jsonl"
        write_fpr_manifest(manifest_path, records)
        assert read_fpr_manifest(manifest_path) == records

    def test_manifest_line_shape(self, tmp_path):
        import json

        from ctadet.formats import write_fpr_manifest
        from ctadet.fpr import FprTrainingRecord

        record = FprTrainingRecord("v", (1.0, 2.0, 3.0), FprLabel.EXCLUDED, 1, "p.vol.json")
        path = tmp_path / "m.jsonl"
        write_fpr_manifest(path, [record])
        rec = json.loads(path.read_text().splitlines()[0])
        assert set(rec) == {"volume_id", "center_vox", "label", "scale", "patch_file"}
        assert rec["label"] == "excluded"
        assert rec["scale"] == 1


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
