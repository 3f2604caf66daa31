import dataclasses
import mmap

import numpy as np
import pytest

from ctadet import fpr
from ctadet.anchors import BoundingBox
from ctadet.config import RunConfig
from ctadet.evaluation import froc, sensitivity_at_fppv
from ctadet.fpr import (
    FprBatch,
    FprPatchSet,
    _sphere_masks,
    extract_fpr_patches,
    perfect_classifier,
    reference_classifier,
    rescore,
    select_candidates,
)
from ctadet.postproc import CandidateDetection, Stage, nms
from ctadet.synth import generate_phantom, oracle_detect
from ctadet.volume import AIR_HU, Volume, read_volume, write_volume
from oracles import (
    air_is_bright,
    patch_sets_reference,
    reference_classifier_reference,
    view_classifier_reference,
)


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
        detector = RunConfig(
            detector_hit_prob=1.0,
            detector_center_jitter=0.5,
            detector_fp_per_volume=5.0,
            detector_fp_prob_range=(0.3, 0.95),
            detector_tp_prob_range=(0.4, 0.9),
        )
        dataset_before = []
        dataset_after = []
        fp_before = fp_after = 0
        for i in range(12):
            phantom_cfg = RunConfig(
                seed=500 + i, n_aneurysms=3, aneurysm_diameter_range=(6.0, 14.0)
            )
            _, lesions = generate_phantom(phantom_cfg, f"p{i}")
            boxes = [l.box for l in lesions]
            cands = oracle_detect(boxes, detector, i, phantom_cfg.phantom_dims)
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


def _reference_scores(batch):
    """The per-candidate path: extracted, normalized patches scored by the
    scalar reference."""
    return np.array([reference_classifier_reference(ps) for ps in batch.patch_sets()])


class TestReferenceClassifier:
    def test_pure_background_scores_at_most_half(self):
        v = Volume(np.full((64, 64, 64), 40, dtype=np.int16), (1, 1, 1), "bg", "+z")
        c = CandidateDetection(BoundingBox((32.0, 32.0, 32.0), 6.0), 0.9)
        probs = reference_classifier(FprBatch.around(v, [c]))
        assert probs.shape == (1, 3) and (probs <= 0.5).all()

    def test_lesion_centered_beats_background(self):
        cfg = RunConfig(seed=21, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        vol, lesions = generate_phantom(cfg)
        lesions = [CandidateDetection(lesion.box, 0.9) for lesion in lesions]
        background = CandidateDetection(BoundingBox((5.0, 5.0, 90.0), 6.0), 0.9)
        probs = reference_classifier(FprBatch.around(vol, [*lesions, background]))
        means = probs.mean(axis=1)
        assert (means[:-1] > means[-1]).all()

    def test_identical_patches_identical_outputs(self):
        rng = np.random.default_rng(3)
        v = Volume(rng.integers(-1000, 1000, (40, 40, 20)).astype(np.int16), (1, 1, 1))
        c = CandidateDetection(BoundingBox((10.0, 10.0, 5.0), 4.0), 0.5)
        probs = reference_classifier(FprBatch.around(v, [c], [(20, 20, 10)] * 3))
        assert probs[0, 0] == probs[0, 1] == probs[0, 2]

    def test_int16_only(self):
        v = Volume(np.zeros((8, 8, 8)), (1, 1, 1))
        c = CandidateDetection(BoundingBox((4.0, 4.0, 4.0), 2.0), 0.5)
        with pytest.raises(ValueError, match="int16"):
            reference_classifier(FprBatch.around(v, [c]))


class TestClassifierMatchesReference:
    """The batched classifier gives the per-candidate path's bits in both
    memory orders, with patches reaching past every face."""

    SHAPES = [*RunConfig.fpr_patch_sizes, (20, 20, 12), (1, 1, 1), (1, 2, 2)]  # 1x2x2: no mask voxel

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_equals_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        dims = (40, 36, 30)
        values = rng.integers(-200, 500, dims).astype(np.int16)
        # either side of the bright cut: 150 HU normalizes to float32(0.15),
        # which is not above 0.15, and 151 HU is the first that is
        at_cut = rng.random(dims) < 0.3
        values[at_cut] = rng.choice(np.array([150, 151], dtype=np.int16), at_cut.sum())
        centers = [
            *rng.uniform(0, dims, (20, 3)),
            *[np.where(np.arange(3) == ax, edge, np.array(dims) / 2.0)
              for ax in range(3) for edge in (0.0, dims[ax] - 0.2)],
        ]
        cands = [CandidateDetection(BoundingBox(tuple(c), 4.0), 0.5) for c in centers]
        for order in ("C", "F"):
            vol = Volume(np.array(values, order=order), (1, 1, 1))
            batch = FprBatch.around(vol, cands, [shape] * 3)
            assert len(batch.candidates) == len(cands)
            assert np.array_equal(reference_classifier(batch), _reference_scores(batch))

    def test_phantom_patches_equal_reference(self):
        cfg = RunConfig(seed=21, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        vol, lesions = generate_phantom(cfg)
        vol = Volume(np.asfortranarray(vol.values), vol.spacing)
        batch = FprBatch.around(vol, [CandidateDetection(l.box, 0.9) for l in lesions])
        assert next(batch.patch_sets()).patches[0].values.flags.f_contiguous
        assert np.array_equal(reference_classifier(batch), _reference_scores(batch))

    def test_unit_patch_has_empty_shell(self):
        (_, _, n_inner), (_, _, n_shell) = _sphere_masks((1, 1, 1))
        assert (n_inner, n_shell) == (1, 0)

    def test_masks_refuse_writes(self):
        for mask, offset, count in _sphere_masks((20, 20, 10), "F"):
            assert count == np.count_nonzero(mask)
            assert mask.flags.f_contiguous
            with pytest.raises(ValueError):
                mask[0, 0, 0] = True


DIMS = (40, 36, 30)
WINDOWS = {"air-dark": (-1000.0, 1000.0), "air-bright": (100.0, 400.0)}


def edge_batch(values, window, seed=0, n=30):
    """A batch of ``n`` random candidates and ones whose patches reach past
    every face and corner of ``values``."""
    rng = np.random.default_rng(seed)
    dims = np.array(values.shape)
    corners = np.array(np.meshgrid(*[(0.0, d - 0.2) for d in dims])).reshape(3, -1).T
    faces = [np.where(np.arange(3) == ax, edge, dims / 2.0)
             for ax in range(3) for edge in (0.0, dims[ax] - 0.2)]
    centers = [*rng.uniform(0, dims, (n, 3)), *corners, *faces]
    cands = [CandidateDetection(BoundingBox(tuple(c), 4.0), 0.5) for c in centers]
    batch = FprBatch.around(Volume(values, (1, 1, 1)), cands, window=window)
    assert len(batch.candidates) == len(centers)
    return batch


def hu_values(seed=0, dims=DIMS):
    rng = np.random.default_rng(seed)
    values = rng.integers(-1100, 600, dims).astype(np.int16)
    at_cut = rng.random(dims) < 0.3  # either side of the default cut, 151 HU
    values[at_cut] = rng.choice(np.array([150, 151], dtype=np.int16), at_cut.sum())
    return values


def shifted_inward(batch, seed):
    """``batch`` with its origins moved toward the middle, per candidate and
    scale, so that its boxes take several shapes."""
    inward = np.sign(np.array(batch.volume.dims) - 2 * batch.origins - batch.patch_sizes)
    shift = np.random.default_rng(seed).integers(0, 4, batch.origins.shape) * inward
    return dataclasses.replace(batch, origins=batch.origins + shift)


class TestClassifierMatchesViews:
    """One bool box per candidate gives the bits of one view per candidate,
    scale and mask, with patches past every face and corner, whether or
    not air is bright, in both memory orders, and with the mapping's pages
    dropped mid-batch."""

    @pytest.mark.parametrize("window", WINDOWS.values(), ids=WINDOWS.keys())
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_views(self, window, order, seed):
        assert air_is_bright(window) == (window == WINDOWS["air-bright"])
        assert air_is_bright(window) == (AIR_HU >= fpr._bright_cut(window))
        batch = edge_batch(np.array(hu_values(seed), order=order), window, seed)
        assert np.array_equal(reference_classifier(batch), view_classifier_reference(batch))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 50, 2), (60, 4, 70)])
    def test_volumes_smaller_than_a_patch(self, dims):
        for window in WINDOWS.values():
            batch = edge_batch(np.asfortranarray(hu_values(1, dims)), window, n=5)
            assert np.array_equal(reference_classifier(batch), view_classifier_reference(batch))

    def test_patches_off_their_common_center(self):
        batch = edge_batch(np.asfortranarray(hu_values(2)), WINDOWS["air-bright"], 2)
        batch = shifted_inward(batch, 2)
        assert np.array_equal(reference_classifier(batch), view_classifier_reference(batch))

    def test_empty_batch(self):
        batch = FprBatch.around(Volume(hu_values(), (1, 1, 1)), [])
        got = reference_classifier(batch)
        assert got.shape == (0, 3)
        assert np.array_equal(got, view_classifier_reference(batch))

    def mapped(self, tmp_path, monkeypatch):
        """A batch over a written and mapped volume, and the list of the
        pages' releases that classifying it makes."""
        write_volume(Volume(hu_values(dims=(64, 48, 80)), (1, 1, 1), "v", "+z"), tmp_path / "v")
        values = read_volume(tmp_path / "v").values[:, :, 5:]  # a view, as truncation makes
        mapping = fpr._mapping(values)
        assert mapping is not None
        releases = []

        class Recorder:
            def madvise(self, *args):
                releases.append(args)
                mapping.madvise(*args)

        monkeypatch.setattr(fpr, "_mapping", lambda v: Recorder() if v is values else None)
        return edge_batch(values, WINDOWS["air-dark"], n=40), releases

    def test_release_mid_batch(self, tmp_path, monkeypatch):
        batch, releases = self.mapped(tmp_path, monkeypatch)
        monkeypatch.setattr(fpr, "_RELEASE_BYTES", 40 * 64 * 48 * 2)  # 40 of 75 z-planes
        got = reference_classifier(batch)
        # a box spans at most 32 z-planes, so no two boxes in a row release
        assert 1 < len(releases) <= len(batch.candidates) // 2
        assert releases[0] == (mmap.MADV_DONTNEED,)
        assert np.array_equal(got, view_classifier_reference(batch))

    def test_release_mid_batch_through_patch_sets(self, tmp_path, monkeypatch):
        batch, releases = self.mapped(tmp_path, monkeypatch)
        monkeypatch.setattr(fpr, "_RELEASE_BYTES", 40 * 64 * 48 * 2)  # 40 of 75 z-planes

        def plugin(batch):  # a classifier that reads through patch_sets
            return [[float((p.values > 0.15).mean()) for p in ps.patches]
                    for ps in batch.patch_sets()]

        got = plugin(batch)
        # a patch set's box spans at most 32 z-planes, so no two in a row release
        assert 1 < len(releases) <= len(batch.candidates) // 2
        assert releases[0] == (mmap.MADV_DONTNEED,)
        want = [[float((p.values > 0.15).mean()) for p in patches]
                for _, patches in patch_sets_reference(batch)]
        assert got == want

    def test_small_file_never_released(self, tmp_path, monkeypatch):
        # the whole file spans less than the release span
        batch, releases = self.mapped(tmp_path, monkeypatch)
        assert batch.volume.values.nbytes < fpr._RELEASE_BYTES
        assert np.array_equal(reference_classifier(batch), view_classifier_reference(batch))
        assert releases == []


class TestPatchSetsMatchReference:
    """Patches cut from one box per candidate give the bits, dtype and
    memory order of patches copied one by one, with patches past every
    face and corner, in both memory orders."""

    @staticmethod
    def assert_equal(batch):
        got = list(batch.patch_sets())
        want = patch_sets_reference(batch)
        assert len(got) == len(want) == len(batch.candidates)
        for ps, (cand, patches) in zip(got, want):
            assert ps.candidate is cand and ps.sizes == batch.patch_sizes
            for g, w in zip(ps.patches, patches):
                assert g.values.dtype == w.values.dtype == np.float32
                assert g.values.strides == w.values.strides
                assert np.array_equal(g.values, w.values)
                assert (g.spacing, g.volume_id, g.cranial_axis) == (
                    w.spacing, w.volume_id, w.cranial_axis)

    @pytest.mark.parametrize("window", WINDOWS.values(), ids=WINDOWS.keys())
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(2))
    def test_equals_extracted_patches(self, window, order, seed):
        self.assert_equal(edge_batch(np.array(hu_values(seed), order=order), window, seed))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 50, 2), (60, 4, 70)])
    def test_volumes_smaller_than_a_patch(self, dims):
        self.assert_equal(edge_batch(np.asfortranarray(hu_values(1, dims)), WINDOWS["air-dark"], n=5))

    def test_patches_off_their_common_center(self):
        for order in ("C", "F"):
            batch = edge_batch(np.array(hu_values(2), order=order), WINDOWS["air-dark"], 2)
            self.assert_equal(shifted_inward(batch, 2))

    def test_empty_batch(self):
        batch = FprBatch.around(Volume(hu_values(), (1, 1, 1)), [])
        assert list(batch.patch_sets()) == patch_sets_reference(batch) == []
