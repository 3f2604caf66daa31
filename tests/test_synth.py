import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ctadet import synth
from ctadet.anchors import BoundingBox, iou3d
from ctadet.config import RunConfig
from ctadet.pipeline import FprBatch
from ctadet.postproc import CandidateDetection
from ctadet.synth import (
    OracleDetectorSpec,
    PhantomSpec,
    _paint_balls,
    _sphere_masks,
    _vessel_path,
    generate_phantom,
    oracle_detect,
    reference_classifier,
    size_class,
)
from ctadet.volume import _SLAB_VOXELS, Volume
from oracles import (
    generate_phantom_reference,
    paint_ball_reference,
    reference_classifier_reference,
    vessel_path_reference,
)


class TestGeneratePhantom:
    def test_no_aneurysms_empty_annotations(self):
        vol, lesions = generate_phantom(PhantomSpec(n_aneurysms=0, seed=1))
        assert lesions == []
        assert vol.dims == (128, 128, 96)
        assert vol.values.dtype == np.int16

    def test_deterministic(self):
        spec = PhantomSpec(seed=1234)
        a_vol, a_les = generate_phantom(spec, "x")
        b_vol, b_les = generate_phantom(spec, "x")
        assert np.array_equal(a_vol.values, b_vol.values)
        assert a_les == b_les

    def test_lesion_count_and_center_hu(self):
        spec = PhantomSpec(n_aneurysms=5, seed=77, noise_sigma=0.0)
        vol, lesions = generate_phantom(spec)
        assert len(lesions) == 5
        for lesion in lesions:
            idx = tuple(int(round(c)) for c in lesion.box.center)
            assert vol.values[idx] == spec.aneurysm_hu

    def test_interior_contrast_pre_noise(self):
        spec = PhantomSpec(n_aneurysms=4, seed=5, noise_sigma=0.0)
        vol, lesions = generate_phantom(spec)
        for lesion in lesions:
            r = lesion.box.diameter / 2.0
            lo = [max(0, int(np.floor(c - r))) for c in lesion.box.center]
            hi = [int(np.ceil(c + r)) + 1 for c in lesion.box.center]
            region = vol.values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].astype(float)
            grids = np.ogrid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
            d2 = sum((g - c) ** 2 for g, c in zip(grids, lesion.box.center))
            interior_mean = region[d2 <= r * r].mean()
            assert interior_mean - spec.background_hu == pytest.approx(
                spec.aneurysm_hu - spec.background_hu
            )

    def test_no_two_lesions_overlap(self):
        _, lesions = generate_phantom(PhantomSpec(n_aneurysms=6, seed=42))
        for i, a in enumerate(lesions):
            for b in lesions[i + 1:]:
                assert iou3d(a.box, b.box) == 0.0

    def test_labels_present(self):
        _, lesions = generate_phantom(PhantomSpec(seed=9))
        for lesion in lesions:
            assert set(lesion.labels) == {"size_class", "location"}

    def test_impossible_placement_raises(self):
        spec = PhantomSpec(
            dims=(24, 24, 24),
            n_aneurysms=40,
            aneurysm_diameter_range=(10.0, 12.0),
            seed=3,
        )
        with pytest.raises(ValueError, match="place"):
            generate_phantom(spec)


RAGGED_DIMS = (45, 160, 160)  # x-slabs of 20 planes and a last one of 5
WIDE_DIMS = (11, 725, 725)  # a y-z plane above half a slab: one plane per slab


PHANTOM_CASES = {
    "default": {},
    "sigma-0": {"noise_sigma": 0.0},
    "half-hu-sigma-0": {"vessel_hu": 300.5, "background_hu": -0.5, "noise_sigma": 0.0},
    "half-hu": {"vessel_hu": 300.5, "background_hu": -0.5},
    "clip": {"aneurysm_hu": 40000.0},
    "ragged-slabs": {"dims": RAGGED_DIMS, "n_aneurysms": 1},
    "plane-slabs": {"dims": WIDE_DIMS, "n_vessels": 1, "vessel_radius_range": (2.0, 2.5),
                    "n_aneurysms": 0},
    "dims-1-9-7": {"dims": (1, 9, 7), "n_vessels": 0, "n_aneurysms": 0},
}


def _assert_matches_reference(overrides, overlap):
    spec = PhantomSpec(seed=17, **overrides)
    got, got_lesions = generate_phantom(spec, "p", overlap=overlap)
    want, want_lesions = generate_phantom_reference(spec, "p")
    assert got.values.dtype == want.values.dtype == np.int16
    assert got.values.flags.f_contiguous  # the raw file's x-fastest layout
    assert np.array_equal(got.values, want.values)
    assert got_lesions == want_lesions
    assert (got.spacing, got.volume_id, got.cranial_axis) == (
        want.spacing, want.volume_id, want.cranial_axis)


class TestPhantomMatchesReference:
    """Slab-wise filling reproduces the float64-canvas phantom bit for bit,
    with the noise drawn inline or one slab ahead on a helper thread."""

    @pytest.mark.parametrize("overrides", list(PHANTOM_CASES.values()), ids=list(PHANTOM_CASES))
    def test_equals_reference(self, overrides):
        _assert_matches_reference(overrides, overlap=False)

    @pytest.mark.parametrize("overrides", list(PHANTOM_CASES.values()), ids=list(PHANTOM_CASES))
    def test_equals_reference_drawn_ahead(self, overrides):
        _assert_matches_reference(overrides, overlap=True)

    def test_ragged_dims_span_several_slabs(self):
        step = _SLAB_VOXELS // 2 // (RAGGED_DIMS[1] * RAGGED_DIMS[2])
        assert RAGGED_DIMS[0] // step >= 2 and RAGGED_DIMS[0] % step != 0

    def test_wide_dims_take_one_plane_per_slab(self):
        assert WIDE_DIMS[1] * WIDE_DIMS[2] > _SLAB_VOXELS // 2 and WIDE_DIMS[0] > 1

    def test_half_hu_rounds_to_even(self):
        spec = PhantomSpec(seed=3, vessel_hu=300.5, background_hu=-0.5, noise_sigma=0.0)
        assert set(np.unique(generate_phantom(spec)[0].values)) == {0, 300, 400}

    @pytest.mark.parametrize("radius", [2.0, 2.5, 3.3])
    def test_too_small_dims_raise_where_numpy_did(self, radius):
        # the float64-canvas builder fails in numpy's uniform draw exactly
        # when a dim is below 5 + 2 * radius; the package names the key there
        outcomes = set()
        for d in range(int(5 + 2 * radius) - 2, int(5 + 2 * radius) + 3):
            spec = PhantomSpec(dims=(d + 4, d, d + 2), vessel_radius_range=(radius, radius),
                               n_vessels=2, n_aneurysms=0, seed=1)
            try:
                generate_phantom_reference(spec)
            except ValueError as e:
                assert "high - low" in str(e)
                with pytest.raises(ValueError, match=r"phantom_dims .* radius"):
                    generate_phantom(spec)
                outcomes.add("refused")
            else:
                generate_phantom(spec)
                outcomes.add("accepted")
        assert outcomes == {"accepted", "refused"}


def _call_with_timeout(fn, timeout=60.0):
    """``fn()`` on a thread joined with a timeout: returns its result, or
    the exception it raised; a call that hangs fails the test."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as e:
            box["error"] = e

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call still running after {timeout} s"
    return box.get("error", box.get("result"))


class TestNoiseThread:
    """The noise hand-off keeps every bit under contention, an error on
    either side of it comes out of generate_phantom, and the helper thread
    is joined first."""

    def test_concurrent_calls_keep_their_bits(self, monkeypatch):
        # 2-plane slabs give 48 hand-offs per phantom; more callers than
        # cores and a short switch interval shake the buffer exchange
        monkeypatch.setattr(synth, "_SLAB_VOXELS", 4096)
        specs = [PhantomSpec(dims=(96, 32, 32), n_vessels=2, n_aneurysms=1,
                             aneurysm_diameter_range=(3.0, 5.0), seed=s)
                 for s in range((os.cpu_count() or 1) + 2)]
        want = [generate_phantom(spec)[0].values for spec in specs]
        got = [None] * len(specs)

        def run(i):
            got[i] = generate_phantom(specs[i], overlap=True)[0].values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,), daemon=True)
                       for i in range(len(specs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert g is not None and np.array_equal(g, w)

    @pytest.mark.parametrize("overlap", [False, True], ids=["inline", "ahead"])
    def test_noise_error_propagates(self, monkeypatch, overlap):
        error = RuntimeError("noise draw failed")
        calls = []
        fill = synth._fill_noise

        def failing_fill(rng, out):
            calls.append(len(out))
            if len(calls) == 2:  # after one good slab
                raise error
            return fill(rng, out)

        monkeypatch.setattr(synth, "_fill_noise", failing_fill)
        before = threading.active_count()
        got = _call_with_timeout(lambda: generate_phantom(PhantomSpec(seed=2), overlap=overlap))
        assert got is error
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_paint_error_after_helper_started(self, monkeypatch):
        error = RuntimeError("painting failed")
        seen = []

        def failing_paint(*args):
            seen.append([t.name for t in threading.enumerate()])
            raise error

        monkeypatch.setattr(synth, "_paint_balls", failing_paint)
        before = threading.active_count()
        got = _call_with_timeout(lambda: generate_phantom(PhantomSpec(seed=2), overlap=True))
        assert got is error
        assert "phantom-noise" in seen[0]  # the helper was running
        assert threading.active_count() == before

    def test_no_helper_without_overlap_or_noise(self, monkeypatch):
        seen = []
        paint = synth._paint_balls

        def watching_paint(*args):
            seen.append(threading.active_count())
            return paint(*args)

        monkeypatch.setattr(synth, "_paint_balls", watching_paint)
        before = threading.active_count()
        generate_phantom(PhantomSpec(seed=2))
        generate_phantom(PhantomSpec(seed=2, noise_sigma=0.0), overlap=True)
        assert set(seen) == {before}


def _assert_paints_like_loop(dims, centers, radius):
    got = np.zeros(dims, np.uint8)
    _paint_balls(got, centers, radius, 1)
    want = np.zeros(dims, np.uint8)
    for center in centers:
        paint_ball_reference(want, center, radius, 1)
    assert np.array_equal(got, want)


SEVERAL_BLOCKS = ((300, 40, 36), -4.0, 8.0)  # 600 balls of 18**3 cube cells


class TestPaintBallsMatchesLoop:
    """One vessel's balls painted at once set the same voxels as the
    per-ball loop."""

    @pytest.mark.parametrize(
        "dims,margin,radius",
        [
            ((40, 36, 30), -6.0, 3.7),  # walks in and out of the canvas
            ((30, 30, 30), -20.0, 2.5),  # many balls wholly outside
            ((32, 28, 24), 1.0, 0.3),
            ((32, 28, 24), 1.0, 0.45),
            ((1, 9, 7), -3.0, 1.6),
            ((1, 9, 7), -3.0, 6.0),
            SEVERAL_BLOCKS,
        ],
        ids=["partly-outside", "wholly-outside", "r-0.3", "r-0.45", "dims-1-9-7",
             "dims-1-9-7-wide", "several-blocks"],
    )
    def test_vessel_equals_loop(self, dims, margin, radius):
        path = _vessel_path(np.random.default_rng(5), dims, margin)
        _assert_paints_like_loop(dims, path, radius)

    def test_several_blocks_case_spans_blocks(self):
        dims, _, radius = SEVERAL_BLOCKS
        assert 2 * max(dims) * (2 * radius + 2) ** 3 > 3 * _SLAB_VOXELS

    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 5.0])
    def test_integral_radius_ties(self, radius):
        # half-lattice centers put voxels exactly at d2 == r*r
        dims = (24, 20, 18)
        path = _vessel_path(np.random.default_rng(8), dims, margin=-2.0)
        _assert_paints_like_loop(dims, np.round(path * 2.0) / 2.0, radius)
        tie = np.zeros(dims, np.uint8)
        _paint_balls(tie, (10.0, 10.0, 9.0), radius, 1)
        assert tie[int(10 + radius), 10, 9] == 1

    def test_lesions_over_vessels(self):
        dims = (48, 40, 36)
        rng = np.random.default_rng(21)
        path = _vessel_path(rng, dims, margin=4.0)
        lesions = [(tuple(float(v) for v in path[i] + rng.normal(0, 2, 3)), d / 2.0)
                   for i, d in ((10, 5.0), (40, 9.5), (70, 4.0))]
        got = np.zeros(dims, np.uint8)
        want = np.zeros(dims, np.uint8)
        _paint_balls(got, path, 3.2, 1)
        for center in path:
            paint_ball_reference(want, center, 3.2, 1)
        for center, radius in lesions:
            _paint_balls(got, center, radius, 2)
            paint_ball_reference(want, center, radius, 2)
        assert np.array_equal(got, want)
        assert set(np.unique(got)) == {0, 1, 2}

    def test_scratch_memory_is_bounded(self):
        dims = (256, 256, 240)
        canvas = np.zeros(dims, np.uint8)
        path = _vessel_path(np.random.default_rng(2), dims, margin=12.0)
        tracemalloc.start()
        try:
            _paint_balls(canvas, path, 10.0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert canvas.any()
        assert peak < canvas.size * 8 / 4  # a quarter of a float64 canvas


class TestVesselPathMatchesLoop:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "dims,margin", [((128, 128, 96), 4.5), ((40, 60, 20), 2.0), ((1, 9, 7), -3.0)]
    )
    def test_points_and_generator_state(self, dims, margin, seed):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = _vessel_path(got_rng, dims, margin)
        want = vessel_path_reference(want_rng, dims, margin)
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()


class TestSizeClass:
    @pytest.mark.parametrize(
        "diameter,expected",
        [(2.6, "2.5-3mm"), (3.5, "3-5mm"), (7.0, "5-10mm"), (14.0, ">10mm")],
    )
    def test_bins_unit_spacing(self, diameter, expected):
        assert size_class(diameter, (1.0, 1.0, 1.0)) == expected

    def test_spacing_scales(self):
        assert size_class(8.0, (0.5, 0.5, 0.5)) == "3-5mm"


class TestOracleDetect:
    def truth(self):
        return [
            BoundingBox((30.0, 30.0, 30.0), 8.0),
            BoundingBox((90.0, 90.0, 60.0), 6.0),
        ]

    def test_perfect_oracle_reproduces_truth(self):
        spec = OracleDetectorSpec(seed=1)
        cands = oracle_detect(self.truth(), spec, (128, 128, 96))
        assert [c.box for c in cands] == self.truth()
        assert all(c.probability == 1.0 for c in cands)

    def test_zero_hit_prob_only_false_positives(self):
        spec = OracleDetectorSpec(hit_prob=0.0, fp_per_volume=3.0, seed=2)
        cands = oracle_detect(self.truth(), spec, (128, 128, 96))
        for c in cands:
            assert not any(b.contains(c.box.center) for b in self.truth())

    def test_deterministic(self):
        spec = OracleDetectorSpec(
            hit_prob=0.8, center_jitter_sigma=1.0, fp_per_volume=2.0, seed=9
        )
        a = oracle_detect(self.truth(), spec, (128, 128, 96))
        b = oracle_detect(self.truth(), spec, (128, 128, 96))
        assert a == b

    def test_poisson_false_positive_rate(self):
        total = 0
        n_volumes = 1000
        for i in range(n_volumes):
            spec = OracleDetectorSpec(hit_prob=0.0, fp_per_volume=4.0, seed=i)
            total += len(oracle_detect(self.truth(), spec, (128, 128, 96)))
        mean = total / n_volumes
        # Poisson(4): 3 sigma over 1000 volumes
        assert abs(mean - 4.0) <= 3.0 * np.sqrt(4.0 / n_volumes)

    def test_probability_ranges_respected(self):
        spec = OracleDetectorSpec(
            fp_per_volume=5.0,
            fp_prob_range=(0.3, 0.4),
            tp_prob_range=(0.8, 0.9),
            seed=11,
        )
        for c in oracle_detect(self.truth(), spec, (128, 128, 96)):
            hit = any(b.contains(c.box.center) for b in self.truth())
            lo, hi = (0.8, 0.9) if hit else (0.3, 0.4)
            assert lo <= c.probability <= hi


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
        spec = PhantomSpec(seed=21, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        vol, lesions = generate_phantom(spec)
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

    SHAPES = [*RunConfig.fpr_patch_sizes, (20, 20, 12), (1, 1, 1)]

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
        spec = PhantomSpec(seed=21, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        vol, lesions = generate_phantom(spec)
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
