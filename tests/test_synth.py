import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ctadet import synth, volume
from ctadet.anchors import BoundingBox, iou3d
from ctadet.config import RunConfig
from ctadet.synth import (
    _SLAB_VOXELS,
    _paint_balls,
    _slab_planes,
    _vessel_path,
    generate_phantom,
    oracle_detect,
    size_class,
)
from ctadet.cli import main
from ctadet.volume import _REGION_VOXELS, Volume, read_volume, write_volume
from oracles import (
    generate_phantom_reference,
    paint_ball_reference,
    vessel_path_reference,
    vessel_walk_reference,
)

# The classifier's tests moved with it to test_fpr.py; they are collected
# here too, under the ids they had before the move.
from test_fpr import (  # noqa: F401
    TestClassifierMatchesReference,
    TestClassifierMatchesViews,
    TestReferenceClassifier,
)


class TestGeneratePhantom:
    def test_no_aneurysms_empty_annotations(self):
        vol, lesions = generate_phantom(RunConfig(n_aneurysms=0, seed=1))
        assert lesions == []
        assert vol.dims == (128, 128, 96)
        assert vol.values.dtype == np.int16

    def test_deterministic(self):
        cfg = RunConfig(seed=1234)
        a_vol, a_les = generate_phantom(cfg, "x")
        b_vol, b_les = generate_phantom(cfg, "x")
        assert np.array_equal(a_vol.values, b_vol.values)
        assert a_les == b_les

    def test_lesion_count_and_center_hu(self):
        cfg = RunConfig(n_aneurysms=5, seed=77, phantom_noise_sigma=0.0)
        vol, lesions = generate_phantom(cfg)
        assert len(lesions) == 5
        for lesion in lesions:
            idx = tuple(int(round(c)) for c in lesion.box.center)
            assert vol.values[idx] == cfg.aneurysm_hu

    def test_interior_contrast_pre_noise(self):
        cfg = RunConfig(n_aneurysms=4, seed=5, phantom_noise_sigma=0.0)
        vol, lesions = generate_phantom(cfg)
        for lesion in lesions:
            r = lesion.box.diameter / 2.0
            lo = [max(0, int(np.floor(c - r))) for c in lesion.box.center]
            hi = [int(np.ceil(c + r)) + 1 for c in lesion.box.center]
            region = vol.values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].astype(float)
            grids = np.ogrid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
            d2 = sum((g - c) ** 2 for g, c in zip(grids, lesion.box.center))
            interior_mean = region[d2 <= r * r].mean()
            assert interior_mean - cfg.background_hu == pytest.approx(
                cfg.aneurysm_hu - cfg.background_hu
            )

    def test_no_two_lesions_overlap(self):
        _, lesions = generate_phantom(RunConfig(n_aneurysms=6, seed=42))
        for i, a in enumerate(lesions):
            for b in lesions[i + 1:]:
                assert iou3d(a.box, b.box) == 0.0

    def test_labels_present(self):
        _, lesions = generate_phantom(RunConfig(seed=9))
        for lesion in lesions:
            assert set(lesion.labels) == {"size_class", "location"}

    def test_impossible_placement_raises(self):
        cfg = RunConfig(
            phantom_dims=(24, 24, 24),
            n_aneurysms=40,
            aneurysm_diameter_range=(10.0, 12.0),
            seed=3,
        )
        with pytest.raises(ValueError, match="place"):
            generate_phantom(cfg)

    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                                         (1.0, math.inf, 1.0), (1.0, 1.0, math.nan)])
    def test_bad_spacing_refused(self, spacing):
        # the check a Volume makes, so no header with this spacing is written
        with pytest.raises(ValueError, match="spacing must be 3 positive finite values"):
            generate_phantom(RunConfig(phantom_dims=(16, 16, 16), n_vessels=0, n_aneurysms=0,
                                       phantom_spacing=spacing))
        with pytest.raises(ValueError, match="spacing must be 3 positive finite values"):
            Volume(np.zeros((2, 2, 2), np.int16), spacing)


class TestFillScratch:
    """Filling holds the phantom, its noise slab(s) and the uint8 label
    canvas, plus a block-sized scratch: no slab-sized float64 copy.  Drawn
    ahead, each of the two noise slabs is at most 16 planes; inline, the
    default 128x96 plane takes 21."""

    SLACK = 3 << 20  # a tissue-HU block (0.5 MiB), a painting block's scratch (~1.1 MiB), paths

    @pytest.mark.parametrize("overlap,sigma,slabs", [(False, 15.0, 1), (True, 15.0, 2),
                                                     (True, 0.0, 1)],
                             ids=["inline", "ahead", "noise-free"])
    def test_traced_peak_within_phantom_slabs_and_canvas(self, overlap, sigma, slabs):
        cfg = RunConfig(seed=0, phantom_noise_sigma=sigma)
        plane = cfg.phantom_dims[1] * cfg.phantom_dims[2]
        step = _slab_planes(cfg.phantom_dims, ahead=slabs == 2)
        # a first call imports the modules numpy loads lazily; they are not scratch
        generate_phantom(RunConfig(phantom_dims=(16, 16, 16), n_vessels=1, n_aneurysms=0,
                                   vessel_radius_range=(2.0, 2.0)))
        tracemalloc.start()
        try:
            values = generate_phantom(cfg, overlap=overlap)[0].values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = values.nbytes + slabs * step * plane * 8 + step * plane + self.SLACK
        assert peak <= budget, f"traced peak {peak / 2**20:.2f} MiB > {budget / 2**20:.2f} MiB"

    @pytest.mark.parametrize("overlap,sigma,slabs", [(False, 15.0, 1), (True, 15.0, 2),
                                                     (True, 0.0, 1)],
                             ids=["inline", "ahead", "noise-free"])
    def test_streamed_write_holds_no_phantom(self, tmp_path, overlap, sigma, slabs):
        # written as it is filled: no room for the 3 MiB phantom, only for
        # the writer's two z-region buffers of at most 512 KiB of int16
        # (SLACK also holds the int16 slab)
        cfg = RunConfig(seed=0, phantom_noise_sigma=sigma)
        _, ny, nz = cfg.phantom_dims
        step = _slab_planes(cfg.phantom_dims, ahead=slabs == 2)
        write_volume(generate_phantom(RunConfig(phantom_dims=(16, 16, 16), n_vessels=1,
                                                n_aneurysms=0, vessel_radius_range=(2.0, 2.0)))[0],
                     tmp_path / "warm-up")
        tracemalloc.start()
        try:
            write_volume(generate_phantom(cfg, overlap=overlap)[0], tmp_path / "p")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = slabs * step * ny * nz * 8 + step * ny * nz + 2 * (512 << 10) + self.SLACK
        assert peak <= budget, f"traced peak {peak / 2**20:.2f} MiB > {budget / 2**20:.2f} MiB"


RAGGED_DIMS = (45, 160, 160)  # x-slabs of 10 planes and a last one of 5
WIDE_DIMS = (11, 725, 725)  # a y-z plane above half a slab: one plane per slab
CAPPED_DIMS = (40, 64, 64)  # one slab inline; drawn ahead, the cap cuts 16 + 16 + 8
PLANE_REGION_DIMS = (520, 512, 10)  # an x-y plane above a z-region's voxels: one plane each


PHANTOM_CASES = {
    "default": {},
    "sigma-0": {"phantom_noise_sigma": 0.0},
    "half-hu-sigma-0": {"vessel_hu": 300.5, "background_hu": -0.5, "phantom_noise_sigma": 0.0},
    "half-hu": {"vessel_hu": 300.5, "background_hu": -0.5},
    "clip": {"aneurysm_hu": 40000.0},
    "ragged-slabs": {"phantom_dims": RAGGED_DIMS, "n_aneurysms": 1},
    "plane-slabs": {"phantom_dims": WIDE_DIMS, "n_vessels": 1, "vessel_radius_range": (2.0, 2.5),
                    "n_aneurysms": 0},
    "dims-1-9-7": {"phantom_dims": (1, 9, 7), "n_vessels": 0, "n_aneurysms": 0},
    "lesion-across-slabs": {"n_aneurysms": 3, "aneurysm_diameter_range": (8.0, 14.0)},
    "capped-ragged": {"phantom_dims": CAPPED_DIMS},
}


REGION_CASES = {
    "default": {},
    "ragged-regions": PHANTOM_CASES["ragged-slabs"],  # 160 z-planes in 36-plane regions
    "plane-regions": {"phantom_dims": PLANE_REGION_DIMS, "n_vessels": 1,
                      "vessel_radius_range": (2.0, 2.0), "n_aneurysms": 0},
    "x-1": PHANTOM_CASES["dims-1-9-7"],
    "noise-free": PHANTOM_CASES["sigma-0"],
    "lesion-across-slabs": PHANTOM_CASES["lesion-across-slabs"],
}


def _assert_matches_reference(overrides, overlap):
    cfg = RunConfig(seed=17, **overrides)
    got, got_lesions = generate_phantom(cfg, "p", overlap=overlap)
    want, want_lesions = generate_phantom_reference(cfg, "p")
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
        for ahead in (False, True):  # 10 + 10 + 10 + 10 + 5 planes either way
            step = _slab_planes(RAGGED_DIMS, ahead)
            assert RAGGED_DIMS[0] // step >= 2 and RAGGED_DIMS[0] % step != 0

    def test_cap_cuts_capped_dims_only_when_drawn_ahead(self):
        assert _slab_planes(CAPPED_DIMS, ahead=False) == CAPPED_DIMS[0]
        assert _slab_planes(CAPPED_DIMS, ahead=True) == 16 and CAPPED_DIMS[0] % 16 == 8

    def test_lesion_case_paints_across_a_slab_edge(self):
        cfg = RunConfig(seed=17, **PHANTOM_CASES["lesion-across-slabs"])
        _, lesions = generate_phantom(cfg)
        for ahead in (False, True):
            step = _slab_planes(cfg.phantom_dims, ahead)
            # some lesion holds voxel planes on both sides of a slab's first plane
            assert any(
                math.ceil(c - r) < edge <= math.floor(c + r)
                for c, r in ((l.box.center[0], l.box.diameter / 2.0) for l in lesions)
                for edge in range(step, cfg.phantom_dims[0], step)
            ), f"ahead={ahead}"

    def test_wide_dims_take_one_plane_per_slab(self):
        assert WIDE_DIMS[0] > 1
        assert _slab_planes(WIDE_DIMS, ahead=False) == _slab_planes(WIDE_DIMS, ahead=True) == 1

    def test_half_hu_rounds_to_even(self):
        cfg = RunConfig(seed=3, vessel_hu=300.5, background_hu=-0.5, phantom_noise_sigma=0.0)
        assert set(np.unique(generate_phantom(cfg)[0].values)) == {0, 300, 400}

    @pytest.mark.parametrize("radius", [2.0, 2.5, 3.3])
    def test_too_small_dims_raise_where_numpy_did(self, radius):
        # the float64-canvas builder fails in numpy's uniform draw exactly
        # when a dim is below 5 + 2 * radius; the package names the key there
        outcomes = set()
        for d in range(int(5 + 2 * radius) - 2, int(5 + 2 * radius) + 3):
            cfg = RunConfig(phantom_dims=(d + 4, d, d + 2),
                            vessel_radius_range=(radius, radius),
                            n_vessels=2, n_aneurysms=0, seed=1)
            try:
                generate_phantom_reference(cfg)
            except ValueError as e:
                assert "high - low" in str(e)
                with pytest.raises(ValueError, match=r"phantom_dims .* radius"):
                    generate_phantom(cfg)
                outcomes.add("refused")
            else:
                generate_phantom(cfg)
                outcomes.add("accepted")
        assert outcomes == {"accepted", "refused"}


class TestStreamedWrite:
    """write_volume fills a phantom slab by slab into z-regions of the file:
    the same bytes as writing the filled phantom, and on an error the old
    file stays."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["inline", "ahead"])
    @pytest.mark.parametrize("overrides", list(REGION_CASES.values()), ids=list(REGION_CASES))
    def test_streamed_file_equals_filled_phantom(self, tmp_path, overrides, overlap):
        cfg = RunConfig(seed=17, **overrides)
        phantom, _ = generate_phantom(cfg, "p", overlap=overlap)
        write_volume(phantom, tmp_path / "streamed")
        # a second fill, after the first, makes the same voxels
        write_volume(Volume(phantom.values, phantom.spacing, "p", "+z"), tmp_path / "filled")
        for suffix in (".vol.raw", ".vol.json"):
            streamed = (tmp_path / f"streamed{suffix}").read_bytes()
            assert streamed == (tmp_path / f"filled{suffix}").read_bytes()
        streamed_raw = (tmp_path / "streamed.vol.raw").read_bytes()
        got = read_volume(tmp_path / "streamed")
        want, _ = generate_phantom_reference(cfg, "p")
        assert np.array_equal(got.values, want.values)
        assert streamed_raw == want.values.astype("<i2").tobytes(order="F")
        assert (got.spacing, got.volume_id, got.cranial_axis) == (
            want.spacing, want.volume_id, want.cranial_axis)

    def test_region_cases_cut_the_file_as_named(self):
        nx, ny, nz = REGION_CASES["ragged-regions"]["phantom_dims"]
        planes = _REGION_VOXELS // (nx * ny)
        assert nz // planes >= 2 and nz % planes != 0
        nx, ny, nz = PLANE_REGION_DIMS
        assert nx * ny > _REGION_VOXELS and nz > 1

    @pytest.mark.parametrize("overlap", [False, True], ids=["inline", "ahead"])
    @pytest.mark.parametrize("where", ["fill", "write"])
    def test_error_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch, overlap, where):
        write_volume(generate_phantom(RunConfig(seed=3), "p")[0], tmp_path / "p")
        raw = tmp_path / "p.vol.raw"
        old_bytes = raw.read_bytes()
        old = read_volume(tmp_path / "p")
        old_values = np.array(old.values)
        error = RuntimeError(f"{where} failed")
        if where == "fill":  # in the second slab's painting
            paint = synth._paint_balls

            def failing(labels, centers, radius, value, x0=0):
                if x0 > 0:
                    raise error
                return paint(labels, centers, radius, value, x0)

            monkeypatch.setattr(synth, "_paint_balls", failing)
        else:  # storing the second slab, with the helper thread drawing the third
            store, first = volume._store_int16, []

            def failing(dst, part, slab):
                if not first:
                    first.append(slab)
                elif slab is not first[0]:
                    raise error
                return store(dst, part, slab)

            monkeypatch.setattr(volume, "_store_int16", failing)
        before = threading.active_count()
        got = _call_with_timeout(lambda: write_volume(
            generate_phantom(RunConfig(seed=2), "p", overlap=overlap)[0], tmp_path / "p"))
        assert got is error
        assert threading.active_count() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.vol.json", "p.vol.raw"]
        assert raw.read_bytes() == old_bytes
        assert np.array_equal(old.values, old_values)

    def test_synth_jobs_1_and_2_write_equal_trees(self, tmp_path, monkeypatch):
        RunConfig(n_volumes=3, phantom_dims=RAGGED_DIMS, n_aneurysms=1,
                  negative_fraction=0.34, seed=4).to_file(tmp_path / "config.json")
        monkeypatch.chdir(tmp_path)
        trees = []
        for jobs in ("1", "2"):
            assert main(["synth", "--config", "config.json", "--jobs", jobs,
                         "--out", f"jobs{jobs}"]) == 0
            trees.append({p.name: p.read_bytes() for p in (tmp_path / f"jobs{jobs}").iterdir()})
        assert len(trees[0]) == 2 * 3 + 2 and trees[0] == trees[1]


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
    either side of it comes out of the phantom's fill, and the helper
    thread is joined first."""

    def test_concurrent_calls_keep_their_bits(self, monkeypatch):
        # 2-plane slabs give 48 hand-offs per phantom; more callers than
        # cores and a short switch interval shake the buffer exchange
        monkeypatch.setattr(synth, "_SLAB_VOXELS", 4096)
        cfgs = [RunConfig(phantom_dims=(96, 32, 32), n_vessels=2, n_aneurysms=1,
                          aneurysm_diameter_range=(3.0, 5.0), seed=s)
                for s in range((os.cpu_count() or 1) + 2)]
        want = [generate_phantom(cfg)[0].values for cfg in cfgs]
        got = [None] * len(cfgs)

        def run(i):
            got[i] = generate_phantom(cfgs[i], overlap=True)[0].values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,), daemon=True)
                       for i in range(len(cfgs))]
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
        got = _call_with_timeout(
            lambda: generate_phantom(RunConfig(seed=2), overlap=overlap)[0].values)
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
        got = _call_with_timeout(
            lambda: generate_phantom(RunConfig(seed=2), overlap=True)[0].values)
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
        generate_phantom(RunConfig(seed=2))[0].values
        generate_phantom(RunConfig(seed=2, phantom_noise_sigma=0.0), overlap=True)[0].values
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
        assert peak < 2 << 20  # blocks of about 64 K cube cells, about 18 bytes each


class TestPaintBallsInSlabs:
    """Painting an x-slab with its offset sets the same voxels as the same
    planes of painting the whole canvas."""

    @pytest.mark.parametrize("step", [1, 3, 7, 19, 40])
    @pytest.mark.parametrize("radius", [0.45, 2.0, 3.7])
    def test_slabs_equal_rows_of_whole(self, step, radius):
        dims = (40, 36, 30)
        rng = np.random.default_rng(5)
        path = _vessel_path(rng, dims, margin=-6.0)  # walks in and out of the canvas
        lesions = [(tuple(path[i] + rng.normal(0, 2, 3)), d / 2.0)
                   for i, d in ((10, 5.0), (40, 9.5), (70, 4.0))]
        # half-lattice centers on slab edges, at an integral radius, put
        # voxels exactly at d2 == r*r
        edges = [(x - 0.5, 17.0, 13.5) for x in range(step, dims[0], step)][:6]

        def paint(canvas, x0=0):
            _paint_balls(canvas, path, radius, 1, x0)
            _paint_balls(canvas, edges, float(round(radius)) or 1.0, 1, x0)
            for center, r in lesions:
                _paint_balls(canvas, center, r, 2, x0)

        whole = np.zeros(dims, np.uint8)
        paint(whole)
        assert set(np.unique(whole)) == {0, 1, 2}
        for x in range(0, dims[0], step):
            slab = np.zeros((min(step, dims[0] - x), *dims[1:]), np.uint8)
            paint(slab, x)
            assert np.array_equal(slab, whole[x : x + step]), f"slab at x={x}"

    def test_skips_balls_off_the_slab(self, monkeypatch):
        # a ball whose cube ends just before the slab, or starts just past it,
        # is never scored; one whose cube reaches it is
        scored = []
        put = np.put
        monkeypatch.setattr(np, "put", lambda a, ind, v: (scored.append(len(ind)), put(a, ind, v)))
        slab = np.zeros((4, 8, 8), np.uint8)
        for cx in (6.4, 19.6):  # cubes of edge 7 from 3 and from 17 miss planes 10..13
            _paint_balls(slab, (cx, 4.0, 4.0), 2.5, 1, 10)
        assert scored == [] and not slab.any()
        _paint_balls(slab, (8.6, 4.0, 4.0), 2.5, 1, 10)  # the cube from 6 reaches 12
        assert len(scored) == 1 and slab[0].any() and not slab[2:].any()


def test_numpy_norm_is_sqrt_of_dot():
    # _vessel_path and _random_unit take math.sqrt(v.dot(v)) for numpy's norm
    # of a 3-vector; phantom bits hold only while the two agree
    rng = np.random.default_rng(0)
    for scale in (1e-3, 0.35, 1.0, 1e3):
        for v in rng.normal(0.0, scale, (500, 3)):
            assert np.linalg.norm(v) == math.sqrt(v.dot(v)), v


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


class TestVesselPathMatchesArrayWalk:
    """The float walk gives the float64-array walk's points and leaves the
    generator where it does, reflections at every face included."""

    CASES = [
        ((128, 128, 96), 4.5),
        ((40, 60, 20), 2.0),
        ((12, 9, 7), 2.0),  # many reflections per walk
        ((7, 7, 7), 3.0),  # lo == hi: every step reflects
        ((1, 9, 7), -3.0),  # lo > hi along x
        ((30, 8, 30), -4.0),  # walks past the canvas
    ]

    @pytest.mark.parametrize("dims,margin", CASES, ids=lambda c: str(c))
    def test_points_and_generator_state(self, dims, margin):
        reflected = set()
        for seed in range(40):
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = _vessel_path(got_rng, dims, margin)
            want = vessel_walk_reference(want_rng, dims, margin, reflected)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), seed
            assert got_rng.random() == want_rng.random()
        if dims != (128, 128, 96):
            assert reflected == {(ax, side) for ax in range(3) for side in ("lo", "hi")}


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
    DIMS = (128, 128, 96)

    def truth(self):
        return [
            BoundingBox((30.0, 30.0, 30.0), 8.0),
            BoundingBox((90.0, 90.0, 60.0), 6.0),
        ]

    def test_perfect_oracle_reproduces_truth(self):
        cands = oracle_detect(self.truth(), RunConfig(), 1, self.DIMS)
        assert [c.box for c in cands] == self.truth()
        assert all(c.probability == 1.0 for c in cands)

    def test_zero_hit_prob_only_false_positives(self):
        cfg = RunConfig(detector_hit_prob=0.0, detector_fp_per_volume=3.0)
        cands = oracle_detect(self.truth(), cfg, 2, self.DIMS)
        for c in cands:
            assert not any(b.contains(c.box.center) for b in self.truth())

    def test_deterministic(self):
        cfg = RunConfig(
            detector_hit_prob=0.8, detector_center_jitter=1.0, detector_fp_per_volume=2.0
        )
        a = oracle_detect(self.truth(), cfg, 9, self.DIMS)
        b = oracle_detect(self.truth(), cfg, 9, self.DIMS)
        assert a == b

    def test_poisson_false_positive_rate(self):
        total = 0
        n_volumes = 1000
        cfg = RunConfig(detector_hit_prob=0.0, detector_fp_per_volume=4.0)
        for i in range(n_volumes):
            total += len(oracle_detect(self.truth(), cfg, i, self.DIMS))
        mean = total / n_volumes
        # Poisson(4): 3 sigma over 1000 volumes
        assert abs(mean - 4.0) <= 3.0 * np.sqrt(4.0 / n_volumes)

    def test_probability_ranges_respected(self):
        cfg = RunConfig(
            detector_fp_per_volume=5.0,
            detector_fp_prob_range=(0.3, 0.4),
            detector_tp_prob_range=(0.8, 0.9),
        )
        for c in oracle_detect(self.truth(), cfg, 11, self.DIMS):
            hit = any(b.contains(c.box.center) for b in self.truth())
            lo, hi = (0.8, 0.9) if hit else (0.3, 0.4)
            assert lo <= c.probability <= hi
