import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ctadet import synth, volume
from ctadet.anchors import BoundingBox, iou3d
from ctadet.config import RunConfig
from ctadet.synth import (
    _BLOCK_CELLS,
    _ball_voxels,
    _hu_table,
    _vessel_path,
    generate_phantom,
    oracle_detect,
    size_class,
)
from ctadet.cli import main
from ctadet.volume import _SLAB_VOXELS, _slab_planes, Volume, read_volume, write_volume
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


TABLE_BYTES = 3 * (1 << 16) * 2  # the background, vessel and aneurysm HU tables


class TestFillScratch:
    """Filling holds the phantom, one int16 slab, its uint16 draw and the
    three HU tables, plus a painting block's scratch: no float64 slab and
    no label canvas."""

    SLACK = 5 << 18  # a painting block's scratch (~1.1 MiB), the vessel paths

    @pytest.mark.parametrize("sigma", [15.0, 0.0], ids=["noise", "noise-free"])
    def test_traced_peak_within_phantom_and_slab(self, sigma):
        cfg = RunConfig(seed=0, phantom_noise_sigma=sigma)
        slab = _slab_planes(cfg.phantom_dims) * cfg.phantom_dims[0] * cfg.phantom_dims[1]
        # a first call imports the modules numpy loads lazily; they are not scratch
        generate_phantom(RunConfig(phantom_dims=(16, 16, 16), n_vessels=1, n_aneurysms=0,
                                   vessel_radius_range=(2.0, 2.0)))
        tracemalloc.start()
        try:
            values = generate_phantom(cfg)[0].values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = values.nbytes + 2 * slab * 2 + TABLE_BYTES + self.SLACK
        assert peak <= budget, f"traced peak {peak / 2**20:.2f} MiB > {budget / 2**20:.2f} MiB"

    @pytest.mark.parametrize("sigma", [15.0, 0.0], ids=["inline", "noise-free"])
    def test_streamed_write_holds_no_phantom(self, tmp_path, sigma):
        # written as it is filled: no room for the 3 MiB phantom, and the
        # writer appends each int16 slab as it is, with no buffer of its own
        cfg = RunConfig(seed=0, phantom_noise_sigma=sigma)
        slab = _slab_planes(cfg.phantom_dims) * cfg.phantom_dims[0] * cfg.phantom_dims[1]
        write_volume(generate_phantom(RunConfig(phantom_dims=(16, 16, 16), n_vessels=1,
                                                n_aneurysms=0, vessel_radius_range=(2.0, 2.0)))[0],
                     tmp_path / "warm-up")
        tracemalloc.start()
        try:
            write_volume(generate_phantom(cfg)[0], tmp_path / "p")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = 2 * slab * 2 + TABLE_BYTES + self.SLACK
        assert peak <= budget, f"traced peak {peak / 2**20:.2f} MiB > {budget / 2**20:.2f} MiB"


RAGGED_DIMS = (45, 160, 160)  # z-slabs of 36 planes and a last one of 16
WIDE_DIMS = (725, 725, 11)  # an x-y plane above a slab, of an odd voxel count: two planes a slab
ODD_PLANE_DIMS = (81, 81, 101)  # 39 planes fit a slab; 38, of an even voxel count, are taken
ONE_SLAB_DIMS = (40, 64, 64)  # one slab holds the phantom
PLANE_REGION_DIMS = (520, 512, 10)  # an x-y plane of an even voxel count above a slab


PHANTOM_CASES = {
    "default": {},
    "sigma-0": {"phantom_noise_sigma": 0.0},
    "half-hu-sigma-0": {"vessel_hu": 300.5, "background_hu": -0.5, "phantom_noise_sigma": 0.0},
    "half-hu": {"vessel_hu": 300.5, "background_hu": -0.5},
    "clip": {"aneurysm_hu": 40000.0},
    "ragged-slabs": {"phantom_dims": RAGGED_DIMS, "n_aneurysms": 1},
    "plane-slabs": {"phantom_dims": WIDE_DIMS, "n_vessels": 1, "vessel_radius_range": (2.0, 2.5),
                    "n_aneurysms": 0},
    "odd-plane-slabs": {"phantom_dims": ODD_PLANE_DIMS, "n_vessels": 2, "n_aneurysms": 1},
    "dims-1-9-7": {"phantom_dims": (1, 9, 7), "n_vessels": 0, "n_aneurysms": 0},
    "lesion-across-slabs": {"n_aneurysms": 3, "aneurysm_diameter_range": (8.0, 14.0)},
    "capped-ragged": {"phantom_dims": ONE_SLAB_DIMS},
}


REGION_CASES = {
    "default": {},
    "ragged-regions": PHANTOM_CASES["ragged-slabs"],
    "plane-regions": {"phantom_dims": PLANE_REGION_DIMS, "n_vessels": 1,
                      "vessel_radius_range": (2.0, 2.0), "n_aneurysms": 0},
    "x-1": PHANTOM_CASES["dims-1-9-7"],
    "noise-free": PHANTOM_CASES["sigma-0"],
    "lesion-across-slabs": PHANTOM_CASES["lesion-across-slabs"],
}


def _raw_bytes(values):
    return values.astype("<i2").tobytes(order="F")


class TestPhantomMatchesReference:
    """Slab-wise filling reproduces the whole-volume phantom bit for bit:
    a float64 tissue canvas, one uint16 draw and tables built by search."""

    @pytest.mark.parametrize("overrides", list(PHANTOM_CASES.values()), ids=list(PHANTOM_CASES))
    def test_equals_reference(self, overrides):
        cfg = RunConfig(seed=17, **overrides)
        got, got_lesions = generate_phantom(cfg, "p")
        want, want_lesions = generate_phantom_reference(cfg, "p")
        assert got.values.dtype == want.values.dtype == np.int16
        assert got.values.flags.f_contiguous  # the raw file's x-fastest layout
        assert np.array_equal(got.values, want.values)
        assert got_lesions == want_lesions
        assert (got.spacing, got.volume_id, got.cranial_axis) == (
            want.spacing, want.volume_id, want.cranial_axis)

    def test_ragged_dims_span_several_slabs(self):
        step = _slab_planes(RAGGED_DIMS)  # 36 + 36 + 36 + 36 + 16 planes
        assert RAGGED_DIMS[2] // step >= 2 and RAGGED_DIMS[2] % step != 0

    def test_odd_planes_take_an_even_plane_count(self):
        nx, ny, nz = ODD_PLANE_DIMS
        assert nx * ny % 2 and (_SLAB_VOXELS // (nx * ny)) % 2
        assert _slab_planes(ODD_PLANE_DIMS) == _SLAB_VOXELS // (nx * ny) - 1
        assert nz % _slab_planes(ODD_PLANE_DIMS) != 0
        assert _slab_planes(ONE_SLAB_DIMS) == ONE_SLAB_DIMS[2]

    def test_lesion_case_paints_across_a_slab_edge(self):
        cfg = RunConfig(seed=17, **PHANTOM_CASES["lesion-across-slabs"])
        _, lesions = generate_phantom(cfg)
        step = _slab_planes(cfg.phantom_dims)
        # some lesion holds voxel planes on both sides of a slab's first plane
        assert any(
            math.ceil(c - r) < edge <= math.floor(c + r)
            for c, r in ((l.box.center[2], l.box.diameter / 2.0) for l in lesions)
            for edge in range(step, cfg.phantom_dims[2], step)
        )

    def test_wide_dims_take_two_planes_per_slab(self):
        nx, ny, nz = WIDE_DIMS
        assert nx * ny > _SLAB_VOXELS and nx * ny % 2 and nz % 2
        assert _slab_planes(WIDE_DIMS) == 2

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


class TestSlabSizeIndependence:
    """A phantom's bytes do not depend on its slab size: numpy's uint16
    draw drops the unused half of its last 32-bit word, so slab-wise draws
    equal one whole draw only because every slab but the last holds an
    even voxel count, planes of an odd count included."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("case", ["dims-1-9-7", "ragged-slabs", "odd-plane-slabs"])
    def test_small_slabs_write_the_reference(self, tmp_path, monkeypatch, case, jobs):
        overrides = PHANTOM_CASES[case]
        nx, ny, nz = overrides["phantom_dims"]
        # 3 planes a slab, 2 where a plane's voxel count is odd; a forked
        # worker inherits the patch
        monkeypatch.setattr(volume, "_SLAB_VOXELS", 3 * nx * ny)
        planes = _slab_planes((nx, ny, nz))
        assert planes == (2 if nx * ny % 2 else 3) and nz % planes != 0
        RunConfig(n_volumes=2, seed=4, **overrides).to_file(tmp_path / "config.json")
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--config", "config.json", "--jobs", jobs, "--out", "data"]) == 0
        for i in range(2):
            want, _ = generate_phantom_reference(RunConfig(seed=4 + i, **overrides))
            assert (tmp_path / f"data/vol-{i:04d}.vol.raw").read_bytes() == _raw_bytes(want.values)


DEFAULT_TABLE_SHA256 = {
    "background": "422d6d6d88cf7c27cfc607e5102225a0109a77fc54b6caa5f3e16fd01107d0ea",
    "vessel": "8883998b073643e2a6c5b47d2e58b61a7f1120bdc0c543fbc8595e9d65d52f04",
    "aneurysm": "e76d9dcf2e2c844fd30ecfe544360ba10f188314d04ead0ea1704edcfdf89af9",
}
SEED_0_FIRST_SLAB_SHA256 = "f2ce930fcbc604983fda47b1660c260a582bedbfee6da080df6ea7f1af66f5f1"


class TestHuTable:
    """Each tissue's inverse-CDF table holds the rounded, clipped Gaussian
    at 2**-16 resolution."""

    @pytest.mark.parametrize("hu,want", [(40.0, 40), (0.5, 0), (1.5, 2), (-0.5, 0),
                                         (300.5, 300), (40000.0, 32767), (-1e300, -32768)])
    def test_sigma_0_is_rint(self, hu, want):
        assert np.array_equal(_hu_table(hu, 0.0), np.full(1 << 16, want, np.int16))

    def test_sigma_0_draws_nothing(self):
        phantom, _ = generate_phantom(RunConfig(seed=3, phantom_noise_sigma=0.0))
        assert phantom._noise_rng is None

    def test_clips_to_int16(self):
        assert np.all(_hu_table(40000.0, 15.0) == 32767)
        assert np.all(_hu_table(-40000.0, 15.0) == -32768)
        table = _hu_table(32760.0, 15.0)  # the mass above 32767 piles up there
        assert table.max() == 32767 and np.mean(table == 32767) > 0.3

    @pytest.mark.parametrize("sigma,want", [(1e-300, {40: 1 << 16}),
                                            (1e300, {-32768: 1 << 15, 32767: 1 << 15})])
    def test_extreme_sigma_builds_in_bounded_time_and_memory(self, sigma, want):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            table = _hu_table(40.0, sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 2 << 20  # at most 65,536 CDF steps of 8 bytes, a few times over
        values, counts = np.unique(table, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == want

    @pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
    def test_extreme_sigma_synth_exits_0(self, tmp_path, monkeypatch, sigma):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(
            '{"n_volumes": 1, "phantom_dims": [4, 4, 4], "n_vessels": 0, "n_aneurysms": 0, '
            f'"phantom_noise_sigma": {sigma}}}')
        assert main(["synth", "--config", "config.json", "--out", "data"]) == 0
        values = read_volume(tmp_path / "data/vol-0000").values
        assert set(np.unique(values)) <= ({40} if sigma == "1e-300" else {-32768, 32767})

    @pytest.mark.parametrize("hu,sigma", [(40.0, 15.0), (300.0, 15.0), (400.0, 15.0),
                                          (40.1, 7.3), (-0.5, 2.0), (32760.0, 15.0),
                                          (12.25, 0.3)])
    def test_counts_are_the_rounded_gaussian_mass(self, hu, sigma):
        norm = pytest.importorskip("scipy.stats").norm
        lo = max(-32768, math.floor(hu - 6 * sigma))
        hi = min(32767, math.ceil(hu + 6 * sigma))
        k = np.arange(lo, hi + 1)
        upper = np.where(k == 32767, 1.0, norm.cdf((k + 0.5 - hu) / sigma))
        lower = np.where(k == -32768, 0.0, norm.cdf((k - 0.5 - hu) / sigma))
        values, counts = np.unique(_hu_table(hu, sigma), return_counts=True)
        assert lo <= values[0] and values[-1] <= hi
        got = np.zeros(len(k), np.int64)
        got[values - lo] = counts
        assert np.all(np.abs(got - (upper - lower) * (1 << 16)) <= 1)

    def test_default_background_moments(self):
        cfg = RunConfig(seed=0)
        values = generate_phantom(cfg)[0].values
        tissue = generate_phantom(RunConfig(seed=0, phantom_noise_sigma=0.0))[0].values
        background = values[tissue == cfg.background_hu].astype(np.float64)
        assert background.size > 10**6
        assert abs(background.mean() - 40.0) <= 0.1
        assert abs(background.std() - 15.0) <= 0.15

    def test_default_tables_pinned(self):
        # a drift in libm's erfc shows here by name
        cfg = RunConfig()
        for name in DEFAULT_TABLE_SHA256:
            table = _hu_table(getattr(cfg, f"{name}_hu"), cfg.phantom_noise_sigma)
            assert hashlib.sha256(table.astype("<i2").tobytes()).hexdigest() == \
                DEFAULT_TABLE_SHA256[name], name

    def test_seed_0_first_slab_pinned(self):
        # a drift in numpy's uint16 stream shows here by name
        slab = next(generate_phantom(RunConfig(seed=0))[0].z_slabs())
        assert hashlib.sha256(_raw_bytes(slab)).hexdigest() == SEED_0_FIRST_SLAB_SHA256


class TestStreamedWrite:
    """write_volume appends a phantom's z-slabs as they are filled: the
    same bytes as writing the filled phantom, and on an error the old file
    stays.  The noise is drawn inline, on the writer's thread, as the
    "-inline" ids say."""

    @pytest.mark.parametrize("overrides", list(REGION_CASES.values()),
                             ids=[f"{case}-inline" for case in REGION_CASES])
    def test_streamed_file_equals_filled_phantom(self, tmp_path, overrides):
        cfg = RunConfig(seed=17, **overrides)
        phantom, _ = generate_phantom(cfg, "p")
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
        assert streamed_raw == _raw_bytes(want.values)
        assert (got.spacing, got.volume_id, got.cranial_axis) == (
            want.spacing, want.volume_id, want.cranial_axis)

    def test_region_cases_cut_the_file_as_named(self):
        nx, ny, nz = REGION_CASES["ragged-regions"]["phantom_dims"]
        planes = _slab_planes((nx, ny, nz))  # 160 z-planes in 36-plane slabs
        assert nz // planes >= 2 and nz % planes != 0
        nx, ny, nz = PLANE_REGION_DIMS
        assert nx * ny > _SLAB_VOXELS and nx * ny % 2 == 0 and nz > 1
        assert _slab_planes(PLANE_REGION_DIMS) == 1

    @pytest.mark.parametrize("where", ["fill", "write"], ids=["fill-inline", "write-inline"])
    def test_error_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch, where):
        write_volume(generate_phantom(RunConfig(seed=3), "p")[0], tmp_path / "p")
        raw = tmp_path / "p.vol.raw"
        old_bytes = raw.read_bytes()
        old = read_volume(tmp_path / "p")
        old_values = np.array(old.values)
        error = RuntimeError(f"{where} failed")
        if where == "fill":  # in the second slab's painting
            balls = synth._ball_voxels

            def failing(shape, centers, radius, z0=0):
                if z0 > 0:
                    raise error
                return balls(shape, centers, radius, z0)

            monkeypatch.setattr(synth, "_ball_voxels", failing)
        else:  # appending the second slab
            class FailingFile:
                def __init__(self, f):
                    self.f, self.writes = f, 0

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.f.close()

                def write(self, data):
                    self.writes += 1
                    if self.writes == 2:
                        raise error
                    return self.f.write(data)

            monkeypatch.setattr(volume, "open", lambda path, mode: FailingFile(open(path, mode)),
                                raising=False)
        with pytest.raises(RuntimeError) as got:
            write_volume(generate_phantom(RunConfig(seed=2), "p")[0], tmp_path / "p")
        assert got.value is error
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


class TestNoiseThread:
    """The noise is drawn on the thread that fills the phantom: no helper
    is started, several callers at once each keep their bits, and an error
    in the draw comes out of the fill."""

    def test_concurrent_calls_keep_their_bits(self, monkeypatch):
        # 2-plane slabs give 16 draws per phantom; more callers than cores
        # and a short switch interval interleave the fills
        monkeypatch.setattr(volume, "_SLAB_VOXELS", 2048)
        cfgs = [RunConfig(phantom_dims=(32, 32, 32), n_vessels=2, n_aneurysms=1,
                          aneurysm_diameter_range=(3.0, 5.0), seed=s)
                for s in range((os.cpu_count() or 1) + 2)]
        want = [generate_phantom(cfg)[0].values for cfg in cfgs]
        got = [None] * len(cfgs)

        def run(i):
            got[i] = generate_phantom(cfgs[i])[0].values

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

    @pytest.mark.parametrize("draw", ["inline"])
    def test_noise_error_propagates(self, draw):
        error = RuntimeError("noise draw failed")
        phantom = generate_phantom(RunConfig(seed=2))[0]
        rng = phantom._noise_rng
        calls = []

        class FailingRng:
            def __deepcopy__(self, memo):  # a fill draws from a copy
                return self

            def integers(self, *args):
                calls.append(threading.current_thread())
                if len(calls) == 2:  # after one good slab
                    raise error
                return rng.integers(*args)

        phantom._noise_rng = FailingRng()
        before = threading.active_count()
        with pytest.raises(RuntimeError) as got:
            phantom.values
        assert got.value is error
        assert calls == [threading.current_thread()] * 2  # drawn inline
        assert threading.active_count() == before

    def test_no_helper_without_overlap_or_noise(self, monkeypatch):
        seen = []
        balls = synth._ball_voxels

        def watching_balls(*args):
            seen.append(threading.active_count())
            return balls(*args)

        monkeypatch.setattr(synth, "_ball_voxels", watching_balls)
        before = threading.active_count()
        generate_phantom(RunConfig(seed=2))[0].values
        generate_phantom(RunConfig(seed=2, phantom_noise_sigma=0.0))[0].values
        assert seen and set(seen) == {before}


def _paint(canvas, centers, radius, value, z0=0):
    """Set the voxels of ``canvas``, a Fortran-ordered z-slab from plane
    ``z0``, within ``radius`` of any of ``centers`` to ``value``."""
    flat = canvas.reshape(-1, order="F")
    assert np.shares_memory(flat, canvas)
    for idx in _ball_voxels(canvas.shape, centers, radius, z0):
        flat[idx] = value


def _canvas(dims):
    return np.zeros(dims, np.uint8, order="F")


def _assert_paints_like_loop(dims, centers, radius):
    got = _canvas(dims)
    _paint(got, centers, radius, 1)
    want = np.zeros(dims, np.uint8)
    for center in centers:
        paint_ball_reference(want, center, radius, 1)
    assert np.array_equal(got, want)


SEVERAL_BLOCKS = ((300, 40, 36), -4.0, 8.0)  # 600 balls of 18**3 cube cells


class TestPaintBallsMatchesLoop:
    """One vessel's balls taken at once give the voxels of the per-ball
    loop."""

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
        assert 2 * max(dims) * (2 * radius + 2) ** 3 > 3 * _BLOCK_CELLS

    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 5.0])
    def test_integral_radius_ties(self, radius):
        # half-lattice centers put voxels exactly at d2 == r*r
        dims = (24, 20, 18)
        path = _vessel_path(np.random.default_rng(8), dims, margin=-2.0)
        _assert_paints_like_loop(dims, np.round(path * 2.0) / 2.0, radius)
        tie = _canvas(dims)
        _paint(tie, (10.0, 10.0, 9.0), radius, 1)
        assert tie[10, 10, int(9 + radius)] == 1

    def test_lesions_over_vessels(self):
        dims = (48, 40, 36)
        rng = np.random.default_rng(21)
        path = _vessel_path(rng, dims, margin=4.0)
        lesions = [(tuple(float(v) for v in path[i] + rng.normal(0, 2, 3)), d / 2.0)
                   for i, d in ((10, 5.0), (40, 9.5), (70, 4.0))]
        got = _canvas(dims)
        want = np.zeros(dims, np.uint8)
        _paint(got, path, 3.2, 1)
        for center in path:
            paint_ball_reference(want, center, 3.2, 1)
        for center, radius in lesions:
            _paint(got, center, radius, 2)
            paint_ball_reference(want, center, radius, 2)
        assert np.array_equal(got, want)
        assert set(np.unique(got)) == {0, 1, 2}

    def test_scratch_memory_is_bounded(self):
        dims = (256, 256, 240)
        path = _vessel_path(np.random.default_rng(2), dims, margin=12.0)
        blocks = peak = 0
        tracemalloc.start()
        try:
            for idx in _ball_voxels(dims, path, 10.0):
                blocks += 1
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert blocks > 1
        assert peak < math.prod(dims) * 8 / 4  # a quarter of a float64 canvas
        assert peak < 5 << 18  # blocks of about 64 K cube cells, about 18 bytes each


class TestPaintBallsInSlabs:
    """A z-slab taken with its offset gives the voxels of the same planes
    of the whole canvas."""

    @pytest.mark.parametrize("step", [1, 3, 7, 19, 40])
    @pytest.mark.parametrize("radius", [0.45, 2.0, 3.7])
    def test_slabs_equal_rows_of_whole(self, step, radius):
        dims = (36, 30, 40)
        rng = np.random.default_rng(5)
        path = _vessel_path(rng, dims, margin=-6.0)  # walks in and out of the canvas
        lesions = [(tuple(path[i] + rng.normal(0, 2, 3)), d / 2.0)
                   for i, d in ((10, 5.0), (40, 9.5), (70, 4.0))]
        # half-lattice centers on slab edges, at an integral radius, put
        # voxels exactly at d2 == r*r
        edges = [(17.0, 13.5, z - 0.5) for z in range(step, dims[2], step)][:6]

        def paint(canvas, z0=0):
            _paint(canvas, path, radius, 1, z0)
            _paint(canvas, edges, float(round(radius)) or 1.0, 1, z0)
            for center, r in lesions:
                _paint(canvas, center, r, 2, z0)

        whole = _canvas(dims)
        paint(whole)
        assert set(np.unique(whole)) == {0, 1, 2}
        for z in range(0, dims[2], step):
            slab = _canvas((*dims[:2], min(step, dims[2] - z)))
            paint(slab, z)
            assert np.array_equal(slab, whole[:, :, z : z + step]), f"slab at z={z}"

    def test_skips_balls_off_the_slab(self):
        # a ball whose cube ends just before the slab, or starts just past it,
        # is never scored; one whose cube reaches it is
        shape = (8, 8, 4)
        for cz in (6.4, 19.6):  # cubes of edge 7 from 3 and from 17 miss planes 10..13
            assert list(_ball_voxels(shape, (4.0, 4.0, cz), 2.5, 10)) == []
        slab = _canvas(shape)
        blocks = list(_ball_voxels(shape, (4.0, 4.0, 8.6), 2.5, 10))  # the cube from 6 reaches 12
        assert len(blocks) == 1
        slab.reshape(-1, order="F")[blocks[0]] = 1
        assert slab[:, :, 0].any() and not slab[:, :, 2:].any()


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

    @pytest.mark.parametrize("jitter", [0.0, 0.3, 0.99])
    def test_diameter_jitter_bounds(self, jitter):
        cfg = RunConfig(detector_diameter_jitter=jitter)
        ratios = []
        for seed in range(40):
            cands = oracle_detect(self.truth(), cfg, seed, self.DIMS)
            assert oracle_detect(self.truth(), cfg, seed, self.DIMS) == cands
            for c, box in zip(cands, self.truth(), strict=True):
                assert c.box.center == box.center
                lo, hi = box.diameter * (1 - jitter), box.diameter * (1 + jitter)
                assert max(lo, 0.1) <= c.box.diameter <= hi
                ratios.append(c.box.diameter / box.diameter)
        if jitter:
            assert min(ratios) < 1.0 < max(ratios)
        else:
            assert set(ratios) == {1.0}

    def test_diameter_jitter_clamped(self):
        cfg = RunConfig(detector_diameter_jitter=1.0)
        cands = [oracle_detect([BoundingBox((30.0, 30.0, 30.0), 0.2)], cfg, seed, self.DIMS)
                 for seed in range(40)]
        diameters = [c.box.diameter for [c] in cands]
        assert min(diameters) == 0.1 and max(diameters) > 0.2

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
