import numpy as np
import pytest

from ctadet.config import RunConfig
from ctadet.volume import (
    PatchSpec,
    Volume,
    extract_patch,
    normalize_hu,
    read_volume,
    tile_volume,
    truncate_cranial,
    write_volume,
)
from oracles import extract_patch_oracle


def make_volume(dims, spacing=(1.0, 1.0, 1.0), seed=0, cranial="+z", vid="v"):
    rng = np.random.default_rng(seed)
    values = rng.integers(-1000, 2000, dims).astype(np.int16)
    return Volume(values, spacing, vid, cranial)


class TestVolumeModel:
    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2), dtype=np.int16), (0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_spacing(self, bad):
        with pytest.raises(ValueError, match="positive finite"):
            Volume(np.zeros((2, 2, 2), dtype=np.int16), (1.0, bad, 1.0))

    def test_invalid_cranial_axis(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2), dtype=np.int16), (1, 1, 1), cranial_axis="z")


class TestRoundtrip:
    def test_zeros_roundtrip(self, tmp_path):
        v = Volume(np.zeros((4, 4, 4), dtype=np.int16), (1, 1, 1), "zeros", "+z")
        write_volume(v, tmp_path / "zeros")
        back = read_volume(tmp_path / "zeros")
        assert np.array_equal(back.values, v.values)
        assert back.volume_id == "zeros"

    def test_random_roundtrip_bit_exact(self, tmp_path):
        for seed in range(5):
            v = make_volume((7, 5, 9), spacing=(0.5, 0.5, 1.0), seed=seed, vid=f"r{seed}")
            write_volume(v, tmp_path / v.volume_id)
            back = read_volume(tmp_path / v.volume_id)
            assert np.array_equal(back.values, v.values)
            assert back.spacing == v.spacing
            assert back.cranial_axis == v.cranial_axis
            assert back.volume_id == v.volume_id

    def test_x_fastest_on_disk(self, tmp_path):
        values = np.arange(2 * 3 * 4, dtype=np.int16).reshape(4, 3, 2)  # (nx,ny,nz)
        v = Volume(values, (1, 1, 1), "order", "+z")
        write_volume(v, tmp_path / "order")
        raw = np.frombuffer((tmp_path / "order.vol.raw").read_bytes(), dtype="<i2")
        assert raw[0] == values[0, 0, 0]
        assert raw[1] == values[1, 0, 0]  # x advances fastest
        assert raw[4] == values[0, 1, 0]

    def test_size_mismatch(self, tmp_path):
        v = Volume(np.zeros((4, 4, 4), dtype=np.int16), (1, 1, 1), "bad", "+z")
        write_volume(v, tmp_path / "bad")
        raw = tmp_path / "bad.vol.raw"
        raw.write_bytes(raw.read_bytes()[:-2])  # now holds 63 values
        with pytest.raises(ValueError, match="bytes"):
            read_volume(tmp_path / "bad")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_volume(tmp_path / "nope")

    @pytest.mark.parametrize("dims", [(7, 5, 9), (300, 300, 13)])  # one z-slab; 11 + 2
    @pytest.mark.parametrize("layout", ["c", "f", "strided", "float"])
    def test_bytes_equal_whole_volume_serialisation(self, tmp_path, dims, layout):
        values = make_volume(dims, seed=6).values
        if layout == "f":
            values = np.asfortranarray(values)
        elif layout == "strided":
            values = np.asfortranarray(values)[::-1, 1:, ::2]
        elif layout == "float":
            values = values.astype(np.float64)
        write_volume(Volume(values, (1, 1, 1), "w", "+z"), tmp_path / "w")
        want = values.astype("<i2").T.tobytes()
        assert (tmp_path / "w.vol.raw").read_bytes() == want

    def test_read_is_one_fortran_buffer(self, tmp_path):
        v = make_volume((6, 5, 4), seed=7)
        write_volume(v, tmp_path / "b")
        values = read_volume(tmp_path / "b").values
        buffer = values.base
        assert values.dtype == np.int16 and values.flags.f_contiguous
        assert buffer.ndim == 1 and buffer.nbytes == values.nbytes
        assert np.shares_memory(values, buffer)
        assert np.array_equal(values, v.values)

    @pytest.mark.parametrize("extra", [-2, 2])
    def test_short_or_long_file_message(self, tmp_path, extra):
        write_volume(Volume(np.zeros((4, 4, 4), dtype=np.int16), (1, 1, 1), "n", "+z"),
                     tmp_path / "n")
        raw = tmp_path / "n.vol.raw"
        body = raw.read_bytes()
        raw.write_bytes(body[:extra] if extra < 0 else body + bytes(extra))
        want = (f"{raw}: header declares dims (4, 4, 4) (128 bytes) "
                f"but file holds {128 + extra} bytes")
        with pytest.raises(ValueError) as err:
            read_volume(tmp_path / "n")
        assert str(err.value) == want

    def test_non_integral_values_rejected(self, tmp_path):
        v = Volume(np.full((2, 2, 2), 0.5), (1, 1, 1), "f", "+z")
        with pytest.raises(ValueError, match="integral"):
            write_volume(v, tmp_path / "f")


class TestNormalizeHu:
    def test_endpoints(self):
        v = Volume(np.array([[[0, -1000, 1000, 2500]]], dtype=np.int16).reshape(4, 1, 1), (1, 1, 1))
        out = normalize_hu(v)
        assert out.values.flatten().tolist() == [0.0, -1.0, 1.0, 1.0]

    def test_fractional_value(self):
        v = Volume(np.full((2, 2, 2), -250, dtype=np.int16), (1, 1, 1))
        assert normalize_hu(v).values[0, 0, 0] == pytest.approx(-0.25)

    def test_output_in_range_and_stable(self):
        v = make_volume((6, 6, 6), seed=3)
        out = normalize_hu(v)
        assert out.values.min() >= -1.0 and out.values.max() <= 1.0
        # scaling back to the HU window and renormalizing changes nothing
        again = normalize_hu(Volume(out.values * 1000.0, v.spacing))
        assert np.array_equal(again.values, out.values)

    @pytest.mark.parametrize("window", [RunConfig.hu_window, (-150.5, 350.25)],
                             ids=["default", "non-integral"])
    def test_every_int16_matches_three_passes_and_is_monotone(self, window):
        every = np.arange(-32768, 32768, dtype=np.int16).reshape(-1, 1, 1)
        fused = normalize_hu(Volume(every, (1, 1, 1)), window).values
        lo, hi = window
        three_pass = np.clip(every, lo, hi).astype(np.float32) / np.float32(max(abs(lo), abs(hi)))
        assert fused.dtype == np.float32
        assert np.array_equal(fused.view(np.uint32), three_pass.view(np.uint32))
        # the reference classifier's HU cut relies on this order
        assert (np.diff(fused.ravel()) >= 0).all()


class TestTruncateCranial:
    def test_truncates_to_extent(self):
        v = make_volume((4, 4, 300), spacing=(1, 1, 1.0))
        out = truncate_cranial(v, 200.0)
        assert out.dims == (4, 4, 200)
        # "+z": cranial side is the high-z end
        assert np.array_equal(out.values, v.values[:, :, 100:])

    @pytest.mark.parametrize("cranial", ["+z", "-z"])
    def test_truncation_is_a_view(self, cranial):
        v = make_volume((4, 4, 300), cranial=cranial)
        v = Volume(np.asfortranarray(v.values), v.spacing, v.volume_id, cranial)
        out = truncate_cranial(v, 200.0)
        assert np.shares_memory(out.values, v.values)
        assert out.values.flags.f_contiguous

    def test_within_limit_unchanged(self):
        v = make_volume((4, 4, 150), spacing=(1, 1, 1.0))
        assert truncate_cranial(v, 200.0) is v

    def test_sub_millimeter_spacing(self):
        v = make_volume((4, 4, 300), spacing=(1, 1, 0.8))
        out = truncate_cranial(v, 200.0)
        assert out.dims[2] == 250

    def test_minus_z_keeps_low_slices(self):
        v = make_volume((4, 4, 300), cranial="-z")
        out = truncate_cranial(v, 200.0)
        assert np.array_equal(out.values, v.values[:, :, :200])

    def test_missing_flag_rejected(self):
        v = make_volume((4, 4, 300), cranial=None)
        with pytest.raises(ValueError, match="cranial"):
            truncate_cranial(v)


class TestTileVolume:
    def test_worked_example_176(self):
        v = make_volume((176, 176, 176))
        tiles = tile_volume(v, (96, 96, 96), 16)
        assert len(tiles) == 8
        origins = sorted({t.origin[0] for t in tiles})
        assert origins == [0, 80]

    def test_single_tile(self):
        v = make_volume((96, 96, 96))
        tiles = tile_volume(v)
        assert len(tiles) == 1 and tiles[0].origin == (0, 0, 0)

    def test_smaller_than_patch(self):
        v = make_volume((60, 60, 60))
        tiles = tile_volume(v)
        assert len(tiles) == 1
        assert tiles[0].origin == (0, 0, 0) and tiles[0].size == (96, 96, 96)

    def test_coverage_and_overlap_random_dims(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            dims = tuple(int(d) for d in rng.integers(3, 40, 3))
            patch = tuple(int(p) for p in rng.integers(4, 16, 3))
            overlap = int(rng.integers(0, min(patch)))
            v = Volume(np.zeros(dims, dtype=np.int16), (1, 1, 1))
            tiles = tile_volume(v, patch, overlap)
            covered = np.zeros(dims, dtype=bool)
            for t in tiles:
                sl = tuple(
                    slice(max(o, 0), min(o + s, d))
                    for o, s, d in zip(t.origin, t.size, dims)
                )
                covered[sl] = True
            assert covered.all()
            # interior neighbours overlap by at least `overlap`
            for ax in range(3):
                origins = sorted({t.origin[ax] for t in tiles})
                for a, b in zip(origins, origins[1:]):
                    assert a + patch[ax] - b >= overlap

    def test_patch_must_exceed_overlap(self):
        v = make_volume((8, 8, 8))
        with pytest.raises(ValueError):
            tile_volume(v, (4, 4, 4), 4)


class TestExtractPatch:
    def test_in_bounds_copy(self):
        v = make_volume((10, 10, 10), seed=1)
        out = extract_patch(v, PatchSpec((2, 3, 4), (4, 4, 4)))
        assert np.array_equal(out.values, v.values[2:6, 3:7, 4:8])

    def test_negative_origin_padded(self):
        v = make_volume((10, 10, 10), seed=2)
        out = extract_patch(v, PatchSpec((-2, 0, 0), (4, 4, 4), pad_value=-1000))
        assert (out.values[:2] == -1000).all()
        assert np.array_equal(out.values[2:], v.values[:2, :4, :4])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            dims = tuple(int(d) for d in rng.integers(2, 8, 3))
            v = Volume(rng.integers(-50, 50, dims).astype(np.int16), (1, 1, 1))
            origin = tuple(int(o) for o in rng.integers(-4, 8, 3))
            size = tuple(int(s) for s in rng.integers(1, 6, 3))
            spec = PatchSpec(origin, size, pad_value=-1000)
            got = extract_patch(v, spec).values
            want = extract_patch_oracle(v.values, origin, size, -1000.0)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("layout", ["c", "f", "truncated"])
    def test_layouts_match_oracle(self, layout):
        rng = np.random.default_rng(5)
        for _ in range(30):
            dims = tuple(int(d) for d in rng.integers(2, 9, 3))
            values = rng.integers(-50, 50, dims).astype(np.int16)
            if layout != "c":
                values = np.asfortranarray(values)
            v = Volume(values, (1, 1, 1), cranial_axis="+z")
            if layout == "truncated":
                v = truncate_cranial(v, dims[2] - 1.0)
            origin = tuple(int(o) for o in rng.integers(-4, 8, 3))
            size = tuple(int(s) for s in rng.integers(1, 6, 3))
            got = extract_patch(v, PatchSpec(origin, size, pad_value=-1000)).values
            assert np.array_equal(got, extract_patch_oracle(v.values, origin, size, -1000.0))
            if layout != "c":
                assert got.flags.f_contiguous
