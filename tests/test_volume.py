import json
import mmap
import tracemalloc

import numpy as np
import pytest

from ctadet import volume
from ctadet.config import RunConfig
from ctadet.volume import (
    PatchSpec,
    _mapping,
    _slab_planes,
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
    def test_mapping_found_under_views(self, tmp_path):
        write_volume(make_volume((6, 5, 8)), tmp_path / "v")
        v = read_volume(tmp_path / "v")
        mapping = _mapping(v.values)
        assert isinstance(mapping, mmap.mmap) and len(mapping) == v.values.nbytes
        assert _mapping(truncate_cranial(v, 3.0).values[1:, :, ::2]) is mapping
        assert _mapping(np.array(v.values)) is None
        assert _mapping(make_volume((6, 5, 8)).values[:, 1:]) is None

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
        # the one buffer is a read-only mapping of the raw file
        v = make_volume((6, 5, 4), seed=7)
        write_volume(v, tmp_path / "b")
        values = read_volume(tmp_path / "b").values
        assert values.dtype == np.int16 and values.flags.f_contiguous
        assert not values.flags.writeable and not values.flags.owndata
        assert np.array_equal(values, v.values)
        base = values
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
        # bytes written into the file in place show through: no private copy
        with open(tmp_path / "b.vol.raw", "r+b") as f:
            f.write(np.int16(12345).astype("<i2").tobytes())
        assert values[0, 0, 0] == 12345

    def test_writing_into_read_values_raises(self, tmp_path):
        write_volume(make_volume((3, 4, 5)), tmp_path / "r")
        values = read_volume(tmp_path / "r").values
        with pytest.raises(ValueError, match="read-only"):
            values[1, 2, 3] = 0
        with pytest.raises(ValueError, match="read-only"):
            values += 1

    @pytest.mark.parametrize("dims", [(6, 5, 4), (64, 64, 300)])  # one z-slab, several
    def test_rewrite_over_own_file_round_trips(self, tmp_path, dims):
        write_volume(make_volume(dims, seed=3), tmp_path / "s")
        raw, sidecar = tmp_path / "s.vol.raw", tmp_path / "s.vol.json"
        want = raw.read_bytes(), sidecar.read_bytes()
        v = read_volume(tmp_path / "s")
        write_volume(v, tmp_path / "s")
        assert (raw.read_bytes(), sidecar.read_bytes()) == want
        assert np.array_equal(v.values, read_volume(tmp_path / "s").values)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.vol.json", "s.vol.raw"]

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

    @pytest.mark.parametrize("bad,dtype,message", [
        (0.5, np.float64, "raw volume files store int16 HU; values must be integral"),
        (np.nan, np.float64, "raw volume files store int16 HU; values must be integral"),
        (-np.inf, np.float32, "raw volume files store int16 HU; values must be integral"),
        (40000.0, np.float64, "HU values [-7.0, 40000.0] exceed the int16 range"),
        (-40000, np.int32, "HU values [-40000, 9] exceed the int16 range"),
    ], ids=["half", "nan", "-inf", "float-range", "int32-range"])
    def test_bad_value_in_a_later_region_refused(self, tmp_path, bad, dtype, message):
        # 64-plane pieces of a 64x64 plane: the bad voxel sits in the third
        values = np.zeros((64, 64, 160), dtype)
        values[0, 0, 0], values[1, 1, 1], values[5, 6, 150] = -7, 9, bad
        with pytest.raises(ValueError) as err:
            write_volume(Volume(values, (1, 1, 1), "b", "+z"), tmp_path / "b")
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sizes,message", [
        ((2, 1), "z-slabs cover 3 of 4 planes"),
        ((3, 2), "z-slab (2, 3, 2) at z = 3 does not fit dims (2, 3, 4)"),
    ], ids=["short", "long"])
    def test_slabs_that_miss_the_z_range_refused(self, tmp_path, sizes, message):
        class Slabs:
            dims, spacing, volume_id, cranial_axis = (2, 3, 4), (1.0, 1.0, 1.0), "s", "+z"

            def z_slabs(self):
                for m in sizes:
                    yield np.zeros((2, 3, m), np.int16, order="F")

        with pytest.raises(ValueError) as err:
            write_volume(Slabs(), tmp_path / "s")
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_float_volume_checked_in_region_pieces(self, tmp_path):
        # the int16 checks of a float64 volume (12 MiB) run on one piece of
        # at most a slab at a time: their scratch is a bool per piece voxel
        # beside the piece's int16 copy, not whole-volume temporaries
        dims = (128, 128, 96)
        v = Volume(make_volume(dims).values.astype(np.float64), (1, 1, 1), "f", "+z")
        piece = dims[0] * dims[1] * _slab_planes(dims)
        tracemalloc.start()
        try:
            write_volume(v, tmp_path / "f")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_volume(tmp_path / "f").values, v.values)
        budget = 2 * piece + piece + (256 << 10)  # and numpy's casting buffers
        assert peak <= budget, f"traced peak {peak / 2**20:.2f} MiB > {budget / 2**20:.2f} MiB"

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_writes_are_small(self, tmp_path, monkeypatch, order):
        # small writes make small page-cache folios, so reduce maps no more
        # of the file than it reads
        sizes = []

        class Recording:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                sizes.append(len(memoryview(data).cast("B")))
                return self.f.write(data)

        monkeypatch.setattr(volume, "open", lambda path, mode: Recording(open(path, mode)),
                            raising=False)
        values = np.asarray(make_volume((130, 70, 40)).values, order=order)
        write_volume(Volume(values, (1, 1, 1), "w", "+z"), tmp_path / "w")
        assert max(sizes) <= volume._WRITE_BYTES and len(sizes) > 10
        monkeypatch.undo()
        assert np.array_equal(read_volume(tmp_path / "w").values, values)


def _write_pair(tmp_path, raw_bytes=16, **header):
    """A volume pair named "h" whose sidecar holds ``header`` over valid
    defaults and whose raw file holds ``raw_bytes`` zero bytes (none is
    written for None)."""
    doc = {"dims": [2, 2, 2], "spacing_mm": [1.0, 1.0, 1.0], "cranial_axis": "+z",
           "volume_id": "h", **header}
    (tmp_path / "h.vol.json").write_text(json.dumps(doc))
    if raw_bytes is not None:
        (tmp_path / "h.vol.raw").write_bytes(bytes(raw_bytes))
    return tmp_path / "h"


class TestHeaderChecks:
    """A header or raw file that read_volume refuses gives a ValueError
    naming the file."""

    @pytest.mark.parametrize(
        "dims",
        [[2, 2, 2.7], ["a", 2, 2], [2, 2, -1], [0, 4, 4], [2, 2], [2, 2, 2, 1], [True, 2, 2],
         None, "2x2x2"],
        ids=["fraction", "string", "negative", "zero", "two", "four", "bool", "missing",
             "not-a-list"],
    )
    def test_bad_dims(self, tmp_path, dims):
        path = _write_pair(tmp_path, dims=dims)
        with pytest.raises(ValueError) as err:
            read_volume(path)
        assert str(err.value) == (
            f"{tmp_path / 'h.vol.json'}: dims must be 3 integers >= 1, got {dims!r}")

    def test_integral_float_dims_accepted(self, tmp_path):
        assert read_volume(_write_pair(tmp_path, dims=[2.0, 2, 2])).dims == (2, 2, 2)

    @pytest.mark.parametrize(
        "spacing",
        [[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, "1", 1.0], [1.0, 1.0], [1.0, None, 1.0],
         [1.0, 1.0, False]],
        ids=["zero", "negative", "string", "two", "null", "bool"],
    )
    def test_bad_spacing(self, tmp_path, spacing):
        path = _write_pair(tmp_path, spacing_mm=spacing)
        with pytest.raises(ValueError) as err:
            read_volume(path)
        assert str(err.value) == (f"{tmp_path / 'h.vol.json'}: spacing_mm must be 3 finite "
                                  f"positive numbers, got {spacing!r}")

    def test_header_not_an_object(self, tmp_path):
        path = _write_pair(tmp_path)
        (tmp_path / "h.vol.json").write_text("[2, 2, 2]")
        with pytest.raises(ValueError, match=r"h\.vol\.json: the header is not a JSON object"):
            read_volume(path)

    def test_raw_directory_of_the_declared_size(self, tmp_path):
        raw = tmp_path / "h.vol.raw"
        raw.mkdir()
        size = raw.stat().st_size  # a directory's size depends on the file system
        dims = [size // 2, 1, 1] if size >= 2 and size % 2 == 0 else [32, 8, 8]
        path = _write_pair(tmp_path, raw_bytes=None, dims=dims)
        with pytest.raises(ValueError) as err:
            read_volume(path)
        assert str(err.value) == f"{raw}: not a regular file"


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
        out = extract_patch(v, PatchSpec((-2, 0, 0), (4, 4, 4)))
        assert (out.values[:2] == -1000).all()
        assert np.array_equal(out.values[2:], v.values[:2, :4, :4])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            dims = tuple(int(d) for d in rng.integers(2, 8, 3))
            v = Volume(rng.integers(-50, 50, dims).astype(np.int16), (1, 1, 1))
            origin = tuple(int(o) for o in rng.integers(-4, 8, 3))
            size = tuple(int(s) for s in rng.integers(1, 6, 3))
            spec = PatchSpec(origin, size)
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
            got = extract_patch(v, PatchSpec(origin, size)).values
            assert np.array_equal(got, extract_patch_oracle(v.values, origin, size, -1000.0))
            if layout != "c":
                assert got.flags.f_contiguous
