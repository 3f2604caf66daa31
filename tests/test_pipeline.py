import numpy as np
import pytest

from ctadet import pipeline, volume
from ctadet.anchors import AnchorGrid, BoundingBox, TargetVector, anchor_grid, decode
from ctadet.config import RunConfig
from ctadet.fpr import (
    extract_fpr_patches,
    perfect_classifier,
    reference_classifier,
    rescore,
    select_candidates,
)
from ctadet.pipeline import (
    FprBatch,
    OracleTileScorer,
    PluginOutputError,
    _checked_output,
    _decode_grid,
    detect_volume,
    reduce_volume,
    tile_patch,
)
from ctadet.postproc import CandidateDetection, Stage
from ctadet.synth import generate_phantom
from ctadet.volume import Volume, extract_patch, normalize_hu, tile_volume, truncate_cranial
from oracles import oracle_score_reference, reference_classifier_reference


def phantom(seed=0, **kw):
    return generate_phantom(RunConfig(seed=seed, **kw), f"ph-{seed}")


class TestDetectVolume:
    def test_perfect_oracle_recovers_truth(self):
        vol, lesions = phantom(seed=1, n_aneurysms=4, aneurysm_diameter_range=(5.0, 14.0))
        boxes = [l.box for l in lesions]
        cfg = RunConfig()  # perfect detector defaults
        cands = detect_volume(vol, boxes, cfg, seed=0)
        assert len(cands) == len(boxes)
        got = sorted(c.box.center for c in cands)
        want = sorted(b.center for b in boxes)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)
        assert all(c.probability == 1.0 for c in cands)
        assert all(c.stage is Stage.DETECTOR for c in cands)
        assert all(c.source_tile is not None for c in cands)

    def test_candidate_in_tile_overlap_deduplicated(self):
        # volume large enough for 2 tiles per axis; lesion centered in the
        # overlap band shows up in several tiles but must merge to one
        values = np.full((160, 96, 96), 40, dtype=np.int16)
        vol = Volume(values, (1, 1, 1), "overlap", "+z")
        lesion = BoundingBox((82.0, 48.0, 48.0), 8.0)  # tiles at x=0 and x=64
        cfg = RunConfig()
        cands = detect_volume(vol, [lesion], cfg, seed=0)
        assert len(cands) == 1
        assert cands[0].box.center == pytest.approx(lesion.center, abs=1e-9)

    def test_truncation_offset_restored(self):
        # 260 slices at 1 mm: truncation keeps the last 200 ("+z" cranial)
        values = np.full((96, 96, 260), 40, dtype=np.int16)
        vol = Volume(values, (1, 1, 1), "long", "+z")
        lesion = BoundingBox((48.0, 48.0, 230.0), 8.0)  # cranial region
        cfg = RunConfig()
        cands = detect_volume(vol, [lesion], cfg, seed=0)
        assert len(cands) == 1
        assert cands[0].box.center == pytest.approx(lesion.center, abs=1e-9)

    def test_caudal_lesion_dropped_by_truncation(self):
        values = np.full((96, 96, 260), 40, dtype=np.int16)
        vol = Volume(values, (1, 1, 1), "long", "+z")
        lesion = BoundingBox((48.0, 48.0, 20.0), 8.0)  # below the kept region
        cands = detect_volume(vol, [lesion], RunConfig(), seed=0)
        assert cands == []

    def test_deterministic_given_seed(self):
        vol, lesions = phantom(seed=2, n_aneurysms=3)
        boxes = [l.box for l in lesions]
        cfg = RunConfig(
            detector_hit_prob=0.9,
            detector_center_jitter=1.0,
            detector_fp_per_volume=3.0,
            detector_tp_prob_range=(0.5, 1.0),
        )
        a = detect_volume(vol, boxes, cfg, seed=7)
        b = detect_volume(vol, boxes, cfg, seed=7)
        assert a == b

    def test_oversized_volume_without_cranial_flag_rejected(self):
        values = np.full((8, 8, 260), 40, dtype=np.int16)
        vol = Volume(values, (1, 1, 1), "unflagged", cranial_axis=None)
        with pytest.raises(ValueError, match="cranial"):
            detect_volume(vol, [], RunConfig(), seed=0)

    def test_small_volume_without_flag_accepted(self):
        values = np.full((96, 96, 96), 40, dtype=np.int16)
        vol = Volume(values, (1, 1, 1), "small", cranial_axis=None)
        assert detect_volume(vol, [], RunConfig(), seed=0) == []

    def test_injected_false_positives_survive_merge(self):
        vol, lesions = phantom(seed=3, n_aneurysms=2, aneurysm_diameter_range=(6.0, 10.0))
        boxes = [l.box for l in lesions]
        cfg = RunConfig(
            detector_fp_per_volume=6.0,
            detector_fp_prob_range=(0.3, 0.9),
        )
        cands = detect_volume(vol, boxes, cfg, seed=5)
        fps = [c for c in cands if not any(b.contains(c.box.center) for b in boxes)]
        assert len(fps) >= 1


class TestDetectReadsPixelsOnRequest:
    def test_oracle_scorer_reads_no_pixels(self, monkeypatch):
        calls = []
        for module in (pipeline, volume):
            for name in ("extract_patch", "normalize_hu"):
                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        vol, lesions = phantom(seed=2, n_aneurysms=3)
        cfg = RunConfig(detector_fp_per_volume=5.0, detector_fp_prob_range=(0.3, 0.9))
        assert detect_volume(vol, [l.box for l in lesions], cfg, seed=1)
        assert calls == []
        pipeline.tile_patch(vol, tile_volume(vol)[0])  # the counters are live
        assert calls == ["extract_patch", "normalize_hu"]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_helper_gives_the_normalized_tile(self, order):
        rng = np.random.default_rng(4)
        values = rng.integers(-1200, 1500, (100, 90, 230)).astype(np.int16)
        vol = Volume(np.array(values, order=order), (1, 1, 1), "pixels", "+z")
        window = (-150.5, 350.25)
        cfg = RunConfig(hu_window=window)
        seen = []

        class PixelScorer:
            def score(self, volume, tile, grid):
                seen.append((volume, tile, tile_patch(volume, tile, window)))
                return np.zeros((len(grid), 5))

        detect_volume(vol, [], cfg, 0, lambda v, lesions, cfg, seed: PixelScorer())
        truncated = truncate_cranial(vol, cfg.cranial_max_extent_mm)
        assert [tile for _, tile, _ in seen] == tile_volume(truncated, cfg.patch_size,
                                                            cfg.tile_overlap)
        for got_volume, tile, patch in seen:
            assert got_volume.values.dtype == np.int16
            assert np.shares_memory(got_volume.values, vol.values)
            want = normalize_hu(extract_patch(truncated, tile), window).values
            assert patch.values.dtype == want.dtype
            assert patch.values.flags.f_contiguous == want.flags.f_contiguous
            assert patch.values.tobytes("A") == want.tobytes("A")


class TestDecodeGrid:
    def test_cube_checked_in_input_coordinates(self):
        # an 8.6e-15 edge is a cube at z = 0 of the truncated volume, where
        # merge_tiles sees it, but of volume 0 at z = 100 of the input
        # volume, where the candidate file puts it and reduce sees it
        vol = Volume(np.zeros((96, 96, 300), dtype=np.int16), (1, 1, 1), "tall", "+z")

        class TinyScorer:
            def score(self, volume, tile, grid):
                preds = np.zeros((len(grid), 5))
                if tile.origin == (0, 0, 0):
                    preds[0] = 0.5, -0.4, -0.4, -0.4, -34.0
                return preds

        with pytest.raises(PluginOutputError, match=r"tile at \(0, 0, 0\).* volume 0\.0"):
            detect_volume(vol, [], RunConfig(), 0, lambda v, lesions, cfg, seed: TinyScorer())

    FLOOR = RunConfig.sensitivity_floor

    @staticmethod
    def scalar_decode(preds, grid, floor):
        out = []
        for i in np.flatnonzero(preds[:, 0] > floor):
            anchor = grid.anchor(i)
            box, prob = decode(TargetVector(*(float(x) for x in preds[i])), anchor)
            out.append(CandidateDetection(box, prob, scale_index=anchor.scale_index))
        return out

    def test_equals_scalar_decode_loop(self):
        grid = anchor_grid()
        rng = np.random.default_rng(9)
        rows = rng.choice(len(grid), 400, replace=False)
        preds = np.zeros((len(grid), 5))
        preds[rows, 0] = rng.uniform(0.1, 1, len(rows))
        preds[rows, 1:4] = rng.normal(0, 2, (len(rows), 3))
        preds[rows, 4] = rng.normal(0, 1, len(rows))
        # tiny and huge diameters whose cubes still have a finite, positive
        # volume (ds near -40 or 240 gives volume 0 or inf: a bad row)
        preds[rows[:40], 4] = rng.uniform(-30.5, -29.5, 40)
        preds[rows[40:80], 4] = rng.uniform(199.5, 200.5, 40)
        preds[rows[80:100], 0] = self.FLOOR  # not decoded
        preds[rows[100:120], 0] = np.nextafter(self.FLOOR, 1.0)
        got = _decode_grid(preds, grid, self.FLOOR, "test output")
        want = self.scalar_decode(preds, grid, self.FLOOR)
        assert len(got) == len(want) == 380
        assert got.detections(np.arange(len(got))) == want

    @pytest.mark.parametrize(
        "column, value, problem",
        [(4, 710.0, "overflows"), (4, -1000.0, "diameter 0.0"), (4, 709.0, "diameter inf"),
         (1, 1e308, "inf"), (4, -700.0, "volume 0.0"), (4, 700.0, "volume inf")],
    )
    def test_row_without_a_box(self, column, value, problem):
        grid = anchor_grid()
        preds = np.zeros((len(grid), 5))
        preds[[7, 500, 901], 0] = 0.5
        preds[500, column] = value
        with pytest.raises(PluginOutputError, match=f"test output row 500 .*{problem}"):
            _decode_grid(preds, grid, self.FLOOR, "test output")

    @pytest.mark.parametrize("ds, volume", [(-40.0, "0.0"), (240.0, "inf")])
    def test_cube_checked_where_nms_sees_it(self, ds, volume):
        # a 2e-17 edge is a cube of volume 0 at 48 but not at the tile's
        # origin; an edge of 1e104 overflows the volume anywhere
        grid = anchor_grid()
        preds = np.zeros((len(grid), 5))
        preds[0] = 0.5, -0.4, -0.4, -0.4, ds  # centered on the tile's origin
        what = "test output"
        if ds < 0:
            assert len(_decode_grid(preds, grid, self.FLOOR, what)) == 1
        with pytest.raises(PluginOutputError, match=f"row 0 .*volume {volume}"):
            _decode_grid(preds, grid, self.FLOOR, what, [(0, 0, 0), (48, 48, 48)])


class TestCheckedOutput:
    """Plugin output checks by min/max reductions keep the messages of
    elementwise checks."""

    def test_one_bad_cell_anywhere_is_caught(self):
        good = np.full((4, 5), 0.5)
        for bad in (np.nan, np.inf, -np.inf):
            for i, j in np.ndindex(good.shape):
                arr = good.copy()
                arr[i, j] = bad
                with pytest.raises(PluginOutputError, match=r"^out holds NaN or Inf$"):
                    _checked_output(arr, (4, 5), 1, "out")

    @pytest.mark.parametrize("value", [-1e-300, 1.0000000000000002, 2.0, -1.0])
    def test_probability_out_of_range_in_any_probability_column(self, value):
        for j in range(3):
            arr = np.full((3, 3), 0.5)
            arr[1, j] = value
            with pytest.raises(PluginOutputError, match=r"outside \[0, 1\]"):
                _checked_output(arr, (3, 3), 3, "out")

    def test_huge_offsets_and_edge_probabilities_accepted(self):
        arr = np.zeros((3, 5))
        arr[:, 0] = 0.0, 1.0, 0.5
        arr[0, 1:] = 1e308, -1e308, 1e308, -1e308
        arr[2, 1:] = -1e308
        got = _checked_output(arr.tolist(), (3, 5), 1, "out")
        assert got.dtype == np.float64 and np.array_equal(got, arr)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 5)])
    def test_empty_output_accepted(self, shape):
        assert _checked_output(np.empty(shape), shape, shape[1] - 2, "out").shape == shape

    def test_empty_classifier_batch_accepted(self):
        vol, _ = phantom(seed=8, n_aneurysms=0)
        assert reduce_volume(vol, [], lambda batch: np.empty((0, 3)), RunConfig()) == []


class TestReduceVolume:
    def test_perfect_classifier_separates(self):
        vol, lesions = phantom(seed=4, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        boxes = [l.box for l in lesions]
        cfg = RunConfig(
            detector_fp_per_volume=4.0, detector_fp_prob_range=(0.3, 0.9)
        )
        cands = detect_volume(vol, boxes, cfg, seed=1)
        reduced = reduce_volume(vol, cands, perfect_classifier(boxes), cfg)
        assert all(c.stage is Stage.REDUCED for c in reduced)
        for c in reduced:
            hit = any(b.contains(c.box.center) for b in boxes)
            assert c.probability == (1.0 if hit else 0.0)

    def test_reference_classifier_orders_lesions_above_fps(self):
        vol, lesions = phantom(
            seed=6, n_aneurysms=3, aneurysm_diameter_range=(7.0, 12.0)
        )
        boxes = [l.box for l in lesions]
        cfg = RunConfig(detector_fp_per_volume=5.0, detector_fp_prob_range=(0.3, 0.9))
        cands = detect_volume(vol, boxes, cfg, seed=2)
        reduced = reduce_volume(vol, cands, reference_classifier, cfg)
        tp_scores = [
            c.probability for c in reduced
            if any(b.contains(c.box.center) for b in boxes)
        ]
        fp_scores = [
            c.probability for c in reduced
            if not any(b.contains(c.box.center) for b in boxes)
        ]
        assert tp_scores and fp_scores
        assert min(tp_scores) > max(fp_scores)

    def test_zero_candidates(self):
        vol, _ = phantom(seed=8, n_aneurysms=0)
        assert reduce_volume(vol, [], reference_classifier, RunConfig()) == []


def _face_candidates(vol, lesions, rng):
    """Lesion-centered candidates, random ones, ones whose patches reach
    past each face and corner, and ones centered outside the volume."""
    dims = np.array(vol.dims, dtype=float)
    centers = [l.box.center for l in lesions] + list(rng.uniform(0, dims, (30, 3)))
    for ax in range(3):
        for edge in (0.0, 0.4, dims[ax] - 0.6, dims[ax] - 0.01, -0.5, dims[ax]):
            centers.append(np.where(np.arange(3) == ax, edge, rng.uniform(8, dims - 8)))
    centers += [(0.0, 0.0, 0.0), tuple(dims - 0.01)]
    return [
        CandidateDetection(BoundingBox(tuple(c), 3.0), float(p))
        for c, p in zip(centers, rng.uniform(0.06, 1.0, len(centers)))
    ]


class TestReduceMatchesReference:
    """Batched reduce_volume gives the bits of the per-candidate path:
    selection, then for each candidate centered inside the volume its
    extracted, normalized patches scored by the scalar reference."""

    @staticmethod
    def per_candidate(vol, cands, cfg):
        out = []
        for c in select_candidates(cands, cfg.sensitivity_floor, cfg.nms_iou):
            if all(0 <= x < d for x, d in zip(c.box.center, vol.dims)):
                ps = extract_fpr_patches(vol, c, cfg.fpr_patch_sizes, window=cfg.hu_window)
                out.append(rescore(c, reference_classifier_reference(ps)))
        return out

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "window",
        [(-1000.0, 1000.0), (100.0, 400.0), (-1000.0, 100.0), (-150.5, 350.25)],
        ids=["default", "pad-bright", "none-bright", "non-integral"],
    )
    def test_equals_per_candidate_path(self, window, order):
        vol, lesions = phantom(seed=12, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        vol = Volume(np.array(vol.values, order=order), vol.spacing, vol.volume_id)
        cands = _face_candidates(vol, lesions, np.random.default_rng(12))
        cfg = RunConfig(hu_window=window)
        got = reduce_volume(vol, cands, reference_classifier, cfg)
        assert got == self.per_candidate(vol, cands, cfg)
        assert len(got) < len(select_candidates(cands, cfg.sensitivity_floor, cfg.nms_iou))

    def test_empty_candidate_list(self):
        # no candidates, and candidates that all lie outside the volume
        vol, _ = phantom(seed=8, n_aneurysms=0)
        outside = [CandidateDetection(BoundingBox(c, 3.0), 0.5)
                   for c in ((-1.0, 5.0, 5.0), tuple(map(float, vol.dims)))]
        for cands in ([], outside):
            batch = FprBatch.around(vol, cands)
            assert batch.origins.shape == (0, 3, 3)
            assert reference_classifier(batch).shape == (0, 3)
            assert reduce_volume(vol, cands, reference_classifier, RunConfig()) == []

    def test_one_classifier_call_per_volume(self):
        vol, lesions = phantom(seed=4, n_aneurysms=3, aneurysm_diameter_range=(6.0, 12.0))
        cands = _face_candidates(vol, lesions, np.random.default_rng(4))
        batches = []

        def classify(batch):
            batches.append(batch)
            return reference_classifier(batch)

        got = reduce_volume(vol, cands, classify, RunConfig())
        reduce_volume(vol, [], classify, RunConfig())
        assert [len(b.candidates) for b in batches] == [len(got), 0]
        assert batches[0].origins.shape == (len(got), 3, 3)


def scorer_test_candidates(rng):
    """Candidates over a 160x128x96 volume tiled by 96-voxel patches at
    x in {0, 64} and y in {0, 32}: 80 random ones, 14 on tile faces or one
    ulp off them, three pairs on one anchor (tied, rising and falling
    probabilities), six sized for the three anchor scales and four on
    boundaries between grid cells."""
    def cand(center, diameter, p):
        return CandidateDetection(BoundingBox(center, diameter), p)

    def below(v):
        return float(np.nextafter(v, -np.inf))

    cands = [
        cand(tuple(rng.uniform(0, (160, 128, 96))), rng.uniform(1, 30), rng.uniform())
        for _ in range(80)
    ]
    for x in (64.0, below(64.0), below(160.0), 70.0):
        for y in (32.0, below(128.0), 50.0):
            cands.append(cand((x, y, rng.uniform(0, 96)), rng.uniform(3, 25), 0.5))
    cands.append(cand((70.0, 50.0, below(96.0)), 8.0, 0.5))
    cands.append(cand((96.0, 50.0, 40.0), 8.0, 0.5))
    for p_first, p_second in ((0.6, 0.6), (0.4, 0.7), (0.7, 0.4)):
        x = 4.0 * rng.integers(3, 23) + 2.0  # a cell centre of tile x=0
        cands += [cand((x, 18.0, 18.0), 9.0, p_first),
                  cand((x + 0.3, 18.2, 18.0), 9.5, p_second)]
    for diameter in (4.0, 5.5, 9.0, 11.0, 19.0, 26.0):
        cands.append(cand(tuple(rng.uniform(5, 90, 3)), diameter, rng.uniform()))
    for v in (4.0, 8.0, 12.0, 16.0):  # cell boundaries: rounding half to even
        cands.append(cand((v, v + 40.0, 2.0 * v), 7.0, rng.uniform()))
    return cands


class TestOracleTileScorer:
    """OracleTileScorer.score against its per-candidate loop on Anchor
    objects, bit for bit."""

    @pytest.fixture(scope="class")
    def case(self):
        volume = Volume(np.zeros((160, 128, 96), np.int16), (1, 1, 1))
        tiles = tile_volume(volume, (96, 96, 96), 16)
        assert [t.origin for t in tiles] == [(0, 0, 0), (0, 32, 0), (64, 0, 0), (64, 32, 0)]
        return anchor_grid(), tiles, scorer_test_candidates(np.random.default_rng(23))

    def test_equals_reference(self, case):
        grid, tiles, cands = case
        anchors = [grid.anchor(i) for i in range(len(grid))]
        scales = set()
        for tile in tiles:
            got = OracleTileScorer(cands).score(None, tile, grid)
            want = oracle_score_reference(cands, tile, anchors, 24, 4, 3)
            assert got.tolist() == want.tolist()
            scales |= {int(i) % 3 for i in np.flatnonzero(got[:, 0])}
        assert scales == {0, 1, 2}

    def test_faces_and_overlaps(self, case):
        grid, tiles, cands = case
        hits = [
            sum(OracleTileScorer([c]).score(None, t, grid)[:, 0].any() for t in tiles)
            for c in cands
        ]
        assert sum(h >= 2 for h in hits[:80]) > 10  # centres in tile overlaps
        # lower faces are inside a tile, upper faces outside
        assert hits[80:94] == [4, 2, 4, 2, 1, 2, 2, 1, 2, 4, 2, 4, 4, 2]

    def test_pairs_on_one_anchor(self, case):
        grid, tiles, cands = case
        for first, second in zip(cands[94:100:2], cands[95:100:2]):
            alone = [OracleTileScorer([c]).score(None, tiles[0], grid) for c in (first, second)]
            rows = [np.flatnonzero(a[:, 0]).tolist() for a in alone]
            assert rows[0] == rows[1] and len(rows[0]) == 1
            both = OracleTileScorer([first, second]).score(None, tiles[0], grid)
            winner = alone[0] if first.probability >= second.probability else alone[1]
            assert both.tolist() == winner.tolist()

    def test_builds_no_grid_bounds(self, case):
        shared, tiles, cands = case
        grid = AnchorGrid(shared.grid_size, shared.factor, shared.sizes, shared.position,
                          shared.size)  # unshared, so no other test has read its bounds
        for tile in tiles:
            OracleTileScorer(cands).score(None, tile, grid)
        assert "bounds" not in vars(grid)  # the cubes of all 41,472 rows stay unbuilt
