import numpy as np
import pytest

from ctadet.anchors import BoundingBox, anchor_grid
from ctadet.config import RunConfig
from ctadet.pipeline import OracleTileScorer, detect_volume, reduce_volume
from ctadet.postproc import CandidateDetection, Stage
from ctadet.synth import (
    PhantomSpec,
    generate_phantom,
    perfect_classifier,
    reference_classifier,
)
from ctadet.volume import Volume, tile_volume
from oracles import oracle_score_reference


def phantom(seed=0, **kw):
    spec = PhantomSpec(seed=seed, **kw)
    return generate_phantom(spec, f"ph-{seed}")


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
        tiles = tile_volume(volume, 96, 16)
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
