from dataclasses import replace

import numpy as np
import pytest

from ctadet.anchors import BoundingBox, iou3d
from ctadet.postproc import (
    CandidateDetection,
    Stage,
    _sort_key,
    merge_tiles,
    nms,
)
from ctadet.volume import PatchSpec
from oracles import greedy_nms_reference, iou3d_reference, nms_oracle


def cand(center, d, p, stage=Stage.DETECTOR):
    return CandidateDetection(BoundingBox(center, d), p, stage)


def random_candidates(rng, n, span=20.0):
    return [
        cand(tuple(rng.uniform(0, span, 3)), float(rng.uniform(1, 8)),
             float(rng.uniform(0, 1)))
        for _ in range(n)
    ]


class TestNms:
    def test_singleton_kept(self):
        c = cand((1, 2, 3), 4.0, 0.9)
        assert nms([c]) == [c]

    def test_overlapping_pair_keeps_higher(self):
        a = cand((0, 0, 0), 4.0, 0.9)
        b = cand((2, 0, 0), 4.0, 0.8)  # IoU 1/3 > 0.25
        assert nms([a, b]) == [a]

    def test_probability_threshold_strict(self):
        assert nms([cand((0, 0, 0), 4.0, 0.2)]) == []
        assert nms([cand((0, 0, 0), 4.0, 0.25)]) == []  # boundary dropped
        assert len(nms([cand((0, 0, 0), 4.0, 0.250001)])) == 1

    def test_iou_at_threshold_not_suppressed(self):
        a = cand((0.0, 0.0, 0.0), 4.0, 0.9)
        b = cand((2.4, 0.0, 0.0), 4.0, 0.8)
        assert iou3d(a.box, b.box) == pytest.approx(0.25, abs=1e-12)
        assert nms([a, b], iou_thresh=0.25) == [a, b]

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            cands = random_candidates(rng, 15)
            once = nms(cands)
            assert nms(once) == once

    def test_no_surviving_pair_overlaps(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            kept = nms(random_candidates(rng, 20))
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    assert iou3d_reference(a.box, b.box) <= 0.25

    def test_sorted_by_descending_probability(self):
        rng = np.random.default_rng(29)
        kept = nms(random_candidates(rng, 20))
        probs = [c.probability for c in kept]
        assert probs == sorted(probs, reverse=True)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            cands = random_candidates(rng, int(rng.integers(0, 21)))
            assert nms(cands) == nms_oracle(cands, iou3d_reference, 0.25, 0.25)

    def test_probability_tie_broken_by_center(self):
        a = cand((5.0, 0.0, 0.0), 4.0, 0.8)
        b = cand((4.0, 0.0, 0.0), 4.0, 0.8)  # heavy overlap, same prob
        assert nms([a, b]) == nms([b, a]) == [b]


TILES = tuple(PatchSpec((o, 0, 0), (96, 96, 96)) for o in (0, 32, 64))


def crowded_candidates(rng, n, span):
    """At least n candidates packed like a crowded detect, in generation
    order: half-voxel centres in [0, span), tied probabilities, and each
    box possibly followed by a partner that repeats it from the next tile,
    sits at IoU exactly 0.25 (5-voxel cubes 3 apart) or touches it on a
    face."""
    cands = []
    while len(cands) < n:
        tile = int(rng.integers(len(TILES)))
        box = BoundingBox(
            tuple(rng.integers(0, 2 * span, 3) / 2.0),
            float(rng.choice([3.0, 4.0, 5.0, 6.0, 8.0])),
        )
        first = CandidateDetection(
            box, int(rng.integers(2, 21)) / 20.0, Stage.DETECTOR, TILES[tile],
            int(rng.integers(3)),
        )
        shift = np.zeros(3)
        shift[rng.integers(3)] = 1.0
        partner = rng.integers(4)
        if partner == 0:  # the same box seen from an overlapping tile
            pair = [first, replace(first, source_tile=TILES[(tile + 1) % len(TILES)])]
        elif partner == 1:
            first = replace(first, box=BoundingBox(box.center, 5.0))
            pair = [first, replace(first, box=first.box.translated(3.0 * shift))]
        elif partner == 2:
            pair = [first, replace(first, box=box.translated(box.diameter * shift))]
        else:
            pair = [first]
        cands.extend(pair)
    return cands


class TestNmsAtScale:
    """The array kernel against the greedy scalar-IoU loop it replaced."""

    @pytest.mark.parametrize("n, span", [(500, 12), (2000, 16)])
    def test_equals_greedy_reference(self, n, span):
        rng = np.random.default_rng(n)
        cands = crowded_candidates(rng, n, span)
        adjacent = [iou3d_reference(a.box, b.box) for a, b in zip(cands, cands[1:])]
        assert 0.25 in adjacent and 1.0 in adjacent
        assert any(
            v == 0.0 and any(h == l for h, l in zip(a.box.hi, b.box.lo))
            for v, a, b in zip(adjacent, cands, cands[1:])
        )
        cands = [cands[i] for i in rng.permutation(len(cands))]
        for prob_thresh in (0.05, 0.5):
            kept = nms(cands, iou_thresh=0.25, prob_thresh=prob_thresh)
            assert kept == greedy_nms_reference(
                cands, iou3d_reference, _sort_key, 0.25, prob_thresh
            )
            assert 0 < len(kept) < len(cands)


def references(cands, iou_thresh, prob_thresh=0.0):
    """The greedy scalar-IoU loop's answer, after checking that the
    max-scan oracle gives the same."""
    want = greedy_nms_reference(cands, iou3d_reference, _sort_key, iou_thresh, prob_thresh)
    assert nms_oracle(cands, iou3d_reference, iou_thresh, prob_thresh) == want
    return want


JUST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


class TestPrunedNms:
    """The kernel computes IoU only on pairs that overlap on every axis;
    it must make the suppression decisions of the dense greedy loop."""

    @pytest.mark.parametrize("iou_thresh", [0.0, 0.25, JUST_BELOW_ONE])
    def test_identical_boxes(self, iou_thresh):
        boxes = [cand((5.0, 6.0, 7.0), 4.0, p) for p in (0.7, 0.9, 0.9, 0.8)]
        assert nms(boxes, iou_thresh, 0.0) == references(boxes, iou_thresh) == [boxes[1]]

    def test_touching_on_one_face(self):
        a = cand((0.0, 0.0, 0.0), 4.0, 0.9)
        for axis in range(3):
            b = cand(tuple(4.0 * (np.arange(3) == axis)), 4.0, 0.8)
            assert iou3d(a.box, b.box) == 0.0
            assert nms([a, b], 0.0, 0.0) == references([a, b], 0.0) == [a, b]

    def test_chain_keeps_the_far_end(self):
        # A suppresses B, which would have suppressed C; C only touches A
        a, b, c = (cand((x, 0.0, 0.0), 4.0, p) for x, p in ((0.0, 0.9), (2.0, 0.8), (4.0, 0.7)))
        for iou_thresh in (0.0, 0.25):
            assert nms([c, b, a], iou_thresh, 0.0) == references([c, b, a], iou_thresh) == [a, c]

    @pytest.mark.parametrize("iou_thresh", [0.0, 0.25, JUST_BELOW_ONE])
    def test_box_spanning_the_volume(self, iou_thresh):
        rng = np.random.default_rng(7)
        cands = random_candidates(rng, 60, span=96.0)
        for p in (1.0, 0.5):
            spanning = cand((48.0, 48.0, 48.0), 96.0, p)
            got = nms(cands + [spanning], iou_thresh, 0.0)
            assert got == references(cands + [spanning], iou_thresh)
            assert (len(got) == 1) == (iou_thresh == 0.0 and p == 1.0)

    @pytest.mark.parametrize("iou_thresh", [-0.5, float("nan")])
    def test_threshold_no_iou_meets(self, iou_thresh):
        rng = np.random.default_rng(5)
        cands = random_candidates(rng, 30)
        assert nms(cands, iou_thresh, 0.0) == references(cands, iou_thresh)[:1]

    def test_zero_volume_boxes_follow_box_iou(self):
        # a cube too small for its volume to be a float has IoU NaN with
        # another such cube however far apart, and NaN is not <= iou_thresh
        tiny = [cand((x, 5.0, 5.0), 1e-120, 0.9 - x / 100) for x in (1.0, 20.0, 40.0)]
        cands = tiny + [cand((20.0, 5.0, 5.0), 4.0, 0.5)]
        with np.errstate(invalid="ignore"):
            assert nms(cands, 0.25, 0.0) == greedy_nms_reference(
                cands, iou3d, _sort_key, 0.25, 0.0
            ) == [tiny[0], cands[3]]

    # the reference needs about 12 s for 2,000 candidates at JUST_BELOW_ONE
    @pytest.mark.parametrize(
        "n, span, iou_thresh",
        [(500, 12, 0.0), (2000, 16, 0.0), (500, 12, JUST_BELOW_ONE)],
    )
    def test_thresholds_at_scale(self, n, span, iou_thresh):
        rng = np.random.default_rng(n)
        cands = crowded_candidates(rng, n, span)
        cands = [cands[i] for i in rng.permutation(len(cands))]
        kept = nms(cands, iou_thresh=iou_thresh, prob_thresh=0.05)
        assert kept == greedy_nms_reference(
            cands, iou3d_reference, _sort_key, iou_thresh, 0.05
        )
        assert 0 < len(kept) < len(cands)


class TestMergeTiles:
    def test_single_tile_equals_nms(self):
        tile = PatchSpec((16, 0, 0), (96, 96, 96))
        rng = np.random.default_rng(37)
        cands = random_candidates(rng, 10)
        shifted = [replace(c, box=c.box.translated(tile.origin), source_tile=tile) for c in cands]
        assert merge_tiles([(tile, cands)]) == nms(shifted)

    def test_duplicate_across_tiles_suppressed(self):
        t1 = PatchSpec((0, 0, 0), (96, 96, 96))
        t2 = PatchSpec((80, 0, 0), (96, 96, 96))
        # same physical detection seen from both tiles
        a = cand((85.0, 10.0, 10.0), 6.0, 0.8)
        b = cand((5.0, 10.0, 10.0), 6.0, 0.7)
        merged = merge_tiles([(t1, [a]), (t2, [b])])
        assert len(merged) == 1
        assert merged[0].probability == 0.8
        assert merged[0].box.center == (85.0, 10.0, 10.0)

    def test_empty(self):
        assert merge_tiles([]) == []
        assert merge_tiles([(PatchSpec((0, 0, 0), (8, 8, 8)), [])]) == []

    def test_tile_order_invariant(self):
        rng = np.random.default_rng(41)
        tiles = [PatchSpec((o, 0, 0), (32, 32, 32)) for o in (0, 16, 32)]
        per_tile = [(t, random_candidates(rng, 6, span=32)) for t in tiles]
        base = merge_tiles(per_tile)
        assert merge_tiles(per_tile[::-1]) == base
        assert merge_tiles([per_tile[1], per_tile[2], per_tile[0]]) == base
