import math
import tracemalloc

import numpy as np
import pytest

from ctadet.anchors import (
    Anchor,
    AnchorGrid,
    AnchorStatus,
    BoundingBox,
    TargetVector,
    anchor_grid,
    assign_labels,
    box_bounds,
    box_contains,
    box_iou,
    cube_bounds,
    decode,
    encode,
    iou3d,
)
from oracles import (
    anchor_grid_reference,
    assign_labels_reference,
    contains_oracle,
    iou3d_oracle,
    iou3d_reference,
)


def grid_of(*anchors):
    """An AnchorGrid of the given anchors, in order: one grid point whose
    scales are the anchors."""
    sizes = [a.anchor_size for a in anchors]
    return AnchorGrid(1, 1, sizes, [a.position for a in anchors], sizes)


def grid_rows(grid):
    """Every row of ``grid`` as an Anchor, for the scalar references."""
    return [grid.anchor(i) for i in range(len(grid))]


def random_lattice_box(rng):
    # integer corners so the cell-counting oracle is exact
    lo = rng.integers(-8, 9, 3)
    d = int(rng.integers(1, 9))
    return BoundingBox(tuple(lo + d / 2.0), d)


class TestBoundingBox:
    def test_invalid_diameter(self):
        with pytest.raises(ValueError):
            BoundingBox((0, 0, 0), 0.0)

    @pytest.mark.parametrize("center, diameter", [
        ((0, 0, 0), math.nan),
        ((0, 0, 0), math.inf),
        ((0, math.nan, 0), 4.0),
        ((0, 0, -math.inf), 4.0),
    ])
    def test_non_finite_rejected(self, center, diameter):
        with pytest.raises(ValueError, match="finite"):
            BoundingBox(center, diameter)

    def test_contains_is_closed(self):
        box = BoundingBox((0, 0, 0), 4.0)
        assert box.contains((2.0, 0.0, 0.0))
        assert not box.contains((2.0000001, 0.0, 0.0))


class TestIou3d:
    def test_identical(self):
        b = BoundingBox((1.5, -2.0, 3.0), 4.2)
        assert iou3d(b, b) == 1.0

    def test_disjoint(self):
        a = BoundingBox((0, 0, 0), 4.0)
        b = BoundingBox((10, 0, 0), 4.0)
        assert iou3d(a, b) == 0.0

    def test_worked_example(self):
        a = BoundingBox((0, 0, 0), 4.0)
        b = BoundingBox((2, 0, 0), 4.0)
        # intersection 2*4*4 = 32, union 64 + 64 - 32 = 96
        assert iou3d(a, b) == pytest.approx(32 / 96, abs=1e-12)

    def test_matches_cell_counting_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            a = random_lattice_box(rng)
            b = random_lattice_box(rng)
            assert iou3d(a, b) == pytest.approx(float(iou3d_oracle(a, b)), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = BoundingBox(tuple(rng.uniform(-5, 5, 3)), rng.uniform(0.5, 8))
            b = BoundingBox(tuple(rng.uniform(-5, 5, 3)), rng.uniform(0.5, 8))
            v = iou3d(a, b)
            assert v == iou3d(b, a)
            assert 0.0 <= v <= 1.0
            assert iou3d(a, a) == 1.0


def kernel_test_boxes(rng):
    """300 boxes: continuous ones (overlapping, or apart on one or more
    axes), lattice ones (identical and face-touching pairs), nested pairs
    and pairs that overlap on two axes but are apart on the third."""
    boxes = [
        BoundingBox(tuple(rng.uniform(-6, 6, 3)), rng.uniform(0.5, 8))
        for _ in range(100)
    ]
    for _ in range(30):
        box = random_lattice_box(rng)
        shift = np.zeros(3)
        shift[rng.integers(3)] = box.diameter
        twin = BoundingBox(box.center, box.diameter)
        boxes += [box, twin, box.translated(shift), random_lattice_box(rng)]
    for _ in range(20):
        outer = BoundingBox(tuple(rng.uniform(-6, 6, 3)), rng.uniform(4, 8))
        inner = BoundingBox(
            tuple(outer.center + rng.uniform(-1, 1, 3)), outer.diameter / 3
        )
        shift = np.zeros(3)
        shift[rng.integers(3)] = outer.diameter + rng.uniform(0.0, 2.0)
        apart = BoundingBox(tuple(outer.center + shift), outer.diameter)
        boxes += [outer, inner, apart, outer.translated(rng.uniform(-1, 1, 3))]
    return boxes


class TestBoxKernel:
    """box_iou and box_contains against the scalar loops, bit for bit."""

    @pytest.fixture(scope="class")
    def case(self):
        boxes = kernel_test_boxes(np.random.default_rng(11))
        want = np.array([[iou3d_reference(a, b) for b in boxes] for a in boxes])
        return boxes, box_bounds(boxes), want

    def test_cases_present(self, case):
        boxes, _, want = case
        assert len(boxes) >= 300
        box, twin, touching = boxes[100:103]
        assert iou3d_reference(box, twin) == 1.0 and twin is not box
        assert iou3d_reference(box, touching) == 0.0
        assert sum(h == l for h, l in zip(box.hi, touching.lo)) == 1
        outer, inner, apart = boxes[220:223]
        assert all(l <= m for l, m in zip(outer.lo, inner.lo))
        assert all(m <= h for m, h in zip(inner.hi, outer.hi))
        assert iou3d_reference(outer, apart) == 0.0
        assert sum(h > l for h, l in zip(outer.hi, apart.lo)) == 2

    def test_all_pairs(self, case):
        _, bounds, want = case
        got = box_iou(bounds.take(np.s_[:, None]), bounds)
        assert got.tolist() == want.tolist()

    def test_one_to_many(self, case):
        boxes, bounds, want = case
        for i in range(len(boxes)):
            assert box_iou(bounds, bounds.take(i)).tolist() == want[:, i].tolist()

    def test_per_row(self, case):
        boxes, bounds, want = case
        a, b = np.divmod(np.random.default_rng(3).permutation(want.size), len(boxes))
        got = box_iou(bounds.take(a), bounds.take(b))
        assert got.tolist() == want[a, b].tolist()

    def test_pair_form(self, case):
        boxes, _, want = case
        for i in range(0, len(boxes), 30):
            assert [iou3d(boxes[i], b) for b in boxes] == want[i].tolist()

    def test_contains_closed_boundaries(self, case):
        boxes, bounds, _ = case
        boxes, bounds = boxes[100:220], bounds.take(np.s_[100:220])  # exact corners
        rng = np.random.default_rng(5)
        points = []
        for box in boxes:
            corner = np.where(rng.random(3) < 0.5, box.lo, box.hi)
            inside = np.array(box.center)
            mixed = np.where(rng.random(3) < 0.5, corner, inside)
            beyond = corner.copy()
            beyond[0] = np.nextafter(corner[0], corner[0] + (corner[0] - inside[0]))
            points += [corner, mixed, beyond]
        points = np.array(points)
        got = box_contains(bounds, points[:, None])
        want = [[contains_oracle(b, p) for b in boxes] for p in points.tolist()]
        assert got.tolist() == want
        for k in range(len(boxes)):  # its corner in, the nudged one out
            assert got[3 * k, k] and not got[3 * k + 2, k]
        for p, row in zip(points[::9].tolist(), want[::9]):
            assert [b.contains(p) for b in boxes] == row


class TestAnchorGrid:
    def test_default_count(self):
        grid = anchor_grid()
        assert len(grid) == 24 ** 3 * 3
        assert grid.position.shape == (len(grid), 3)
        assert grid.size.shape == grid.bounds.volume.shape == (len(grid),)

    def test_first_grid_point_position(self):
        grid = anchor_grid()
        assert grid.anchor(0).grid_index == (0, 0, 0)
        assert grid.anchor(0).position == (2.0, 2.0, 2.0)

    def test_unit_factor_positions(self):
        grid = anchor_grid(patch_size=96, grid_size=96, anchor_sizes=[5.0])
        assert grid.anchor(0).position == (0.5, 0.5, 0.5)
        assert grid.anchor(len(grid) - 1).position == (95.5, 95.5, 95.5)

    @pytest.mark.parametrize(
        "patch_size, grid_size, sizes",
        [(96, 24, (5.0, 10.0, 20.0)), (8, 4, [3, 6]), (96, 96, [5])],
    )
    def test_equals_reference(self, patch_size, grid_size, sizes):
        grid = anchor_grid(patch_size, grid_size, sizes)
        ref = anchor_grid_reference(patch_size, grid_size, sizes)
        assert len(grid) == len(ref)
        # sizes differ between scales, so equal sizes pin the scale order
        assert np.array_equal(grid.position, [a.position for a in ref])
        assert np.array_equal(grid.size, [a.anchor_size for a in ref])
        for i in range(0, len(ref), max(1, len(ref) // 2000)):
            assert grid.anchor(i) == ref[i]
            assert grid.row(ref[i].grid_index, ref[i].scale_index) == i

    def test_row_anchor_round_trip(self):
        grid = anchor_grid(patch_size=12, grid_size=3, anchor_sizes=[2.0, 4.0, 8.0])
        for i in range(len(grid)):
            anchor = grid.anchor(i)
            assert grid.row(anchor.grid_index, anchor.scale_index) == i
            assert anchor.position == tuple(grid.position[i].tolist())
            assert anchor.anchor_size == grid.sizes[anchor.scale_index] == grid.size[i]
            assert anchor.box == BoundingBox(anchor.position, anchor.anchor_size)
        for outside in (((3, 0, 0), 0), ((0, 0, 0), 3), ((0, -1, 0), 0)):
            with pytest.raises(ValueError):
                grid.row(*outside)
        with pytest.raises(ValueError):
            grid.anchor(len(grid))

    def test_len_is_anchor_count(self):
        assert len(anchor_grid(patch_size=8, grid_size=4, anchor_sizes=[3.0, 6.0])) == 128
        a = Anchor((0, 0, 0), (1.0, 2.0, 3.0), 4.0, 0)
        assert len(grid_of(a)) == 1 and len(grid_of(a, a, a)) == 3

    def test_arrays_refuse_writes(self):
        grid = anchor_grid(patch_size=8, grid_size=4, anchor_sizes=[3.0, 6.0])
        for arr in (grid.position, grid.size, *grid.bounds):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        position = np.zeros((1, 3))
        grid = AnchorGrid(1, 1, [2.0], position, [2.0])
        position[0, 0] = 5.0  # the grid holds a copy
        assert grid.position.tolist() == [[0.0, 0.0, 0.0]]

    def test_bounds_equal_cube_bounds(self):
        grid = anchor_grid()
        want = cube_bounds(grid.position, grid.size)
        assert grid.bounds is grid.bounds  # built once
        for got, exp in zip(grid.bounds, want):
            assert got.dtype == exp.dtype and got.shape == exp.shape
            assert got.tobytes() == exp.tobytes()
            assert not got.flags.writeable

    def test_default_build_peak_excludes_bounds(self):
        anchor_grid(patch_size=8, grid_size=4, anchor_sizes=[3.0, 6.0])  # evicts the default
        tracemalloc.start()
        try:
            grid = anchor_grid()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid's position and size copies are 1.27 MiB; building the
        # bounds here too (2.2 MiB held) peaked at 6.3 MiB
        assert peak <= 2 << 20, f"traced peak {peak / 2**20:.2f} MiB"
        assert "bounds" not in vars(grid)

    def test_indivisible_sizes_rejected(self):
        for _ in range(2):  # a failed build is not memoised
            with pytest.raises(ValueError):
                anchor_grid(patch_size=96, grid_size=25)

    def test_memoised_immutable_grid(self):
        from_list = anchor_grid(patch_size=8, grid_size=4, anchor_sizes=[3.0, 6.0])
        from_tuple = anchor_grid(patch_size=8, grid_size=4, anchor_sizes=(3.0, 6.0))
        assert isinstance(from_list, AnchorGrid)
        assert from_tuple is from_list
        assert anchor_grid(8, 4, [3, 6]) is from_list  # int sizes become floats
        assert from_list.sizes == (3.0, 6.0)
        with pytest.raises(ValueError):
            anchor_grid(8, 3, [3.0, 6.0])
        assert anchor_grid(8, 4, [3.0, 6.0]) is from_list  # the failure kept it

    def test_distinct_sizes_distinct_grids(self):
        small = anchor_grid(patch_size=8, grid_size=4, anchor_sizes=[3.0])
        both = anchor_grid(patch_size=8, grid_size=4, anchor_sizes=[3.0, 6.0])
        coarse = anchor_grid(patch_size=8, grid_size=2, anchor_sizes=[3.0])
        assert len(small) == 64 and len(both) == 128 and len(coarse) == 8
        assert set(small.size.tolist()) == {3.0}
        assert coarse.anchor(0).position == (2.0, 2.0, 2.0)


class TestEncodeDecode:
    def test_zero_case(self):
        a = Anchor((0, 0, 0), (48.0, 48.0, 48.0), 10.0, 1)
        t = encode(BoundingBox((48, 48, 48), 10.0), a, 1.0)
        assert t.as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_offset_example(self):
        a = Anchor((0, 0, 0), (48.0, 48.0, 48.0), 10.0, 1)
        t = encode(BoundingBox((53, 48, 48), 10.0), a, 0.8)
        assert t.as_tuple() == (0.8, 0.5, 0.0, 0.0, 0.0)

    def test_log_size_ratio(self):
        a = Anchor((0, 0, 0), (0.0, 0.0, 0.0), 10.0, 1)
        t = encode(BoundingBox((0, 0, 0), 10.0 * math.e), a, 0.5)
        assert t.ds == pytest.approx(1.0, abs=1e-12)

    def test_decode_zero_offsets(self):
        a = Anchor((0, 0, 0), (10.0, 20.0, 30.0), 20.0, 2)
        box, p = decode(TargetVector(0.9, 0, 0, 0, 0), a)
        assert box == BoundingBox((10.0, 20.0, 30.0), 20.0)
        assert p == 0.9

    def test_decode_ds_log2(self):
        a = Anchor((0, 0, 0), (0.0, 0.0, 0.0), 5.0, 0)
        box, _ = decode(TargetVector(0.5, 0, 0, 0, math.log(2.0)), a)
        assert box.diameter == pytest.approx(10.0, rel=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            anchor = Anchor(
                (0, 0, 0),
                tuple(rng.uniform(0, 96, 3)),
                float(rng.choice([5.0, 10.0, 20.0])),
                0,
            )
            box = BoundingBox(tuple(rng.uniform(0, 96, 3)), rng.uniform(0.5, 30))
            p = float(rng.uniform(0, 1))
            out_box, out_p = decode(encode(box, anchor, p), anchor)
            assert out_p == p
            for got, want in zip(out_box.center, box.center):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert out_box.diameter == pytest.approx(box.diameter, rel=1e-9)


class TestAssignLabels:
    def grid(self):
        return anchor_grid(patch_size=32, grid_size=8, anchor_sizes=[4.0, 8.0])

    def test_no_lesions_all_negative(self):
        labels = assign_labels(self.grid(), [])
        assert all(l.status is AnchorStatus.NEGATIVE for l in labels)

    def test_coincident_lesion_positive(self):
        lesion = self.grid().anchor(17).box
        labels = assign_labels(self.grid(), [lesion])
        assert labels[17].status is AnchorStatus.POSITIVE
        assert labels[17].matched_box == lesion
        assert labels[17].target.as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_borderline_iou_ignored(self):
        # build anchors so one has IoU exactly 1/3 with the lesion
        anchor = Anchor((0, 0, 0), (0.0, 0.0, 0.0), 4.0, 0)
        lesion = BoundingBox((2.0, 0.0, 0.0), 4.0)
        assert iou3d(anchor.box, lesion) == pytest.approx(1 / 3, abs=1e-12)
        labels = assign_labels(grid_of(anchor), [lesion])
        assert labels[0].status is AnchorStatus.IGNORED
        assert labels[0].matched_box is None

    def test_statuses_partition(self):
        rng = np.random.default_rng(3)
        grid = self.grid()
        lesions = [
            BoundingBox(tuple(rng.uniform(0, 32, 3)), rng.uniform(1, 10))
            for _ in range(4)
        ]
        labels = assign_labels(grid, lesions)
        assert len(labels) == len(grid)
        for label in labels:
            assert label.status in (
                AnchorStatus.POSITIVE,
                AnchorStatus.NEGATIVE,
                AnchorStatus.IGNORED,
            )

    def test_positive_set_invariant_under_lesion_permutation(self):
        rng = np.random.default_rng(5)
        grid = self.grid()
        lesions = [
            BoundingBox(tuple(rng.uniform(0, 32, 3)), rng.uniform(2, 12))
            for _ in range(5)
        ]
        a = assign_labels(grid, lesions)
        b = assign_labels(grid, lesions[::-1])
        assert [l.status for l in a] == [l.status for l in b]
        for la, lb in zip(a, b):
            if la.status is AnchorStatus.POSITIVE:
                # may differ only between exactly-tied lesions
                if la.matched_box != lb.matched_box:
                    anchor_box = grid.anchor(a.index(la)).box
                    assert iou3d(anchor_box, la.matched_box) == pytest.approx(
                        iou3d(anchor_box, lb.matched_box)
                    )

    def test_tie_broken_by_lowest_lesion_index(self):
        anchor = Anchor((0, 0, 0), (0.0, 0.0, 0.0), 4.0, 0)
        twin_a = BoundingBox((0.5, 0.0, 0.0), 4.0)
        twin_b = BoundingBox((-0.5, 0.0, 0.0), 4.0)
        labels = assign_labels(grid_of(anchor), [twin_a, twin_b])
        assert labels[0].status is AnchorStatus.POSITIVE
        assert labels[0].matched_box == twin_a

    def test_centered_lesion_positive_iff_iou_exceeds_half(self):
        # sweep diameters for a lesion centered on the anchor; status must
        # flip exactly where the IoU crosses the positive threshold
        anchor = Anchor((0, 0, 0), (16.0, 16.0, 16.0), 10.0, 1)
        for d in np.linspace(2.0, 30.0, 57):
            lesion = BoundingBox((16.0, 16.0, 16.0), float(d))
            status = assign_labels(grid_of(anchor), [lesion])[0].status
            v = iou3d(anchor.box, lesion)
            if v > 0.5:
                assert status is AnchorStatus.POSITIVE
            elif v < 0.02:
                assert status is AnchorStatus.NEGATIVE
            else:
                assert status is AnchorStatus.IGNORED


class TestAssignLabelsReference:
    """assign_labels against the anchors x lesions loop it replaced."""

    def grid(self):
        return anchor_grid(patch_size=24, grid_size=6, anchor_sizes=[4.0, 6.0, 10.0])

    def lesions(self, rng, n):
        # lattice boxes near the grid, so IoUs tie and hit exact fractions
        return [
            BoundingBox(
                tuple(rng.integers(0, 48, 3) / 2.0),
                float(rng.choice([4.0, 5.0, 6.0, 9.0])),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize(
        "pos_iou, neg_iou", [(0.5, 0.02), (1 / 3, 0.02), (0.5, 1 / 3)]
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_equals_reference(self, seed, pos_iou, neg_iou):
        rng = np.random.default_rng(seed)
        grid = self.grid()
        lesions = self.lesions(rng, 6)
        # twins on either side of anchor 0 tie; one sits at IoU exactly 1/3
        lesions += [
            BoundingBox((2.5, 2.0, 2.0), 4.0),
            BoundingBox((1.5, 2.0, 2.0), 4.0),
            BoundingBox((grid.anchor(0).position[0] + 2.0, 2.0, 2.0), 4.0),
        ]
        shuffled = [lesions[i] for i in rng.permutation(len(lesions))]
        for order in (lesions, lesions[::-1], shuffled):
            got = assign_labels(grid, order, pos_iou, neg_iou)
            assert got == assign_labels_reference(grid_rows(grid), order, pos_iou, neg_iou)
        assert {l.status for l in got} == set(AnchorStatus)

    def test_exact_third_and_ties_present(self):
        anchor = self.grid().anchor(0)
        twins = [BoundingBox((2.5, 2.0, 2.0), 4.0), BoundingBox((1.5, 2.0, 2.0), 4.0)]
        third = BoundingBox((4.0, 2.0, 2.0), 4.0)
        tied = [iou3d_reference(anchor.box, twin) for twin in twins]
        assert tied[0] == tied[1]
        assert iou3d_reference(anchor.box, third) == 1 / 3
        for pos_iou, neg_iou in [(1 / 3, 0.02), (0.5, 1 / 3)]:
            assert assign_labels(grid_of(anchor), [third], pos_iou, neg_iou) == \
                assign_labels_reference([anchor], [third], pos_iou, neg_iou)
        assert assign_labels(grid_of(anchor), twins)[0].matched_box == twins[0]

    def test_empty_lesion_list(self):
        grid = self.grid()
        assert assign_labels(grid, []) == assign_labels_reference(grid_rows(grid), [])

    @pytest.mark.parametrize("pos_iou, neg_iou", [(0.3, 0.3), (0.2, 0.5), (-0.5, -1.0)])
    def test_thresholds_outside_order_rejected(self, pos_iou, neg_iou):
        # a negative pos_iou would label every anchor positive
        with pytest.raises(ValueError, match="neg_iou"):
            assign_labels(self.grid(), [BoundingBox((2, 2, 2), 4.0)], pos_iou, neg_iou)
