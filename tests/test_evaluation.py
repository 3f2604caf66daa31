import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ctadet import evaluation
from ctadet.anchors import BoundingBox, Lesion
from ctadet.config import RunConfig, dump_json, load_json
from ctadet.evaluation import (
    EvalVolume,
    StatisticUndefined,
    avg_sensitivity,
    best_f1_threshold,
    bootstrap_ci,
    build_report,
    confusion_at_threshold,
    fisher_exact,
    froc,
    match_lesions,
    roc_auc,
    sensitivity_at_fppv,
    stratified_sensitivities,
    threshold_for_operating_point,
    volume_score,
    _FrocPool,
    _rank_auc,
    _score_arrays,
)
from ctadet.postproc import CandidateDetection
from oracles import (
    avg_sensitivity_oracle,
    best_f1_threshold_reference,
    contains_oracle,
    fisher_exact_reference,
    fisher_oracle,
    froc_oracle,
    match_oracle,
    sens_at_fppv_oracle,
)


def cand(center, p, d=4.0):
    return CandidateDetection(BoundingBox(center, d), p)


def lesion(center, d=6.0):
    return BoundingBox(center, d)


def random_volume_data(rng, n_lesions=None, n_cands=None, span=60.0):
    n_lesions = int(rng.integers(0, 4)) if n_lesions is None else n_lesions
    n_cands = int(rng.integers(0, 7)) if n_cands is None else n_cands
    lesions = [
        lesion(tuple(rng.uniform(5, span, 3)), float(rng.uniform(3, 10)))
        for _ in range(n_lesions)
    ]
    cands = []
    for _ in range(n_cands):
        if lesions and rng.random() < 0.5:
            target = lesions[int(rng.integers(len(lesions)))]
            center = tuple(
                float(np.clip(c + rng.uniform(-1, 1), 0, span)) for c in target.center
            )
        else:
            center = tuple(rng.uniform(0, span, 3))
        cands.append(cand(center, float(rng.uniform(0, 1))))
    return lesions, cands


def boundary_volume_data(rng):
    """Lattice lesions, some in overlapping pairs, and candidates centered
    on their faces, edges and corners, inside two lesions at once, or one
    ulp outside a face; probabilities tie often."""
    lesions = []
    for _ in range(int(rng.integers(1, 4))):
        box = lesion(
            tuple(rng.integers(20, 60, 3) / 2.0), float(rng.choice([3.0, 4.0, 6.0]))
        )
        lesions.append(box)
        if rng.random() < 0.5:
            lesions.append(box.translated(rng.integers(-4, 5, 3) / 2.0))
    cands = []
    for _ in range(int(rng.integers(1, 8))):
        a, b = (lesions[int(i)] for i in rng.integers(len(lesions), size=2))
        lo = np.maximum(a.lo, b.lo)
        hi = np.minimum(a.hi, b.hi)
        if (lo > hi).any():  # no common point: use a's own box
            lo, hi = np.array(a.lo), np.array(a.hi)
        pick = rng.integers(3, size=3)  # lo face, hi face or midpoint per axis
        center = np.choose(pick, [lo, hi, (lo + hi) / 2.0])
        if rng.random() < 0.2:
            ax = int(rng.integers(3))
            center[ax] = np.nextafter(center[ax], np.inf if pick[ax] == 1 else -np.inf)
        cands.append(cand(tuple(center.tolist()), float(rng.choice([0.2, 0.5, 0.9]))))
    return lesions, cands


class TestMatchLesions:
    def test_center_hit(self):
        box = lesion((10, 10, 10))
        m = match_lesions([cand((10, 10, 10), 0.9)], [box])
        assert m.candidate_is_tp == (True,)
        assert m.lesion_hit_probs == (0.9,)

    def test_boundary_center_counts(self):
        box = lesion((10.0, 10.0, 10.0), 6.0)
        m = match_lesions([cand((13.0, 10.0, 10.0), 0.5)], [box])
        assert m.candidate_is_tp == (True,)

    def test_two_in_one_lesion_plus_background_fp(self):
        box = lesion((10, 10, 10))
        cands = [
            cand((10, 10, 10), 0.9),
            cand((11, 10, 10), 0.7),
            cand((50, 50, 50), 0.8),
        ]
        m = match_lesions(cands, [box])
        assert m.candidate_is_tp.tolist() == [True, True, False]
        assert m.fp_probs.tolist() == [0.8]
        assert m.lesion_hit_probs.tolist() == [0.9]

    def test_candidate_in_two_overlapping_lesions_hits_both(self):
        a = lesion((10.0, 10.0, 10.0), 6.0)
        b = lesion((12.0, 10.0, 10.0), 6.0)
        m = match_lesions([cand((11.0, 10.0, 10.0), 0.6)], [a, b])
        assert m.lesion_hit_probs.tolist() == [0.6, 0.6]
        assert m.candidate_is_tp.tolist() == [True]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(400):
            lesions, cands = random_volume_data(rng)
            m = match_lesions(cands, lesions)
            is_tp, hit_probs = match_oracle(cands, lesions)
            assert list(m.candidate_is_tp) == is_tp
            assert list(m.lesion_hit_probs) == hit_probs

    def test_matches_oracle_on_boundaries_and_overlaps(self):
        rng = np.random.default_rng(23)
        on_face = in_two = 0
        for _ in range(300):
            lesions, cands = boundary_volume_data(rng)
            m = match_lesions(cands, lesions)
            is_tp, hit_probs = match_oracle(cands, lesions)
            assert list(m.candidate_is_tp) == is_tp
            assert list(m.lesion_hit_probs) == hit_probs
            for c in cands:
                hits = [b for b in lesions if contains_oracle(b, c.box.center)]
                in_two += len(hits) >= 2
                on_face += any(
                    p in (l, h)
                    for b in hits
                    for p, l, h in zip(c.box.center, b.lo, b.hi)
                )
        assert on_face > 100 and in_two > 100


class TestFroc:
    def worked_example(self):
        # volume 1: one lesion hit at 0.9 plus a background FP at 0.6
        # volume 2: one lesion hit at 0.4
        v1_lesions = [lesion((10, 10, 10))]
        v1_cands = [cand((10, 10, 10), 0.9), cand((40, 40, 40), 0.6)]
        v2_lesions = [lesion((20, 20, 20))]
        v2_cands = [cand((20, 20, 20), 0.4)]
        return [(v1_lesions, v1_cands), (v2_lesions, v2_cands)]

    def test_worked_example_points(self):
        curve = froc(self.worked_example())
        assert curve.thresholds == (0.9, 0.6, 0.4)
        assert curve.points == ((0.0, 0.5), (0.5, 0.5), (0.5, 1.0))
        assert curve.n_volumes == 2 and curve.n_lesions == 2

    def test_perfect_oracle_contains_origin_point(self):
        dataset = [([lesion((10, 10, 10))], [cand((10, 10, 10), 1.0)])]
        curve = froc(dataset)
        assert (0.0, 1.0) in curve.points

    def test_wired_perfect_detector_hits_origin(self):
        # detector stand-in with no misses and no injected false positives
        from ctadet.config import RunConfig
        from ctadet.synth import generate_phantom, oracle_detect

        dataset = []
        for i in range(4):
            _, lesions = generate_phantom(
                RunConfig(seed=900 + i, n_aneurysms=2), f"w{i}"
            )
            boxes = [l.box for l in lesions]
            cands = oracle_detect(boxes, RunConfig(), i, (128, 128, 96))
            dataset.append((boxes, cands))
        curve = froc(dataset)
        assert (0.0, 1.0) in curve.points
        assert sensitivity_at_fppv(curve, 0.0) == 1.0

    def test_all_false_positives_zero_sensitivity(self):
        dataset = [([lesion((10, 10, 10))], [cand((50, 50, 50), p) for p in (0.9, 0.5)])]
        curve = froc(dataset)
        assert all(s == 0.0 for _, s in curve.points)

    def test_zero_lesions_rejected(self):
        with pytest.raises(StatisticUndefined):
            froc([([], [cand((1, 1, 1), 0.5)])])

    def test_negative_volumes_count_in_fppv_denominator(self):
        dataset = self.worked_example() + [([], [cand((5, 5, 5), 0.6)])] * 2
        curve = froc(dataset)
        assert curve.n_volumes == 4
        # at 0.6: one v1 FP + two negative-volume FPs over 4 volumes
        idx = curve.thresholds.index(0.6)
        assert curve.points[idx] == (0.75, 0.5)

    def test_matches_oracle_and_monotone_on_random_sets(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dataset = [random_volume_data(rng) for _ in range(int(rng.integers(1, 5)))]
            if sum(len(l) for l, _ in dataset) == 0:
                continue
            curve = froc(dataset)
            thresholds, points = froc_oracle(dataset)
            assert list(curve.thresholds) == thresholds
            for got, want in zip(curve.points, points):
                assert got[0] == pytest.approx(want[0], abs=1e-12)
                assert got[1] == pytest.approx(want[1], abs=1e-12)
            fppvs = [f for f, _ in curve.points]
            senss = [s for _, s in curve.points]
            assert fppvs == sorted(fppvs)
            assert senss == sorted(senss)


class TestSensitivityAtFppv:
    def curve(self):
        return froc(TestFroc().worked_example())

    def test_step_lookup(self):
        c = self.curve()
        assert sensitivity_at_fppv(c, 0.5) == 1.0
        assert sensitivity_at_fppv(c, 0.25) == 0.5

    def test_below_reachable_is_zero(self):
        dataset = [([lesion((10, 10, 10))], [cand((10, 10, 10), 0.5), cand((50, 50, 50), 0.5)])]
        c = froc(dataset)
        assert sensitivity_at_fppv(c, 0.25) == 0.0

    def test_monotone_in_query(self):
        c = self.curve()
        values = [sensitivity_at_fppv(c, q) for q in (0, 0.1, 0.25, 0.5, 1, 2)]
        assert values == sorted(values)

    def test_perfect_curve(self):
        c = froc([([lesion((10, 10, 10))], [cand((10, 10, 10), 1.0)])])
        for q in (0, 0.125, 1, 8):
            assert sensitivity_at_fppv(c, q) == 1.0


class TestAvgSensitivity:
    def test_perfect_is_one(self):
        c = froc([([lesion((10, 10, 10))], [cand((10, 10, 10), 1.0)])])
        assert avg_sensitivity(c) == 1.0

    def test_miss_everything_is_zero(self):
        c = froc([([lesion((10, 10, 10))], [cand((50, 50, 50), 0.9)])])
        assert avg_sensitivity(c) == 0.0

    def test_matches_scripted_oracle(self):
        rng = np.random.default_rng(29)
        grid = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        for _ in range(100):
            dataset = [random_volume_data(rng) for _ in range(int(rng.integers(1, 6)))]
            if sum(len(l) for l, _ in dataset) == 0:
                continue
            got = avg_sensitivity(froc(dataset), grid)
            want = avg_sensitivity_oracle(dataset, grid)
            assert got == pytest.approx(want, abs=1e-12)

    def test_one_iff_full_sensitivity_at_smallest_budget(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            dataset = [random_volume_data(rng) for _ in range(int(rng.integers(1, 5)))]
            if sum(len(l) for l, _ in dataset) == 0:
                continue
            curve = froc(dataset)
            avg = avg_sensitivity(curve)
            assert 0.0 <= avg <= 1.0
            assert (avg == 1.0) == (sensitivity_at_fppv(curve, 0.125) == 1.0)


class TestThresholdForOperatingPoint:
    def test_worked_example(self):
        c = froc(TestFroc().worked_example())
        assert threshold_for_operating_point(c, 0.25) == 0.9

    def test_perfect_oracle_returns_its_probability(self):
        c = froc([([lesion((10, 10, 10))], [cand((10, 10, 10), 1.0)])])
        assert threshold_for_operating_point(c, 0.25) == 1.0

    def test_unbounded_budget_returns_minimum(self):
        c = froc(TestFroc().worked_example())
        assert threshold_for_operating_point(c, math.inf) == 0.4

    def test_infeasible_target_returns_inf(self):
        dataset = [([lesion((10, 10, 10))], [cand((10, 10, 10), 0.5), cand((50, 50, 50), 0.5)])]
        c = froc(dataset)
        assert threshold_for_operating_point(c, 0.25) == math.inf


class TestVolumeScore:
    def test_empty_is_zero(self):
        assert volume_score([]) == 0.0

    def test_max(self):
        assert volume_score([cand((1, 1, 1), 0.2), cand((2, 2, 2), 0.7)]) == 0.7

    def test_order_invariant(self):
        a = [cand((1, 1, 1), 0.2), cand((2, 2, 2), 0.7)]
        assert volume_score(a) == volume_score(a[::-1])


class TestRocAuc:
    def test_perfect_separation(self):
        scores = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
        _, auc = roc_auc(scores)
        assert auc == 1.0

    def test_all_ties_half(self):
        scores = [(0.5, True), (0.5, False), (0.5, True), (0.5, False)]
        _, auc = roc_auc(scores)
        assert auc == 0.5

    def test_worked_example(self):
        scores = [(0.9, True), (0.4, True), (0.6, False), (0.1, False)]
        _, auc = roc_auc(scores)
        assert auc == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(StatisticUndefined):
            roc_auc([(0.5, True), (0.9, True)])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(31)
        scores = [(float(rng.uniform(0, 1)), bool(rng.random() < 0.5)) for _ in range(60)]
        if not any(f for _, f in scores):
            scores[0] = (scores[0][0], True)
        if all(f for _, f in scores):
            scores[1] = (scores[1][0], False)
        _, base = roc_auc(scores)
        for transform in (lambda s: s ** 3, lambda s: 0.1 + 0.5 * s, math.exp):
            _, t = roc_auc([(transform(s), f) for s, f in scores])
            assert t == pytest.approx(base, abs=1e-12)

    def test_rank_auc_equals_trapezoid(self):
        rng = np.random.default_rng(37)
        scores = [(float(rng.choice([0.1, 0.3, 0.5, 0.9])), bool(rng.random() < 0.4))
                  for _ in range(50)]
        if not any(f for _, f in scores):
            scores[0] = (scores[0][0], True)
        if all(f for _, f in scores):
            scores[1] = (scores[1][0], False)
        curve, auc = roc_auc(scores)
        xs = [0.0] + [f for f, _ in curve.points]
        ys = [0.0] + [t for _, t in curve.points]
        trapezoid = sum(
            (x1 - x0) * (y0 + y1) / 2.0 for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
        )
        assert auc == pytest.approx(trapezoid, abs=1e-12)


class TestConfusion:
    def test_formula_example(self):
        scores = [(0.8, True)] * 3 + [(0.2, True)] + [(0.8, False)] + [(0.2, False)] * 3
        m = confusion_at_threshold(scores, 0.5)
        assert (m.tp, m.fp, m.tn, m.fn) == (3, 1, 3, 1)
        assert m.accuracy == m.sensitivity == m.specificity == m.f1 == 0.75

    def test_threshold_above_all(self):
        scores = [(0.4, True), (0.3, False)]
        m = confusion_at_threshold(scores, 0.9)
        assert m.sensitivity == 0.0 and m.specificity == 1.0

    def test_threshold_below_all(self):
        scores = [(0.4, True), (0.3, False)]
        m = confusion_at_threshold(scores, 0.1)
        assert m.sensitivity == 1.0 and m.specificity == 0.0

    def test_inclusive_rule(self):
        scores = [(0.5, True), (0.4, False)]
        assert confusion_at_threshold(scores, 0.5).tp == 0
        assert confusion_at_threshold(scores, 0.5, inclusive=True).tp == 1


class TestBestF1:
    def test_perfect_separation(self):
        scores = [(0.9, True), (0.8, True), (0.2, False)]
        t, m = best_f1_threshold(scores)
        assert m.f1 == 1.0
        assert 0.2 <= t < 0.8

    def test_single_positive_on_top(self):
        scores = [(0.9, True), (0.5, False), (0.4, False)]
        t, m = best_f1_threshold(scores)
        assert m.f1 == 1.0 and t == 0.5

    def test_requires_a_positive(self):
        with pytest.raises(ValueError):
            best_f1_threshold([(0.5, False)])

    def test_matches_bruteforce_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            scores = [
                (float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])), bool(rng.random() < 0.5))
                for _ in range(int(rng.integers(2, 15)))
            ]
            if not any(f for _, f in scores):
                scores[0] = (scores[0][0], True)
            t, m = best_f1_threshold(scores)
            # brute force over a dense threshold sweep
            best = 0.0
            for tt in np.linspace(-1, 1, 401):
                mm = confusion_at_threshold(scores, float(tt))
                if not math.isnan(mm.f1):
                    best = max(best, mm.f1)
            assert m.f1 == pytest.approx(best, abs=1e-12)
            # ties break toward the higher threshold
            better_or_equal = [
                float(tt) for tt in sorted({s for s, _ in scores})
                if confusion_at_threshold(scores, float(tt)).f1 == m.f1
            ]
            if better_or_equal:
                assert t == max(better_or_equal)


    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_sweep_equals_reference_loop(self, seed):
        # tied scores, one-class sets, and scores where ``min - 1.0`` rounds
        # back to the minimum, so the accept-all threshold accepts nothing
        rng = np.random.default_rng([seed, 17])
        for _ in range(200):
            n = int(rng.integers(1, 30))
            levels = [rng.uniform(0, 1, 4), rng.uniform(0, 1, 40),
                      np.array([1e17, 2e17, 3e17])][int(rng.integers(3))]
            positive = float(rng.choice([0.0, 0.3, 1.0]))  # 0 and 1: one class
            scores = [(float(rng.choice(levels)), bool(rng.random() < positive))
                      for _ in range(n)]
            try:
                expected = best_f1_threshold_reference(scores)
            except ValueError:
                with pytest.raises(ValueError):
                    best_f1_threshold(scores)
                continue
            got = best_f1_threshold(scores)
            assert got == expected
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, expected[0])


class TestBootstrap:
    @staticmethod
    def mean(items):
        return float(np.mean(items))

    def test_degenerate_dataset_zero_width(self):
        lo, hi = bootstrap_ci(self.mean, [3.0] * 12, n_resamples=200, seed=5)
        assert lo == hi == 3.0

    def test_ci_within_attained_range(self):
        rng = np.random.default_rng(43)
        data = list(rng.normal(0, 1, 30))
        lo, hi = bootstrap_ci(self.mean, data, n_resamples=300, seed=7)
        assert min(data) <= lo <= hi <= max(data)

    def test_cross_implementation_oracle(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        seed, n_resamples = 99, 500
        got = bootstrap_ci(self.mean, data, n_resamples=n_resamples, seed=seed)
        # independent reimplementation with the documented seed derivation
        values = []
        for i in range(n_resamples):
            rng = np.random.default_rng([seed, i, 0])
            idx = rng.integers(0, len(data), len(data))
            values.append(np.mean([data[j] for j in idx]))
        lo, hi = np.percentile(values, [2.5, 97.5])
        assert got == (float(lo), float(hi))

    def test_reproducible(self):
        data = list(np.random.default_rng(0).normal(0, 1, 20))
        a = bootstrap_ci(self.mean, data, seed=11)
        b = bootstrap_ci(self.mean, data, seed=11)
        assert a == b

    def test_width_shrinks_with_dataset_size(self):
        rng = np.random.default_rng(47)
        small = list(rng.normal(0, 1, 20))
        large = list(rng.normal(0, 1, 2000))
        lo_s, hi_s = bootstrap_ci(self.mean, small, n_resamples=300, seed=1)
        lo_l, hi_l = bootstrap_ci(self.mean, large, n_resamples=300, seed=1)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_undefined_resamples_redrawn(self):
        calls = {"n": 0}

        def fussy(items):
            calls["n"] += 1
            if sum(items) % 2 == 1:
                raise StatisticUndefined("odd sum")
            return float(sum(items))

        lo, hi = bootstrap_ci(fussy, [1, 2, 3, 4], n_resamples=50, seed=3)
        assert calls["n"] > 50  # some resamples were redrawn
        # attainable even sums of four draws from {1..4} span [4, 16]
        assert 4 <= lo <= hi <= 16

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci(self.mean, [], seed=0)


def reference_weights(seed, rows, attempt, n):
    """Per row: the volume counts of ``default_rng([seed, i, attempt])``'s draw."""
    return np.array(
        [np.bincount(np.random.default_rng([seed, int(i), attempt]).integers(0, n, n),
                     minlength=n) for i in rows],
        dtype=np.int64,
    ).reshape(len(rows), n)


class TestResampleWeights:
    """The array draw kernel equals ``default_rng`` plus ``bincount`` bit
    for bit; it reimplements SeedSequence, PCG64 and numpy's Lemire draw."""

    ROWS = np.array([0, 1, 2, 999, 2**31 + 7, 2**32 - 1])

    # one-word seeds, then seeds with two and three words: with the row and
    # the attempt they fill SeedSequence's four-word pool or overflow it
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 200, 65537])
    @pytest.mark.parametrize("attempt", [0, 1, 99])
    def test_equals_default_rng(self, seed, n, attempt):
        got = evaluation._resample_weights(seed, self.ROWS, attempt, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_weights(seed, self.ROWS, attempt, n))

    def test_many_rows_and_sizes(self):
        rows = np.arange(0, 3000, 7)
        for n in range(1, 40):
            got = evaluation._resample_weights(12345, rows, 3, n)
            assert np.array_equal(got, reference_weights(12345, rows, 3, n))

    @pytest.mark.parametrize("spare, fallback", [(0, False), (-1, True)])
    def test_forced_margin(self, monkeypatch, spare, fallback):
        # spare 0: the draws hold exactly the values an even n needs; spare
        # -1: every row is short and must come from the scalar draw
        drawn = []
        draw = evaluation._draw

        def counted_draw(seed, i, attempt, n):
            drawn.append(i)
            return draw(seed, i, attempt, n)

        monkeypatch.setattr(evaluation, "_SPARE_OUTPUTS", spare)
        monkeypatch.setattr(evaluation, "_draw", counted_draw)
        for n in (1, 2, 3, 200, 201):
            drawn.clear()
            got = evaluation._resample_weights(2**33 + 5, self.ROWS, 4, n)
            assert np.array_equal(got, reference_weights(2**33 + 5, self.ROWS, 4, n))
            assert drawn == (self.ROWS.tolist() if fallback else [])

    def test_rows_beyond_one_word_fall_back(self):
        rows = np.array([2**32 - 1, 2**32, 2**40 + 3])
        assert np.array_equal(evaluation._resample_weights(9, rows, 0, 5),
                              reference_weights(9, rows, 0, 5))

    def test_no_rows(self):
        assert evaluation._resample_weights(0, np.arange(0), 0, 4).shape == (0, 4)

    def test_negative_seed_rejected_like_default_rng(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 0, 0])
        with pytest.raises(ValueError):
            evaluation._resample_weights(-1, self.ROWS, 0, 3)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# every size up to 200, where the sort and partition kernels switch
# strategies, then a spread up to 2,000
SIZES = [*range(1, 200), *range(200, 2001, 61), 2000]


def _samples(n: int):
    """Float samples of size n: distinct, heavily tied, tied around zero,
    and mixed -0.0/0.0 ties."""
    rng = np.random.default_rng(n)
    yield rng.random(n)
    yield rng.integers(0, 5, n) / 4.0
    yield np.round(rng.normal(size=n), 1)
    yield rng.choice([-0.0, 0.0, 0.5], n)


class TestNumpyBits:
    """The sort-based unique and the percentile in numpy's ``linear``
    arithmetic equal ``np.unique`` and ``np.percentile`` bit for bit; the
    numpy calls would import ``numpy.ma``."""

    def test_distinct_sorted_equals_unique(self):
        for n in SIZES:
            for values in _samples(n):
                assert _same_bits(evaluation._distinct_sorted(values), np.unique(values)), n
        listed = _samples(300).__next__().tolist()
        assert _same_bits(evaluation._distinct_sorted(listed), np.unique(listed))
        assert _same_bits(evaluation._distinct_sorted([]), np.unique([]))

    @pytest.mark.parametrize("pair", [[-0.0, 0.0], [0.0, -0.0]])
    def test_signed_zero_pair(self, pair):
        got, want = evaluation._distinct_sorted(pair), np.unique(pair)
        assert _same_bits(got, want)
        assert np.signbit(got).tolist() == np.signbit(want).tolist()
        for level in (0.5, 0.9):
            alpha = 100.0 * (1.0 - level) / 2.0
            assert _same_bits(evaluation._percentile_ci(np.array(pair), level),
                              np.percentile(pair, [alpha, 100.0 - alpha]))

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
    def test_percentile_ci_equals_percentile(self, level):
        alpha = 100.0 * (1.0 - level) / 2.0
        for n in SIZES:
            for values in _samples(n):
                want = np.percentile(values, [alpha, 100.0 - alpha])
                assert _same_bits(evaluation._percentile_ci(values, level), want), n

    def test_percentile_ci_leaves_input_and_reads_nan_like_numpy(self):
        values = np.array([0.3, np.nan, 0.1, 0.2])
        kept = values.copy()
        got = evaluation._percentile_ci(values, 0.9)
        assert _same_bits(values, kept)
        assert all(math.isnan(v) for v in got)
        assert np.isnan(np.percentile(values, [5.0, 95.0])).all()


class TestBootstrapMemory:
    def test_peak_bounded_by_block_cells(self):
        # the two statistics build_report bootstraps, on 500 volumes
        rng = np.random.default_rng(59)
        vols = []
        for i in range(500):
            lesions, cands = random_volume_data(rng)
            vols.append(EvalVolume(f"v{i}", tuple(Lesion(b) for b in lesions), tuple(cands)))
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        pool = _FrocPool(matches)
        values, flags = _score_arrays([(volume_score(v.candidates), v.has_lesion)
                                       for v in vols])
        statistics = [lambda w: pool.avg_sensitivity(w, RunConfig.fppv_grid),
                      lambda w: _rank_auc(values, flags, w)]
        width = sum(len(v.candidates) for v in vols) + 1
        peaks = {}
        tracemalloc.start()
        try:
            for n_resamples in (300, 3000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                evaluation._bootstrap_cis(statistics, len(vols), width, n_resamples, 0.95, 0)
                peaks[n_resamples] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # only the two CIs' value arrays and their percentile copies grow
        assert abs(peaks[3000] - peaks[300]) <= 32 * (3000 - 300)
        assert peaks[3000] <= 10 * evaluation._BOOTSTRAP_CELLS * 8


class TestArrayStatistics:
    """The array statistics that build_report bootstraps equal, bit for bit,
    the reference path that rebuilds the curve from the resampled volumes."""

    @staticmethod
    def volumes(seed):
        rng = np.random.default_rng(seed)
        vols = []
        for i in range(int(rng.integers(3, 25))):
            # lesion-free volumes and volumes without candidates both occur
            lesions, cands = random_volume_data(rng)
            tied = tuple(cand(c.box.center, round(c.probability, 1)) for c in cands)
            vols.append(EvalVolume(f"v{i}", tuple(Lesion(b) for b in lesions), tied))
        twin = (Lesion(lesion((20.0, 20.0, 20.0), 8.0)),
                Lesion(lesion((22.0, 20.0, 20.0), 8.0)))
        vols.append(EvalVolume("twin", twin, (cand((21.0, 20.0, 20.0), 0.5),)))
        return vols

    @staticmethod
    def reference_avg(matches, idx):
        return avg_sensitivity(_FrocPool([matches[j] for j in idx]).curve(len(idx)))

    @staticmethod
    def reference_auc(scores, idx):
        return roc_auc([scores[j] for j in idx])[1]

    @staticmethod
    def assert_rows_equal(reference, block, rows):
        """Row r of ``block`` is NaN where ``reference(rows[r])`` is
        undefined and equals it bit for bit elsewhere."""
        for idx, got in zip(rows, block.tolist()):
            try:
                expected = reference(idx)
            except StatisticUndefined:
                assert math.isnan(got)
            else:
                assert got == expected

    @staticmethod
    def statistics(vols):
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        scores = [(volume_score(v.candidates), v.has_lesion) for v in vols]
        return matches, scores, _FrocPool(matches), _score_arrays(scores)

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_to_reference_on_resamples(self, seed):
        vols = self.volumes(seed)
        n = len(vols)
        matches, scores, pool, (values, flags) = self.statistics(vols)
        rng = np.random.default_rng([seed, 1])
        rows = [list(rng.integers(0, n, n)) for _ in range(150)]
        w = np.array([np.bincount(idx, minlength=n) for idx in rows])
        grid = RunConfig.fppv_grid
        self.assert_rows_equal(
            lambda idx: self.reference_avg(matches, idx), pool.avg_sensitivity(w, grid), rows
        )
        self.assert_rows_equal(
            lambda idx: self.reference_auc(scores, idx), _rank_auc(values, flags, w), rows
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_equal_brute_force(self, seed):
        vols = self.volumes(seed)
        matches, _, pool, _ = self.statistics(vols)
        # probabilities rounded to 0.1 tie within and across volumes
        assert len(pool.thresholds) < sum(len(m.candidate_probs) for m in matches)
        w = np.random.default_rng([seed, 2]).integers(0, 4, (30, len(vols)))
        fps, hits, n_lesions = pool.counts(w)
        assert fps.shape == hits.shape == (len(w), len(pool.thresholds) + 1)
        for r, row in enumerate(w.tolist()):
            assert fps[r, 0] == hits[r, 0] == 0  # at +inf
            for k, t in enumerate(pool.thresholds.tolist(), 1):
                assert fps[r, k] == sum(wj * int(np.count_nonzero(m.fp_probs >= t))
                                        for wj, m in zip(row, matches))
                assert hits[r, k] == sum(wj * int(np.count_nonzero(m.lesion_hit_probs >= t))
                                         for wj, m in zip(row, matches))
            assert n_lesions[r] == sum(wj * m.n_lesions for wj, m in zip(row, matches))

    def test_undefined_on_the_same_resamples(self):
        vols = self.volumes(3)
        n = len(vols)
        matches, scores, pool, (values, flags) = self.statistics(vols)
        lesion_free = [j for j, v in enumerate(vols) if not v.has_lesion] * n
        positive = [j for j, v in enumerate(vols) if v.has_lesion] * n
        assert lesion_free and positive
        no_lesions = lesion_free[:n]
        with pytest.raises(StatisticUndefined):
            self.reference_avg(matches, no_lesions)
        w = np.array([np.bincount(idx, minlength=n) for idx in (no_lesions, positive[:n])])
        assert np.isnan(pool.avg_sensitivity(w[:1], (1.0,))).all()
        assert not np.isnan(pool.avg_sensitivity(w[1:], (1.0,))).any()
        for one_class in (no_lesions, positive[:n]):
            with pytest.raises(StatisticUndefined):
                self.reference_auc(scores, one_class)
        assert np.isnan(_rank_auc(values, flags, w)).all()

    def test_unit_weight_row_is_the_curve(self):
        vols = self.volumes(5)
        matches, scores, pool, (values, flags) = self.statistics(vols)
        ones = np.ones((1, len(vols)), dtype=np.int64)
        curve = pool.curve(len(vols))
        assert pool.avg_sensitivity(ones, RunConfig.fppv_grid).tolist() == [
            avg_sensitivity(curve)
        ]
        assert _rank_auc(values, flags, ones).tolist() == [roc_auc(scores)[1]]

    @pytest.mark.parametrize("seed", range(3))
    def test_report_cis_equal_reference_bootstrap(self, seed):
        vols = self.volumes(seed)
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        scores = [(volume_score(v.candidates), v.has_lesion) for v in vols]
        report = build_report(vols, n_resamples=200, seed=seed)
        ref = lambda ms: avg_sensitivity(_FrocPool(ms).curve(len(ms)))
        assert report["avg_sensitivity"]["ci"] == list(
            bootstrap_ci(ref, matches, 200, seed=seed)
        )
        assert report["auc"]["ci"] == list(bootstrap_ci(
            lambda s: roc_auc(s)[1], scores, 200, seed=seed
        ))

    # one row per block, ragged blocks of several rows, one block in all
    @pytest.mark.parametrize("cells", [1, 1000, 1 << 30])
    def test_report_cis_independent_of_block_size(self, monkeypatch, cells):
        vols = self.volumes(6)
        matches, scores, _, _ = self.statistics(vols)
        monkeypatch.setattr(evaluation, "_BOOTSTRAP_CELLS", cells)
        report = build_report(vols, n_resamples=300, seed=2)
        ref = lambda ms: avg_sensitivity(_FrocPool(ms).curve(len(ms)))
        assert report["avg_sensitivity"]["ci"] == list(bootstrap_ci(ref, matches, 300, seed=2))
        assert report["auc"]["ci"] == list(
            bootstrap_ci(lambda s: roc_auc(s)[1], scores, 300, seed=2)
        )

    def test_two_volumes_one_lesion_free(self, monkeypatch):
        # a quarter of the rows weight no lesion and half hold one class only
        vols = [
            EvalVolume("pos", (Lesion(lesion((10.0, 10.0, 10.0))),),
                       (cand((10.0, 10.0, 10.0), 0.7), cand((40.0, 40.0, 40.0), 0.4))),
            EvalVolume("neg", (), (cand((30.0, 30.0, 30.0), 0.6),)),
        ]
        attempts = collections.Counter()  # attempt -> rows drawn for it
        kernel = evaluation._resample_weights

        def counted_kernel(seed, rows, attempt, n):
            attempts[attempt] += len(rows)
            return kernel(seed, rows, attempt, n)

        monkeypatch.setattr(evaluation, "_resample_weights", counted_kernel)
        report = build_report(vols, n_resamples=400, seed=8)
        monkeypatch.undo()
        assert attempts[0] == 400  # attempt 0 is drawn once for both CIs
        assert attempts.total() > 600
        matches, scores, _, _ = self.statistics(vols)
        ref = lambda ms: avg_sensitivity(_FrocPool(ms).curve(len(ms)))
        assert report["avg_sensitivity"]["ci"] == list(bootstrap_ci(ref, matches, 400, seed=8))
        assert report["auc"]["ci"] == list(
            bootstrap_ci(lambda s: roc_auc(s)[1], scores, 400, seed=8)
        )

    @pytest.mark.parametrize("cells", [1, 1 << 15])
    def test_exhausted_retries_same_error(self, monkeypatch, cells):
        # the AUC runs out at an earlier resample, but bootstrap_ci runs the
        # FROC statistic first, so its resample is the one named
        monkeypatch.setattr(evaluation, "_BOOTSTRAP_CELLS", cells)
        vols = [EvalVolume("pos", (Lesion(lesion((10.0, 10.0, 10.0))),), ()),
                EvalVolume("neg", (), ())]
        matches, scores, pool, (values, flags) = self.statistics(vols)
        ref = lambda ms: avg_sensitivity(_FrocPool(ms).curve(len(ms)))
        with pytest.raises(RuntimeError) as want:
            bootstrap_ci(ref, matches, 200, seed=4, max_retries=3)
        with pytest.raises(RuntimeError) as got:
            evaluation._bootstrap_cis(
                [lambda w: pool.avg_sensitivity(w, (1.0,)),
                 lambda w: _rank_auc(values, flags, w)],
                2, 1, 200, 0.95, 4, max_retries=3)
        with pytest.raises(RuntimeError) as auc:
            bootstrap_ci(lambda s: roc_auc(s)[1], scores, 200, seed=4, max_retries=3)
        resample = lambda e: int(str(e.value).rsplit(" ", 1)[1])
        assert resample(auc) < resample(want)
        assert str(got.value) == str(want.value)


class TestFisherExact:
    def test_worked_examples(self):
        assert fisher_exact([[3, 1], [1, 3]]) == pytest.approx(34 / 70, abs=1e-12)
        assert fisher_exact([[2, 0], [0, 2]]) == pytest.approx(2 / 6, abs=1e-12)

    def test_zero_margin_single_table(self):
        assert fisher_exact([[0, 0], [3, 5]]) == 1.0
        assert fisher_exact([[3, 0], [5, 0]]) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact([[0, 0], [0, 0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact([[1, -1], [0, 2]])

    def test_symmetric_table_is_one(self):
        assert fisher_exact([[5, 2], [5, 2]]) == pytest.approx(1.0, abs=1e-12)

    def test_against_enumeration_random_tables(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            table = [[int(rng.integers(0, 15)) for _ in range(2)] for _ in range(2)]
            if sum(table[0]) + sum(table[1]) == 0:
                continue
            want = float(fisher_oracle(table))
            assert fisher_exact(table) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_against_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(59)
        for _ in range(100):
            table = [[int(rng.integers(0, 25)) for _ in range(2)] for _ in range(2)]
            if 0 in (sum(table[0]) + sum(table[1]),):
                continue
            want = stats.fisher_exact(table, alternative="two-sided")[1]
            assert fisher_exact(table) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestFisherBits:
    """The plain-Python log-factorial table keeps the numpy one's bits."""

    def test_every_small_table(self):
        for table in itertools.product(range(13), repeat=4):
            if any(table):
                table = [table[:2], table[2:]]
                assert fisher_exact(table) == fisher_exact_reference(table), table

    def test_large_tables(self):
        rng = np.random.default_rng(71)
        tables = [[[9170, 1], [2, 9000]], [[4000, 6000], [5200, 4800]]]
        for n in (2_000, 9_200, 20_000):
            for _ in range(4):
                a, b, c = np.sort(rng.integers(0, n, 3)).tolist()
                tables.append([[a, b - a], [c - b, n - c]])
        for table in tables:
            assert fisher_exact(table) == fisher_exact_reference(table), table

    def test_log_factorials_equal_to_a_million(self):
        lf = list(itertools.accumulate(map(math.log, range(1, 10**6 + 1)), initial=0.0))
        want = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, 10**6 + 1)))))
        assert lf == want.tolist()


class TestStratifiedAndReport:
    def dataset(self):
        vols = []
        rng = np.random.default_rng(61)
        for i in range(8):
            lesions = []
            for _ in range(int(rng.integers(0, 3))):
                d = float(rng.uniform(3, 14))
                lesions.append(
                    Lesion(
                        BoundingBox(tuple(rng.uniform(10, 50, 3)), d),
                        {"size_class": "small" if d < 8 else "large",
                         "location": f"site-{int(rng.integers(2))}"},
                    )
                )
            cands = []
            for l in lesions:
                if rng.random() < 0.8:
                    cands.append(cand(l.box.center, float(rng.uniform(0.3, 1.0))))
            for _ in range(int(rng.integers(0, 3))):
                cands.append(cand(tuple(rng.uniform(60, 90, 3)), float(rng.uniform(0, 0.8))))
            vols.append(EvalVolume(f"v{i}", tuple(lesions), tuple(cands)))
        if not any(v.lesions for v in vols):
            raise RuntimeError("bad fixture")
        return vols

    def test_single_stratum_matches_global(self):
        vols = [
            EvalVolume(
                "a",
                (Lesion(BoundingBox((10, 10, 10), 6.0), {"k": "x"}),),
                (cand((10, 10, 10), 0.9),),
            ),
            EvalVolume(
                "b",
                (Lesion(BoundingBox((20, 20, 20), 6.0), {"k": "x"}),),
                (cand((50, 50, 50), 0.6),),
            ),
        ]
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        curve = _FrocPool(matches).curve(2)
        strata = stratified_sensitivities(vols, matches, curve, ["k"], (0.25, 1.0))
        assert set(strata["k"]) == {"x"}
        row = strata["k"]["x"]
        assert row["n_lesions"] == 2
        assert row["sensitivity_at_fppv"]["0.25"] == sensitivity_at_fppv(curve, 0.25)
        assert row["sensitivity_at_fppv"]["1"] == sensitivity_at_fppv(curve, 1.0)

    def test_strata_counts_sum_to_total(self):
        vols = self.dataset()
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        curve = _FrocPool(matches).curve(len(vols))
        strata = stratified_sensitivities(
            vols, matches, curve, ["size_class", "location"]
        )
        total = sum(len(v.lesions) for v in vols)
        for key in ("size_class", "location"):
            assert sum(r["n_lesions"] for r in strata[key].values()) == total

    def test_missing_label_key_rejected(self):
        vols = [
            EvalVolume(
                "a",
                (Lesion(BoundingBox((10, 10, 10), 6.0), {}),),
                (cand((10, 10, 10), 0.9),),
            )
        ]
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        curve = _FrocPool(matches).curve(1)
        with pytest.raises(ValueError, match="lacks label"):
            stratified_sensitivities(vols, matches, curve, ["size_class"])

    def test_two_stratum_hand_enumeration(self):
        # strata: "s" lesion hit at 0.9; "l" lesion hit at 0.4; one FP at 0.6
        vols = [
            EvalVolume(
                "a",
                (
                    Lesion(BoundingBox((10, 10, 10), 6.0), {"k": "s"}),
                    Lesion(BoundingBox((30, 30, 30), 6.0), {"k": "l"}),
                ),
                (cand((10, 10, 10), 0.9), cand((30, 30, 30), 0.4), cand((60, 60, 60), 0.6)),
            ),
        ]
        matches = [match_lesions(v.candidates, v.lesions) for v in vols]
        curve = _FrocPool(matches).curve(1)
        strata = stratified_sensitivities(vols, matches, curve, ["k"], (0.25, 1.0))
        # tau(0.25) = 0.9 (any lower threshold admits the FP at fppv 1.0)
        assert strata["k"]["s"]["sensitivity_at_fppv"]["0.25"] == 1.0
        assert strata["k"]["l"]["sensitivity_at_fppv"]["0.25"] == 0.0
        # tau(1.0) = 0.4 keeps every candidate
        assert strata["k"]["l"]["sensitivity_at_fppv"]["1"] == 1.0

    def test_report_shape_and_schema(self):
        import jsonschema

        from ctadet.evaluation import REPORT_SCHEMA

        def report(vols, strata_keys=()):
            doc = build_report(vols, strata_keys=strata_keys, n_resamples=50, seed=3,
                               provenance={"manifest": "x.json"})
            jsonschema.validate(doc, REPORT_SCHEMA)
            assert load_json(dump_json(doc)) == doc  # plain JSON values only
            return doc

        doc = report(self.dataset(), ("size_class", "location"))
        assert doc["froc"]["n_volumes"] == 8
        assert 0.0 <= doc["avg_sensitivity"]["value"] <= 1.0
        lo, hi = doc["avg_sensitivity"]["ci"]
        assert lo <= doc["avg_sensitivity"]["value"] <= hi

        # every volume positive: no AUC and no ROC
        all_positive = [
            EvalVolume(f"p{i}", (Lesion(lesion((10.0, 10.0, 10.0))),),
                       (cand((10.0, 10.0, 10.0), p), cand((40.0, 40.0, 40.0), p / 2)))
            for i, p in enumerate((0.9, 0.6, 0.3))
        ]
        doc = report(all_positive)
        assert doc["auc"] is None and doc["roc"] is None
        assert [op["name"] for op in doc["operating_points"]][-1] == "best_f1"

        # false positives above every lesion: no threshold keeps 0.25 FPPV
        outranked = [
            EvalVolume("pos", (Lesion(lesion((10.0, 10.0, 10.0))),),
                       (cand((10.0, 10.0, 10.0), 0.5), cand((40.0, 40.0, 40.0), 0.9))),
            EvalVolume("neg", (), (cand((30.0, 30.0, 30.0), 0.95),)),
        ]
        doc = report(outranked)
        op = {o["name"]: o for o in doc["operating_points"]}["fppv_0.25"]
        assert op["threshold"] is None and op["metrics"]["threshold"] is None
        assert op["lesion_sensitivity"] == 0.0
        assert doc["auc"] is not None

    def test_metrics_invariant_under_permutations(self):
        vols = self.dataset()
        base = build_report(vols, strata_keys=(), n_resamples=10, seed=0)
        shuffled_vols = [
            EvalVolume(v.volume_id, v.lesions, tuple(reversed(v.candidates)))
            for v in reversed(vols)
        ]
        other = build_report(shuffled_vols, strata_keys=(), n_resamples=10, seed=0)
        assert other["avg_sensitivity"]["value"] == base["avg_sensitivity"]["value"]
        assert other["auc"]["value"] == base["auc"]["value"]
        points = lambda r: sorted((p["fppv"], p["sensitivity"]) for p in r["froc"]["points"])
        assert points(base) == points(other)
        for a, b in zip(base["operating_points"], other["operating_points"]):
            assert (a["name"], a["threshold"]) == (b["name"], b["threshold"])
            counts = lambda op: [op["metrics"][k] for k in ("tp", "fp", "tn", "fn")]
            assert counts(a) == counts(b)
