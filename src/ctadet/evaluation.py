"""Lesion- and volume-level evaluation: FROC, ROC/AUC, fixed-threshold
confusion metrics, stratified breakdowns, bootstrap CIs, and Fisher's
exact test.  The confusion metrics and Fisher's test live in the
numpy-free :mod:`ctadet.stats` and are re-exported here.

A lesion counts as found when at least one candidate has its center
inside the lesion box; a candidate whose center lies in no lesion is a
false positive.  FROC sweeps the distinct candidate probabilities as
thresholds (a candidate is active at threshold t when its probability is
>= t) and reports false positives per volume against lesion sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .anchors import Lesion, _as_boxes, box_bounds, box_contains
from .config import RunConfig
from .postproc import CandidateDetection
from .stats import ConfusionMetrics, confusion_at_threshold, fisher_exact


class StatisticUndefined(ValueError):
    """Raised when a statistic has no value on the given data (e.g. FROC
    with zero lesions, AUC with a single class).  Bootstrap resampling
    redraws on this error."""


@dataclass(frozen=True)
class MatchResult:
    """Candidate/lesion matching for one volume, as arrays.

    ``lesion_hit_probs[j]`` is the highest probability of any candidate
    centered inside lesion j (-inf when none), so lesion j is found at
    threshold t iff ``lesion_hit_probs[j] >= t``.  A candidate inside two
    overlapping lesions counts for both lesions' hit status.
    """

    lesion_hit_probs: np.ndarray  # float64, one per lesion
    candidate_probs: np.ndarray  # float64, one per candidate
    candidate_is_tp: np.ndarray  # bool, one per candidate

    @property
    def n_lesions(self) -> int:
        return len(self.lesion_hit_probs)

    @property
    def fp_probs(self) -> np.ndarray:
        return self.candidate_probs[~self.candidate_is_tp]


def match_lesions(
    cands: Sequence[CandidateDetection], lesions: Sequence
) -> MatchResult:
    """Match candidates to lesions by closed-interval center containment."""
    boxes = _as_boxes(lesions)
    centers = np.array([c.box.center for c in cands], dtype=float).reshape(-1, 1, 3)
    inside = box_contains(box_bounds(boxes), centers)  # (candidates, lesions)
    probs = np.array([c.probability for c in cands], dtype=float)
    hit_probs = np.where(inside, probs[:, None], -math.inf).max(axis=0, initial=-math.inf)
    return MatchResult(hit_probs, probs, inside.any(axis=1))


@dataclass(frozen=True)
class FrocCurve:
    """One point per distinct candidate probability, descending."""

    thresholds: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (fppv, sensitivity)
    n_volumes: int
    n_lesions: int


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The float64 concatenation of ``arrays``, empty when there are none."""
    return np.concatenate([np.empty(0), *arrays])


def _pooled(
    per_volume: Sequence[np.ndarray], thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The volume index of each probability of all volumes, in ascending
    probability order, and the cuts into that order that
    :func:`_weighted_count_ge` reads: the count (the cut at +inf), then
    the index of the first probability >= each threshold."""
    probs = _concat(per_volume)
    vols = np.repeat(np.arange(len(per_volume)), [len(ps) for ps in per_volume])
    order = np.argsort(probs, kind="stable")
    at = np.searchsorted(probs[order], thresholds, side="left")
    return vols[order], np.concatenate(([len(probs)], at))


def _distinct_sorted(values) -> np.ndarray:
    """``np.unique`` of float values that hold no NaN, by numpy's own sorted
    path (``np.unique`` itself imports ``numpy.ma``): the sort keeps the
    first of each run of equal values, so a -0.0/0.0 tie keeps its bits."""
    aux = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    keep = np.empty(aux.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(aux[1:], aux[:-1], out=keep[1:])
    return aux[keep]


def _weighted_count_ge(pooled: tuple[np.ndarray, np.ndarray], w: np.ndarray) -> np.ndarray:
    """Per weight row and cut of ``pooled`` (from :func:`_pooled`), the
    total weight of the pooled values from that cut on.  The leading
    column holds the count at +inf, which is 0."""
    vols, at = pooled
    prefix = np.zeros((len(w), len(vols) + 1), dtype=np.int64)
    np.cumsum(w[:, vols], axis=1, out=prefix[:, 1:])
    return prefix[:, -1:] - prefix[:, at]


class _FrocPool:
    """The matches of a dataset pooled once (:func:`_pooled`): the volume
    of each finite lesion-hit and each false-positive probability, in
    ascending order, and the cuts at every threshold.  A FROC over a
    multiset of the volumes is then a row of per-volume weights: volume j
    counts ``w[j]`` times, as it does in a bootstrap resample.  Every row
    is read at all distinct candidate probabilities: one that no weighted
    candidate attains repeats the point above it, which leaves every step
    reading unchanged."""

    def __init__(self, matches: Sequence[MatchResult]):
        self.n_volumes = len(matches)
        self.lesions = np.array([m.n_lesions for m in matches], dtype=np.int64)
        self.thresholds = _distinct_sorted(_concat([m.candidate_probs for m in matches]))[::-1]
        hit_probs = [m.lesion_hit_probs[m.lesion_hit_probs > -math.inf] for m in matches]
        self.hits = _pooled(hit_probs, self.thresholds)
        self.fps = _pooled([m.fp_probs for m in matches], self.thresholds)

    def counts(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For a (rows, n_volumes) weight matrix: false-positive and hit
        counts at +inf and at each descending threshold, and lesion totals."""
        fps, hits = (_weighted_count_ge(p, w) for p in (self.fps, self.hits))
        return fps, hits, w @ self.lesions

    def avg_sensitivity(self, w: np.ndarray, fppvs: Sequence[float]) -> np.ndarray:
        """:func:`avg_sensitivity` of each weight row's FROC over
        ``n_volumes`` volumes, NaN where the row weights no lesion.  Neither
        coordinate falls as the threshold falls, so the best sensitivity
        within an FPPV budget is the one at the last point inside it."""
        fps, hits, n_lesions = self.counts(w)
        fppv = fps[:, 1:] / self.n_volumes
        sens = hits / np.where(n_lesions > 0, n_lesions, np.nan)[:, None]
        rows = np.arange(len(w))
        return sum(sens[rows, np.count_nonzero(fppv <= f, axis=1)] for f in fppvs) / len(fppvs)

    def curve(self, n_volumes: int) -> FrocCurve:
        """The FROC of the pooled volumes, each counted once."""
        (fps,), (hits,), (n_lesions,) = self.counts(np.ones((1, self.n_volumes), dtype=int))
        if n_lesions == 0:
            raise StatisticUndefined("FROC requires at least one lesion")
        n_lesions = int(n_lesions)
        points = tuple(zip((fps[1:] / n_volumes).tolist(), (hits[1:] / n_lesions).tolist()))
        return FrocCurve(tuple(self.thresholds.tolist()), points, n_volumes, n_lesions)


def froc(dataset: Sequence[tuple[Sequence, Sequence[CandidateDetection]]]) -> FrocCurve:
    """FROC over a dataset of (lesions, candidates) pairs, one per volume.

    Volumes without lesions still count in the false-positive-per-volume
    denominator.
    """
    matches = [match_lesions(cands, lesions) for lesions, cands in dataset]
    return _FrocPool(matches).curve(len(dataset))


def sensitivity_at_fppv(curve: FrocCurve, fppv: float) -> float:
    """Step-function reading: the best sensitivity at or below the queried
    false-positive rate; 0 when no curve point qualifies."""
    if fppv < 0:
        raise ValueError(f"fppv must be >= 0, got {fppv}")
    best = 0.0
    for f, s in curve.points:
        if f <= fppv and s > best:
            best = s
    return best


def avg_sensitivity(
    curve: FrocCurve, fppvs: Sequence[float] = RunConfig.fppv_grid
) -> float:
    """Mean sensitivity over the reference FPPV grid."""
    return float(sum(sensitivity_at_fppv(curve, f) for f in fppvs) / len(fppvs))


def threshold_for_operating_point(curve: FrocCurve, target_fppv: float) -> float:
    """Smallest candidate-probability threshold whose FPPV stays within the
    target (i.e. the highest-sensitivity operating point at that budget).

    Returns +inf when even the strictest threshold exceeds the target; a
    report writes that threshold as null.
    """
    if target_fppv < 0:
        raise ValueError(f"target_fppv must be >= 0, got {target_fppv}")
    chosen = math.inf
    for t, (f, _) in zip(curve.thresholds, curve.points):
        if f <= target_fppv:
            chosen = t
        else:
            break  # fppv is non-decreasing as thresholds descend
    return chosen


def volume_score(cands: Sequence[CandidateDetection]) -> float:
    """Volume-level score: the maximum candidate probability, 0 when empty."""
    return max((c.probability for c in cands), default=0.0)


@dataclass(frozen=True)
class RocCurve:
    thresholds: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), score >= threshold


def _rank_auc(scores: np.ndarray, flags: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row of per-volume weights (volume j counted ``w[j]`` times), the
    fraction of positive/negative pairs ordered correctly, ties counted
    one-half; NaN where the row weights no positive or no negative volume."""
    order = np.argsort(scores[~flags])
    neg = scores[~flags][order]
    below = np.zeros((len(w), neg.size + 1), dtype=np.int64)
    np.cumsum(w[:, ~flags][:, order], axis=1, out=below[:, 1:])
    pos, w_pos = scores[flags], w[:, flags]
    lo, hi = (below[:, np.searchsorted(neg, pos, side=s)] for s in ("left", "right"))
    pairs = w_pos.sum(axis=1) * below[:, -1]
    n_below, n_equal = (w_pos * lo).sum(axis=1), (w_pos * (hi - lo)).sum(axis=1)
    return (n_below + 0.5 * n_equal) / np.where(pairs > 0, pairs, np.nan)


def _score_arrays(scores: Sequence[tuple[float, bool]]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([s for s, _ in scores], dtype=float),
        np.array([flag for _, flag in scores], dtype=bool),
    )


def roc_auc(scores: Sequence[tuple[float, bool]]) -> tuple[RocCurve, float]:
    """Volume-level ROC and AUC.

    AUC is the rank statistic (fraction of positive/negative pairs ordered
    correctly, ties counted one-half), equivalent to trapezoidal
    integration of the ROC curve.
    """
    values, flags = _score_arrays(scores)
    auc = float(_rank_auc(values, flags, np.ones((1, len(values)), dtype=np.int64))[0])
    if math.isnan(auc):
        raise StatisticUndefined("AUC requires both positive and negative volumes")
    thresholds = _distinct_sorted(values)[::-1]
    pos = np.sort(values[flags])
    neg = np.sort(values[~flags])
    fpr = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    tpr = (pos.size - np.searchsorted(pos, thresholds, side="left")) / pos.size
    points = tuple(zip(fpr.tolist(), tpr.tolist()))
    return RocCurve(tuple(thresholds.tolist()), points), auc


def best_f1_threshold(
    scores: Sequence[tuple[float, bool]],
) -> tuple[float, ConfusionMetrics]:
    """Sweep of the distinct scores (plus an accept-all threshold); ties
    broken toward the higher threshold.  One pass over the sorted scores
    keeps the counts above each threshold."""
    n_pos = sum(flag for _, flag in scores)
    if not n_pos:
        raise ValueError("best F1 threshold requires at least one positive volume")
    distinct = sorted({s for s, _ in scores})
    ordered = sorted(scores)
    tp, fp, i = n_pos, len(scores) - n_pos, 0
    best_t, best_f1 = math.nan, -math.inf
    for t in [distinct[0] - 1.0] + distinct:
        while i < len(ordered) and ordered[i][0] <= t:  # no longer above t
            tp, fp, i = tp - ordered[i][1], fp - (not ordered[i][1]), i + 1
        f1 = 2 * tp / (2 * tp + fp + n_pos - tp)  # n_pos > 0: never 0/0
        if f1 >= best_f1:
            best_t, best_f1 = t, f1
    return best_t, confusion_at_threshold(scores, best_t)


_BOOTSTRAP_CELLS = 1 << 15  # array cells per block of weight rows in a bootstrap
_EXHAUSTED = "statistic undefined on {} consecutive redraws of resample {}"


def _draw(seed: int, i: int, attempt: int, n: int) -> np.ndarray:
    """The volume indices of bootstrap resample ``i``, attempt ``attempt``."""
    return np.random.default_rng([seed, i, attempt]).integers(0, n, n)


# numpy's SeedSequence (hash-mix over a pool of four uint32 words) and
# PCG64 (128-bit LCG with XSL-RR output) constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SPARE_OUTPUTS = 2  # 64-bit outputs drawn per row beyond ceil(n/2), for rejections
_DRAW_ROW_CELLS = 32  # cells a drawn row's seeding state costs, whatever its n


def _entropy_words(x: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative integer, low word first."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's uint32 hash: each call mixes in the next constant."""
    h = init

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * mult & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    return hashmix


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8)`` per element of the uint32
    word arrays in ``entropy``."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    return [output(pool[k % 4]) for k in range(8)]


def _mul_128(x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]):
    """``x * y mod 2**128`` on (high, low) uint64 halves, broadcast."""
    (xh, xl), (yh, yl) = x, y
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    x0, x1, y0, y1 = xl & m32, xl >> s32, yl & m32, yl >> s32
    # in place where it can be: these arrays are (rows, outputs) wide
    p01, p10 = x0 * y1, x1 * y0
    hi = x0 * y0 >> s32
    hi += p01 & m32
    hi += p10 & m32
    hi >>= s32  # the carry out of the middle word of the low product
    for p in (p01, p10):
        p >>= s32
        hi += p
    del p01, p10, p
    for a, b in ((x1, y1), (xh, yl), (xl, yh)):
        hi += a * b
    return hi, xl * yl


def _halves(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & (1 << 64) - 1 for v in values], dtype=np.uint64))


def _pcg_outputs(c: tuple[np.ndarray, np.ndarray], inc: tuple[np.ndarray, np.ndarray],
                 m: int) -> np.ndarray:
    """The first ``m`` 64-bit PCG64 outputs of each row, from (rows, 1)
    halves of ``c`` (seed plus increment) and ``inc`` (increment).  The
    state behind output k is ``A·c + B·inc mod 2**128`` with
    ``A = MULT**(k+1)`` and ``B = MULT**k + ... + 1``, so every state is one
    multiply-add instead of a walk through the ones before it."""
    jumps_a, jumps_b, a, b = [], [], _PCG_MULT, 1
    mask = (1 << 128) - 1
    for _ in range(m):
        a, b = a * _PCG_MULT & mask, (b * _PCG_MULT + 1) & mask
        jumps_a.append(a)
        jumps_b.append(b)
    hi, lo = _mul_128(c, _halves(jumps_a))
    qh, ql = _mul_128(inc, _halves(jumps_b))
    lo += ql
    hi += qh
    hi += lo < ql  # the carry out of the low half
    del qh, ql
    # XSL-RR: rotate (high ^ low) right by the top six bits of the state
    lo ^= hi
    hi >>= np.uint64(58)
    out = lo >> hi
    out |= lo << (-hi & np.uint64(63))
    return out


def _resample_weights(seed: int, rows: np.ndarray, attempt: int, n: int) -> np.ndarray:
    """Row r is ``np.bincount(_draw(seed, rows[r], attempt, n), minlength=n)``,
    bit for bit, from array arithmetic over all rows at once: SeedSequence's
    hash-mix, PCG64 seeding and jump-ahead, and numpy's 32-bit Lemire
    rejection (arXiv:1805.10941) on the low then the high half of each
    output.  A row that rejects too many of the values drawn for it, and
    an ``n`` or row of 2**32 or more, are drawn by ``_draw`` itself."""
    rows = np.asarray(rows, dtype=np.int64)
    if n >= 1 << 32 or (rows.size and rows.max() >= 1 << 32):
        return np.array([np.bincount(_draw(seed, i, attempt, n), minlength=n)
                         for i in rows], dtype=np.int64).reshape(len(rows), n)

    def same(x: int) -> list[np.ndarray]:
        return [np.full(len(rows), w, np.uint32) for w in _entropy_words(x)]

    entropy = [*same(seed), rows.astype(np.uint32), *same(attempt)]
    st = [v.astype(np.uint64)[:, None] for v in _seed_state(entropy)]
    # PCG64 seeds from uint64 words (high first): state s, sequence q
    s_hi, s_lo, q_hi, q_lo = (st[2 * k] | st[2 * k + 1] << np.uint64(32) for k in range(4))
    inc = (q_hi << np.uint64(1) | q_lo >> np.uint64(63), q_lo << np.uint64(1) | np.uint64(1))
    c_lo = s_lo + inc[1]
    c = (s_hi + inc[0] + (c_lo < s_lo), c_lo)
    m = max(0, (n + 1) // 2 + _SPARE_OUTPUTS)
    out = _pcg_outputs(c, inc, m)
    draws = np.stack([out & np.uint64(_MASK32), out >> np.uint64(32)], axis=2)
    draws = draws.reshape(len(rows), 2 * m)
    draws *= np.uint64(n)  # the index is the high word; a low word below 2**32 % n is rejected
    accept = draws & np.uint64(_MASK32) >= np.uint64((1 << 32) % n)
    keep = accept & (np.cumsum(accept, axis=1, dtype=np.int32) <= n)
    draws >>= np.uint64(32)
    draws += np.arange(len(rows), dtype=np.uint64)[:, None] * np.uint64(n)
    w = np.bincount(draws.view(np.int64)[keep], minlength=len(rows) * n).reshape(len(rows), n)
    for r in np.flatnonzero(keep.sum(axis=1) < n):
        w[r] = np.bincount(_draw(seed, rows[r], attempt, n), minlength=n)
    return w


def _percentile_ci(values: np.ndarray, level: float) -> tuple[float, float]:
    """``np.percentile(values, [alpha, 100 - alpha])`` of a nonempty 1-D
    array, in the arithmetic of numpy's default ``linear`` method:
    virtual index ``(n - 1) * q``, neighbours from the same partition, and
    ``_lerp``.  ``np.percentile`` itself imports ``numpy.ma``."""
    alpha = 100.0 * (1.0 - level) / 2.0
    arr = np.array(values, dtype=np.float64).ravel()
    n = len(arr)
    virtual = (n - 1) * (np.array([alpha, 100.0 - alpha]) / 100)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    arr.partition(np.array(sorted({0, -1, *below.tolist(), *above.tolist()}), dtype=np.intp))
    if np.isnan(arr[-1]):  # a NaN sorts last and is every percentile
        return float(arr[-1]), float(arr[-1])
    a, b, t = arr[below], arr[above], virtual - below
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return float(out[0]), float(out[1])


def bootstrap_ci(
    statistic: Callable[[list], float],
    dataset: Sequence,
    n_resamples: int = RunConfig.bootstrap_resamples,
    level: float = RunConfig.bootstrap_level,
    seed: int = 0,
    max_retries: int = 100,
) -> tuple[float, float]:
    """Percentile bootstrap over dataset items (volumes, not lesions).

    Resample i, attempt a, draws indices with
    ``default_rng([seed, i, a]).integers(0, n, n)``; a resample on which
    the statistic raises :class:`StatisticUndefined` is redrawn with the
    next attempt number, up to ``max_retries``.  The counter-derived seeds
    make results independent of execution order or parallelism.
    """
    items = list(dataset)
    if not items:
        raise ValueError("bootstrap requires a nonempty dataset")
    n = len(items)
    values = np.empty(n_resamples)
    for i in range(n_resamples):
        for attempt in range(max_retries):
            idx = _draw(seed, i, attempt, n)
            try:
                values[i] = float(statistic([items[j] for j in idx]))
                break
            except StatisticUndefined:
                continue
        else:
            raise RuntimeError(_EXHAUSTED.format(max_retries, i))
    return _percentile_ci(values, level)


def _distinct_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(holder, inverse)``: ``w[holder]`` holds each distinct row of ``w``
    once and ``w[holder][inverse]`` equals ``w``.  Rows are keyed on their
    bytes (``np.unique`` would import ``numpy.ma``)."""
    data, size = np.ascontiguousarray(w).tobytes(), w.shape[1] * w.itemsize
    index: dict[bytes, int] = {}  # distinct row's bytes -> its position
    inverse = np.array(
        [index.setdefault(data[r * size:(r + 1) * size], len(index)) for r in range(len(w))],
        dtype=np.intp,
    )
    holder = np.empty(len(index), dtype=np.intp)
    holder[inverse] = np.arange(len(w))  # some row holding each distinct row
    return holder, inverse


def _distinct_scores(
    statistic: Callable[[np.ndarray], np.ndarray], w: np.ndarray, width: int
) -> np.ndarray:
    """``statistic(w)``, computed once per distinct row of ``w`` in blocks
    of ``_BOOTSTRAP_CELLS // width`` rows and spread back over its copies."""
    holder, inverse = _distinct_rows(w)
    distinct = w if len(holder) == len(w) else w[holder]  # all distinct: holder is 0, 1, ...
    sub = max(1, _BOOTSTRAP_CELLS // max(1, width))
    scores = [statistic(distinct[s:s + sub]) for s in range(0, len(distinct), sub)]
    return np.concatenate(scores)[inverse] if scores else np.empty(0)


def _bootstrap_cis(
    statistics: Sequence[Callable[[np.ndarray], np.ndarray]], n: int, width: int,
    n_resamples: int, level: float, seed: int, max_retries: int = 100,
) -> list[tuple[float, float]]:
    """:func:`bootstrap_ci` of each statistic over ``n`` volumes, with the
    same draws, redraws and bits.  A statistic maps a (rows, n) matrix of
    per-volume weights (each volume's count in the drawn indices) to one
    value per row, NaN where undefined, and reads ``width`` cells per row.
    Blocks hold about ``_BOOTSTRAP_CELLS`` weight cells.  Each attempt
    draws, in one :func:`_resample_weights` call, the rows of a block that
    some statistic is still undefined on; each statistic then scores the
    distinct ones among its own rows."""
    values = np.empty((len(statistics), n_resamples))
    failed: dict[int, int] = {}  # statistic -> first resample that ran out
    block = max(1, _BOOTSTRAP_CELLS // max(n, _DRAW_ROW_CELLS))
    for start in range(0, n_resamples, block):
        rows = np.arange(start, min(start + block, n_resamples))
        undefined = np.ones((len(statistics), len(rows)), dtype=bool)
        for attempt in range(max_retries):
            drawn = undefined.any(axis=0)
            if not drawn.any():
                break
            w = _resample_weights(seed, rows[drawn], attempt, n)
            for k, statistic in enumerate(statistics):
                mine = undefined[k]
                got = _distinct_scores(statistic, w[mine[drawn]], width)
                values[k, rows[mine]] = got
                undefined[k, mine] = np.isnan(got)
        for k in np.flatnonzero(undefined.any(axis=1)):
            failed.setdefault(int(k), int(rows[undefined[k].argmax()]))
    if failed:  # the error bootstrap_ci raises running the statistics in turn
        raise RuntimeError(_EXHAUSTED.format(max_retries, failed[min(failed)]))
    return [_percentile_ci(v, level) for v in values]


# ---------------------------------------------------------------------------
# Dataset-level report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalVolume:
    """One volume's ground truth and candidates, as fed to the report."""

    volume_id: str
    lesions: tuple[Lesion, ...]
    candidates: tuple[CandidateDetection, ...]

    @property
    def has_lesion(self) -> bool:
        return len(self.lesions) > 0


def stratified_sensitivities(
    volumes: Sequence[EvalVolume],
    matches: Sequence[MatchResult],
    curve: FrocCurve,
    strata_keys: Sequence[str],
    operating_fppvs: Sequence[float] = RunConfig.operating_fppvs,
) -> dict[str, dict[str, dict]]:
    """Per-stratum lesion sensitivity at thresholds fixed from the global
    FROC curve.  Every lesion must carry every requested label key."""
    thresholds = {
        fppv: threshold_for_operating_point(curve, fppv) for fppv in operating_fppvs
    }
    out: dict[str, dict[str, dict]] = {}
    for key in strata_keys:
        buckets: dict[str, list[float]] = {}
        for vol, match in zip(volumes, matches):
            for lesion, hit_prob in zip(vol.lesions, match.lesion_hit_probs.tolist()):
                if key not in lesion.labels:
                    raise ValueError(
                        f"lesion in volume {vol.volume_id!r} lacks label {key!r}"
                    )
                buckets.setdefault(lesion.labels[key], []).append(hit_prob)
        out[key] = {
            value: {
                "n_lesions": len(probs),
                "sensitivity_at_fppv": {
                    _fppv_key(fppv): sum(p >= t for p in probs) / len(probs)
                    for fppv, t in thresholds.items()
                },
            }
            for value, probs in sorted(buckets.items())
        }
    return out


def _fppv_key(fppv: float) -> str:
    return f"{fppv:g}"


def _null(x):
    """``x`` as the report writes it: NaN, and the +inf threshold of an
    unreachable operating point, are null."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _points(curve, names: tuple[str, str, str]) -> list[dict]:
    """A FROC or ROC curve as records of its threshold and point."""
    return [dict(zip(names, (t, *p))) for t, p in zip(curve.thresholds, curve.points)]


def _operating_point(
    name: str, score_rule: str, lesion_sensitivity: Optional[float], m: ConfusionMetrics
) -> dict:
    metrics = {k: _null(v) for k, v in asdict(m).items()}
    return {"name": name, "threshold": metrics["threshold"], "score_rule": score_rule,
            "lesion_sensitivity": lesion_sensitivity, "metrics": metrics}


def build_report(
    volumes: Sequence[EvalVolume],
    fppv_grid: Sequence[float] = RunConfig.fppv_grid,
    operating_fppvs: Sequence[float] = RunConfig.operating_fppvs,
    strata_keys: Sequence[str] = (),
    n_resamples: int = RunConfig.bootstrap_resamples,
    level: float = RunConfig.bootstrap_level,
    seed: int = 0,
    provenance: Optional[Mapping[str, object]] = None,
) -> dict:
    """The evaluation report of one candidate set: the JSON document that
    :data:`REPORT_SCHEMA` describes."""
    matches = [match_lesions(v.candidates, v.lesions) for v in volumes]
    n = len(volumes)
    pool = _FrocPool(matches)
    curve = pool.curve(n)
    avg = avg_sensitivity(curve, fppv_grid)
    statistics = [lambda w: pool.avg_sensitivity(w, fppv_grid)]

    scores = [(volume_score(v.candidates), v.has_lesion) for v in volumes]
    try:
        roc, auc = roc_auc(scores)
        values, flags = _score_arrays(scores)
        statistics.append(lambda w: _rank_auc(values, flags, w))
    except StatisticUndefined:
        roc = None
    width = sum(len(v.candidates) for v in volumes) + 1  # cells per weight row
    cis = _bootstrap_cis(statistics, n, width, n_resamples, level, seed)

    ops = []
    for fppv in operating_fppvs:
        t = threshold_for_operating_point(curve, fppv)
        metrics = confusion_at_threshold(scores, t, inclusive=True)
        sens = sensitivity_at_fppv(curve, fppv)
        ops.append(_operating_point(f"fppv_{_fppv_key(fppv)}", "ge", sens, metrics))
    if any(flag for _, flag in scores):
        ops.append(_operating_point("best_f1", "gt", None, best_f1_threshold(scores)[1]))

    return {
        "froc": {"n_volumes": curve.n_volumes, "n_lesions": curve.n_lesions,
                 "points": _points(curve, ("threshold", "fppv", "sensitivity"))},
        "avg_sensitivity": {"value": avg, "ci": list(cis[0]), "fppv_grid": list(fppv_grid)},
        "auc": None if roc is None else {"value": auc, "ci": list(cis[1])},
        "roc": None if roc is None else _points(roc, ("threshold", "fpr", "tpr")),
        "operating_points": ops,
        "strata": stratified_sensitivities(volumes, matches, curve, strata_keys, operating_fppvs),
        "volume_scores": [{"volume_id": v.volume_id, "score": score, "has_lesion": flag}
                          for v, (score, flag) in zip(volumes, scores)],
        "provenance": dict(provenance or {}),
    }


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "froc",
        "avg_sensitivity",
        "auc",
        "roc",
        "operating_points",
        "strata",
        "volume_scores",
        "provenance",
    ],
    "properties": {
        "froc": {
            "type": "object",
            "required": ["n_volumes", "n_lesions", "points"],
            "properties": {
                "n_volumes": {"type": "integer", "minimum": 0},
                "n_lesions": {"type": "integer", "minimum": 0},
                "points": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["threshold", "fppv", "sensitivity"],
                        "properties": {
                            "threshold": {"type": "number"},
                            "fppv": {"type": "number", "minimum": 0},
                            "sensitivity": {
                                "type": "number",
                                "minimum": 0,
                                "maximum": 1,
                            },
                        },
                    },
                },
            },
        },
        "avg_sensitivity": {
            "type": "object",
            "required": ["value", "ci", "fppv_grid"],
            "properties": {
                "value": {"type": "number", "minimum": 0, "maximum": 1},
                "ci": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "fppv_grid": {"type": "array", "items": {"type": "number"}},
            },
        },
        "auc": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["value", "ci"],
                    "properties": {
                        "value": {"type": "number", "minimum": 0, "maximum": 1},
                        "ci": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                },
            ]
        },
        "roc": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["threshold", "fpr", "tpr"],
                    },
                },
            ]
        },
        "operating_points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "threshold", "score_rule", "metrics"],
                "properties": {
                    "name": {"type": "string"},
                    # null: no candidate threshold meets the point's FPPV
                    "threshold": {"type": ["number", "null"]},
                    "score_rule": {"enum": ["ge", "gt"]},
                    "metrics": {
                        "type": "object",
                        "required": ["threshold", "tp", "fp", "tn", "fn"],
                        "properties": {"threshold": {"type": ["number", "null"]}},
                    },
                },
            },
        },
        "strata": {"type": "object"},
        "volume_scores": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["volume_id", "score", "has_lesion"],
                "properties": {
                    "volume_id": {"type": "string"},
                    "score": {"type": "number"},
                    "has_lesion": {"type": "boolean"},
                },
            },
        },
        "provenance": {"type": "object"},
    },
}
