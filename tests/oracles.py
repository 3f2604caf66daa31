"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid sharing code paths with the package: IoU counts
unit cells on an integer lattice, Fisher's test enumerates tables in exact
integer arithmetic, NMS/matching/FROC re-derive their answers with plain
loops.  The ``*_reference`` functions are the scalar loops that array
kernels replaced, kept to pin those kernels bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb


def integer_box_bounds(center, diameter):
    """(lo, hi) corner tuples; caller guarantees they are integral."""
    lo = tuple(c - diameter / 2.0 for c in center)
    hi = tuple(c + diameter / 2.0 for c in center)
    assert all(float(v).is_integer() for v in lo + hi)
    return tuple(int(v) for v in lo), tuple(int(v) for v in hi)


def _axis_cell_count(lo1, hi1, lo2, hi2):
    count = 0
    for i in range(min(lo1, lo2), max(hi1, hi2)):
        if lo1 <= i and i + 1 <= hi1 and lo2 <= i and i + 1 <= hi2:
            count += 1
    return count


def iou3d_oracle(box_a, box_b) -> Fraction:
    """Exact IoU by counting lattice unit cells, for integer-cornered boxes."""
    a_lo, a_hi = integer_box_bounds(box_a.center, box_a.diameter)
    b_lo, b_hi = integer_box_bounds(box_b.center, box_b.diameter)
    inter = 1
    for ax in range(3):
        inter *= _axis_cell_count(a_lo[ax], a_hi[ax], b_lo[ax], b_hi[ax])
    vol_a = (a_hi[0] - a_lo[0]) * (a_hi[1] - a_lo[1]) * (a_hi[2] - a_lo[2])
    vol_b = (b_hi[0] - b_lo[0]) * (b_hi[1] - b_lo[1]) * (b_hi[2] - b_lo[2])
    union = vol_a + vol_b - inter
    return Fraction(inter, union) if union else Fraction(0)


def nms_oracle(cands, iou_fn, iou_thresh, prob_thresh):
    """Greedy suppression re-derived with explicit max scans."""
    remaining = [c for c in cands if c.probability > prob_thresh]
    kept = []
    while remaining:
        best = remaining[0]
        for c in remaining[1:]:
            if c.probability > best.probability or (
                c.probability == best.probability and c.box.center < best.box.center
            ):
                best = c
        kept.append(best)
        remaining = [
            c for c in remaining if c is not best and iou_fn(c.box, best.box) <= iou_thresh
        ]
    return kept


def greedy_nms_reference(cands, iou_fn, sort_key, iou_thresh, prob_thresh):
    """The pure-Python greedy loop NMS ran before its array kernel: sort
    once, keep the head, drop every survivor with IoU above the threshold."""
    alive = sorted((c for c in cands if c.probability > prob_thresh), key=sort_key)
    kept = []
    while alive:
        best = alive.pop(0)
        kept.append(best)
        alive = [c for c in alive if iou_fn(c.box, best.box) <= iou_thresh]
    return kept


def iou3d_reference(a, b) -> float:
    """The scalar IoU loop the box kernel replaced; the kernel must match
    its bits."""
    inter = 1.0
    vol_a = 1.0
    vol_b = 1.0
    # all three volumes use the same corner arithmetic so identical boxes
    # yield exactly 1.0
    for a_lo, a_hi, b_lo, b_hi in zip(a.lo, a.hi, b.lo, b.hi):
        lo = max(a_lo, b_lo)
        hi = min(a_hi, b_hi)
        if hi <= lo:
            return 0.0
        inter *= hi - lo
        vol_a *= a_hi - a_lo
        vol_b *= b_hi - b_lo
    return inter / (vol_a + vol_b - inter)


def anchor_grid_reference(patch_size, grid_size, anchor_sizes):
    """The triple loop that built the anchor grid as a tuple of ``Anchor``
    objects before the array grid; the array grid must match its bits and
    its row order."""
    from ctadet.anchors import Anchor

    if patch_size % grid_size != 0:
        raise ValueError(
            f"patch size {patch_size} not divisible by grid size {grid_size}"
        )
    factor = patch_size // grid_size
    anchors = []
    for i in range(grid_size):
        for j in range(grid_size):
            for k in range(grid_size):
                pos = ((i + 0.5) * factor, (j + 0.5) * factor, (k + 0.5) * factor)
                for s, size in enumerate(anchor_sizes):
                    anchors.append(Anchor((i, j, k), pos, float(size), s))
    return tuple(anchors)


def oracle_score_reference(candidates, tile, anchors, grid_size, downsample, n_scales):
    """The per-candidate loop the oracle tile scorer ran on a list of
    ``Anchor`` objects, with the flat anchor index written out."""
    import numpy as np

    from ctadet.anchors import BoundingBox, box_bounds, box_iou, cube_bounds, encode

    preds = np.zeros((len(anchors), 5))
    for cand in candidates:
        local = tuple(c - o for c, o in zip(cand.box.center, tile.origin))
        if not all(0 <= lc < s for lc, s in zip(local, tile.size)):
            continue
        gi = tuple(
            min(max(int(round(lc / downsample - 0.5)), 0), grid_size - 1)
            for lc in local
        )
        local_box = BoundingBox(local, cand.box.diameter)
        i, j, k = gi
        base = ((i * grid_size + j) * grid_size + k) * n_scales
        # the first best-overlapping scale at this grid point
        at_point = anchors[base : base + n_scales]
        scales = cube_bounds(
            [a.position for a in at_point], [a.anchor_size for a in at_point]
        )
        best = base + int(box_iou(scales, box_bounds([local_box])).argmax())
        if cand.probability > preds[best, 0]:
            t = encode(local_box, anchors[best], cand.probability)
            preds[best] = t.as_tuple()
    return preds


def assign_labels_reference(anchors, lesions, pos_iou=0.5, neg_iou=0.02):
    """The anchors x lesions loop that labelled anchors before the box
    kernel, on :func:`iou3d_reference`; it shares only the label types and
    the scalar ``encode`` with the package."""
    from ctadet.anchors import AnchorLabel, AnchorStatus, encode

    if pos_iou <= neg_iou:
        raise ValueError("pos_iou must exceed neg_iou")
    labels = []
    for anchor in anchors:
        best_iou = 0.0
        best_idx = -1
        abox = anchor.box
        for idx, lesion in enumerate(lesions):
            v = iou3d_reference(abox, lesion)
            if v > best_iou:
                best_iou = v
                best_idx = idx
        if best_iou > pos_iou:
            box = lesions[best_idx]
            labels.append(
                AnchorLabel(AnchorStatus.POSITIVE, box, encode(box, anchor, 1.0))
            )
        elif best_iou < neg_iou:
            labels.append(AnchorLabel(AnchorStatus.NEGATIVE))
        else:
            labels.append(AnchorLabel(AnchorStatus.IGNORED))
    return labels


def contains_oracle(box, point) -> bool:
    for c, p in zip(box.center, point):
        if p < c - box.diameter / 2.0 or p > c + box.diameter / 2.0:
            return False
    return True


def match_oracle(cands, boxes):
    """(candidate tp flags, per-lesion best hit probability)."""
    is_tp = []
    hit_probs = [-math.inf] * len(boxes)
    for c in cands:
        hits = [j for j, b in enumerate(boxes) if contains_oracle(b, c.box.center)]
        is_tp.append(bool(hits))
        for j in hits:
            if c.probability > hit_probs[j]:
                hit_probs[j] = c.probability
    return is_tp, hit_probs


def assignment_oracle(cands, boxes):
    """Lesion claimed by each candidate: in descending probability (ties in
    list order), each takes the lowest-index unclaimed lesion holding its
    center."""
    order = sorted(range(len(cands)), key=lambda i: (-cands[i].probability, i))
    claimed = set()
    assigned = [None] * len(cands)
    for i in order:
        for j, box in enumerate(boxes):
            if j not in claimed and contains_oracle(box, cands[i].box.center):
                assigned[i] = j
                claimed.add(j)
                break
    return assigned


def froc_oracle(dataset):
    """FROC points re-derived by rescanning all candidates per threshold."""
    thresholds = sorted(
        {c.probability for _, cands in dataset for c in cands}, reverse=True
    )
    n_volumes = len(dataset)
    n_lesions = sum(len(lesions) for lesions, _ in dataset)
    points = []
    for t in thresholds:
        fps = 0
        hits = 0
        for lesions, cands in dataset:
            active = [c for c in cands if c.probability >= t]
            for box in lesions:
                if any(contains_oracle(box, c.box.center) for c in active):
                    hits += 1
            for c in active:
                if not any(contains_oracle(box, c.box.center) for box in lesions):
                    fps += 1
        points.append((fps / n_volumes, hits / n_lesions))
    return thresholds, points


def sens_at_fppv_oracle(points, query):
    best = 0.0
    for f, s in points:
        if f <= query and s > best:
            best = s
    return best


def avg_sensitivity_oracle(dataset, fppvs):
    _, points = froc_oracle(dataset)
    return sum(sens_at_fppv_oracle(points, q) for q in fppvs) / len(fppvs)


def fisher_oracle(table) -> Fraction:
    """Two-sided p-value by exact enumeration of all same-margin tables."""
    (a, b), (c, d) = table
    n = a + b + c + d
    r1, r2, c1 = a + b, c + d, a + c
    denom = comb(n, c1)
    obs = comb(r1, a) * comb(r2, c1 - a)
    total = 0
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        w = comb(r1, k) * comb(r2, c1 - k)
        if w <= obs:
            total += w
    return Fraction(total, denom)


def extract_patch_oracle(values, origin, size, pad_value):
    """Per-voxel triple loop."""
    import numpy as np

    out = np.full(size, pad_value, dtype=values.dtype)
    for i in range(size[0]):
        for j in range(size[1]):
            for k in range(size[2]):
                x, y, z = origin[0] + i, origin[1] + j, origin[2] + k
                if (
                    0 <= x < values.shape[0]
                    and 0 <= y < values.shape[1]
                    and 0 <= z < values.shape[2]
                ):
                    out[i, j, k] = values[x, y, z]
    return out


def top_k_subset_oracle(losses, k):
    """Indices of the size-k subset with maximal total loss (exhaustive)."""
    k = min(k, len(losses))
    best = None
    best_total = -math.inf
    for combo in itertools.combinations(range(len(losses)), k):
        total = sum(losses[i] for i in combo)
        if total > best_total:
            best_total = total
            best = combo
    return set(best or ()), best_total
