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


def vessel_path_reference(rng, dims, margin):
    """The random walk before its per-step kicks were drawn in one call:
    the batched path must return the same points and leave the generator
    in the same state."""
    import numpy as np

    from ctadet.synth import _random_unit

    lo = np.full(3, margin)
    hi = np.asarray(dims, dtype=float) - 1.0 - margin
    pos = rng.uniform(lo, hi)
    direction = _random_unit(rng)
    n_steps = int(2.0 * max(dims))
    points = np.empty((n_steps, 3))
    for i in range(n_steps):
        points[i] = pos
        direction = direction + 0.35 * rng.normal(0.0, 1.0, 3)
        direction /= np.linalg.norm(direction)
        pos = pos + direction
        for ax in range(3):
            if pos[ax] < lo[ax]:
                pos[ax] = 2 * lo[ax] - pos[ax]
                direction[ax] = abs(direction[ax])
            elif pos[ax] > hi[ax]:
                pos[ax] = 2 * hi[ax] - pos[ax]
                direction[ax] = -abs(direction[ax])
    return points


def paint_ball_reference(vol, center, radius, value):
    """The one-ball painter that the batched vessel kernel replaced: clip
    the ball's box to the volume, then ``sum`` squared offsets over an
    open grid."""
    import numpy as np

    los = [max(0, int(math.floor(c - radius))) for c in center]
    his = [min(d, int(math.ceil(c + radius)) + 1) for c, d in zip(center, vol.shape)]
    if any(h <= l for l, h in zip(los, his)):
        return
    grids = np.ogrid[los[0]:his[0], los[1]:his[1], los[2]:his[2]]
    d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    region = vol[los[0]:his[0], los[1]:his[1], los[2]:his[2]]
    region[d2 <= radius * radius] = value


def generate_phantom_reference(spec, volume_id="phantom"):
    """The float64-canvas phantom builder that slab-wise filling replaced:
    paint HU into a whole float64 volume one ball at a time, add one
    whole-volume noise draw, then round, clip and cast.  It shares only
    the unchanged placement helpers with the package."""
    import numpy as np

    from ctadet.anchors import BoundingBox, Lesion
    from ctadet.synth import _random_unit, _separated, size_class
    from ctadet.volume import Volume

    rng = np.random.default_rng(spec.seed)
    dims = tuple(int(d) for d in spec.dims)
    vol = np.full(dims, spec.background_hu, dtype=np.float64)
    vessels = []
    for _ in range(spec.n_vessels):
        radius = rng.uniform(*spec.vessel_radius_range)
        vessels.append((vessel_path_reference(rng, dims, margin=2.0 + radius), radius))
    for path, radius in vessels:
        for point in path:
            paint_ball_reference(vol, point, radius, spec.vessel_hu)
    lesions = []
    for _ in range(spec.n_aneurysms):
        for _attempt in range(200):
            v_idx = int(rng.integers(len(vessels)))
            path, radius = vessels[v_idx]
            point = path[int(rng.integers(len(path)))]
            diameter = float(rng.uniform(*spec.aneurysm_diameter_range))
            center = point + (radius + 0.45 * diameter) * _random_unit(rng)
            box = BoundingBox(tuple(center), diameter)
            if any(l < 0.5 for l in box.lo) or any(
                h > d - 1.5 for h, d in zip(box.hi, dims)
            ):
                continue
            if all(_separated(box, l.box, 3.0) for l in lesions):
                labels = {
                    "size_class": size_class(diameter, spec.spacing),
                    "location": f"vessel-{v_idx}",
                }
                lesions.append(Lesion(box, labels))
                break
        else:
            raise ValueError("could not place the lesions")
    for lesion in lesions:
        paint_ball_reference(vol, lesion.box.center, lesion.box.diameter / 2.0, spec.aneurysm_hu)
    if spec.noise_sigma > 0:
        vol = vol + rng.normal(0.0, spec.noise_sigma, dims)
    values = np.clip(np.rint(vol), -32768, 32767).astype(np.int16)
    return Volume(values, spec.spacing, volume_id, cranial_axis="+z"), lesions


def reference_classifier_reference(patch_set, threshold=0.15):
    """The per-patch loop that rebuilt the sphere and shell masks for every
    patch and averaged boolean gathers; memoised masks must match its bits."""
    import numpy as np

    scores = []
    for patch in patch_set.patches:
        arr = patch.values
        shape = arr.shape
        radius = min(shape) / 4.0
        grids = np.ogrid[0:shape[0], 0:shape[1], 0:shape[2]]
        d2 = sum((g - (s - 1) / 2.0) ** 2 for g, s in zip(grids, shape))
        inner = d2 <= radius * radius
        shell = (d2 > radius * radius) & (d2 <= 4.0 * radius * radius)
        bright = arr > threshold
        frac_in = float(bright[inner].mean()) if inner.any() else 0.0
        frac_shell = float(bright[shell].mean()) if shell.any() else 0.0
        scores.append(float(np.clip(0.5 + 0.5 * (frac_in - frac_shell), 0.0, 1.0)))
    return tuple(scores)


def best_f1_threshold_reference(scores):
    """The exhaustive loop that ``evaluation.best_f1_threshold`` replaced:
    one confusion count per distinct score (plus an accept-all threshold),
    ties toward the higher threshold."""
    from ctadet.stats import confusion_at_threshold

    if not any(flag for _, flag in scores):
        raise ValueError("best F1 threshold requires at least one positive volume")
    distinct = sorted({s for s, _ in scores})
    best = None
    for t in [distinct[0] - 1.0] + distinct:
        m = confusion_at_threshold(scores, t)
        if math.isnan(m.f1):
            continue
        if best is None or m.f1 >= best[1].f1:
            best = (t, m)
    return best


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


def fisher_exact_reference(table) -> float:
    """The numpy ``fisher_exact`` that the plain-Python one replaced: its
    log-factorial table is ``np.cumsum`` of ``np.log``."""
    import numpy as np

    (a, b), (c, d) = table
    n = a + b + c + d
    r1, r2, c1 = a + b, c + d, a + c
    if 0 in (r1, r2, c1, b + d):
        return 1.0
    lf = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, n + 1)))))
    const = lf[c1] + lf[n - c1] - lf[n] + lf[r1] + lf[r2]

    def prob(k: int) -> float:
        return math.exp(const - lf[k] - lf[r1 - k] - lf[c1 - k] - lf[r2 - c1 + k])

    p_obs = prob(a)
    total = 0.0
    excluded = 0
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        p = prob(k)
        if p <= p_obs + 1e-12:
            total += p
        else:
            excluded += 1
    if excluded == 0:
        return 1.0
    return min(total, 1.0)


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
