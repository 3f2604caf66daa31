"""In-process tracing of ctadet for the benchmark's traced run.

Each public function is wrapped where its caller looks it up (the caller
module's global, e.g. ``ctadet.pipeline.anchor_grid``), because patching
only the defining module misses calls made through ``from .x import y``.
A wrapper records a span (name, start, end, parent span) and updates
counters from the call's arguments and result.  Spans stay in memory;
the benchmark writes them out when it ends.

A target that a later refactor removes is skipped, and the metrics it
fed are then absent from the output instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def self_times(self):
        """Self time per (stage, span name): span minus its child spans.

        The stage is the name of the span's top-level ancestor.
        """
        child = [0.0] * len(self.spans)
        stage = [None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                stage[i] = stage[parent]
            else:
                stage[i] = name
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[stage[i], name] += (end - start) - child[i]
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]


def _bound_arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Counter hooks: (tracer, wrapped function, args, kwargs, result) -> None.
# Each declares the counters it fills, so that a hook broken by a changed
# signature can mark exactly those counters absent.

def _fills(*names):
    def mark(hook):
        hook.counters = names
        return hook

    return mark


@_fills("volume.read_mb")
def _count_read_mb(tr, fn, args, kwargs, result):
    tr.counts["volume.read_mb"] += result.values.nbytes / 1e6


@_fills("volume.tiles")
def _count_tiles(tr, fn, args, kwargs, result):
    tr.counts["volume.tiles"] += len(result)


@_fills("pipeline.decode_rows", "pipeline.decode_kept")
def _count_decode(tr, fn, args, kwargs, result):
    tr.counts["pipeline.decode_rows"] += len(_bound_arg(fn, args, kwargs, "preds"))
    tr.counts["pipeline.decode_kept"] += len(result)


def _count_nms(site):
    @_fills(f"postproc.nms_{site}_in", f"postproc.nms_{site}_kept")
    def hook(tr, fn, args, kwargs, result):
        tr.counts[f"postproc.nms_{site}_in"] += len(_bound_arg(fn, args, kwargs, "cands"))
        tr.counts[f"postproc.nms_{site}_kept"] += len(result)

    return hook


@_fills("fpr.dropped")
def _count_dropped(tr, fn, args, kwargs, result):
    tr.counts["fpr.dropped"] += len(_bound_arg(fn, args, kwargs, "candidates")) - len(result)


@_fills("formats.candidate_records")
def _count_records(tr, fn, args, kwargs, result):
    tr.counts["formats.candidate_records"] += len(result)


# (module, attribute, span name, counter hook).  A dotted attribute names
# a method on a class of that module.
TARGETS = (
    ("ctadet.cli", "read_volume", "volume.read_volume", _count_read_mb),
    ("ctadet.cli", "write_volume", "volume.write_volume", None),
    ("ctadet.pipeline", "truncate_cranial", "volume.truncate_cranial", None),
    ("ctadet.pipeline", "tile_volume", "volume.tile_volume", _count_tiles),
    ("ctadet.pipeline", "extract_patch", "volume.extract_patch", None),
    ("ctadet.fpr", "extract_patch", "volume.extract_patch", None),
    ("ctadet.pipeline", "normalize_hu", "volume.normalize_hu", None),
    ("ctadet.fpr", "normalize_hu", "volume.normalize_hu", None),
    ("ctadet.pipeline", "anchor_grid", "anchors.anchor_grid", None),
    ("ctadet.cli", "detect_volume", "pipeline.detect_volume", None),
    ("ctadet.cli", "reduce_volume", "pipeline.reduce_volume", _count_dropped),
    ("ctadet.pipeline", "OracleTileScorer.score", "pipeline.score", None),
    ("ctadet.pipeline", "_decode_grid", "pipeline.decode", _count_decode),
    ("ctadet.pipeline", "merge_tiles", "postproc.merge_tiles", None),
    ("ctadet.postproc", "nms", "postproc.nms_merge", _count_nms("merge")),
    ("ctadet.fpr", "nms", "postproc.nms_select", _count_nms("select")),
    ("ctadet.pipeline", "extract_fpr_patches", "fpr.extract_fpr_patches", None),
    ("ctadet.cli", "reference_classifier", "fpr.classifier", None),
    ("ctadet.pipeline", "rescore", "fpr.rescore", None),
    ("ctadet.cli", "generate_phantom", "synth.generate_phantom", None),
    ("ctadet.pipeline", "oracle_detect", "synth.oracle_detect", None),
    ("ctadet.cli", "build_report", "evaluation.build_report", None),
    ("ctadet.evaluation", "bootstrap_ci", "evaluation.bootstrap_ci", None),
    ("ctadet.evaluation", "match_lesions", "evaluation.match_lesions", None),
    ("ctadet.cli", "fisher_exact", "evaluation.fisher_exact", None),
    ("ctadet.cli", "read_candidates", "formats.read_candidates", _count_records),
    ("ctadet.cli", "write_candidates", "formats.write_candidates", None),
    ("ctadet.cli", "read_annotations", "formats.read_annotations", None),
)


class Instrumentation:
    """Installs the wrappers once; each traced pass swaps in a new Tracer.

    ``spans`` holds the span names with at least one wrapper installed and
    ``counters`` the counters being filled; a hook that fails on a changed
    signature removes its counters from ``counters`` instead of raising.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.spans = set()
        self.counters = set()

    def install(self):
        for module_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            params = set(inspect.signature(fn).parameters)
            if span == "evaluation.bootstrap_ci" and {"statistic", "n_resamples"} <= params:
                wrapper = self._wrap_bootstrap(fn)
            else:
                wrapper = self._wrap(fn, span, hook)
            setattr(owner, leaf, wrapper)

    def _wrap(self, fn, span, hook):
        calls = span + "_calls"
        self.spans.add(span)
        self.counters.add(calls)
        if hook is not None:
            self.counters.update(hook.counters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr = self.tracer
            tr.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end()
            tr.counts[calls] += 1
            if hook is not None:
                try:
                    hook(tr, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    self.counters.difference_update(hook.counters)
            return result

        return wrapper

    def _wrap_bootstrap(self, fn):
        """bootstrap_ci plus a span and call count around its statistic."""
        outer = self._wrap(fn, "evaluation.bootstrap_ci", None)
        stat_span = "evaluation.bootstrap_stat"
        self.spans.add(stat_span)
        self.counters.update((stat_span + "_calls", "evaluation.bootstrap_resamples"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            statistic = bound.arguments["statistic"]

            def traced_statistic(sample):
                tr = self.tracer
                tr.counts[stat_span + "_calls"] += 1
                tr.begin(stat_span)
                try:
                    return statistic(sample)
                finally:
                    tr.end()

            bound.arguments["statistic"] = traced_statistic
            self.tracer.counts["evaluation.bootstrap_resamples"] += int(
                bound.arguments["n_resamples"]
            )
            return outer(*bound.args, **bound.kwargs)

        return wrapper
