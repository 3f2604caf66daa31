"""The benchmark's trace targets still exist in the package.

``perfbench/tracing.py`` skips a target whose module attribute is gone and
drops the counters of a hook whose argument no longer binds, so a rename
would silently remove per-layer metrics.  These tests read its
``TARGETS`` table without installing any wrapper.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_targets():
    # exec the source, so that no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = _load_targets()


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def _hooked_args(hook):
    """Argument names a counter hook reads through ``_bound_arg``."""
    return re.findall(r'_bound_arg\(fn, args, kwargs, "(\w+)"\)', inspect.getsource(hook))


@pytest.mark.parametrize("module_name, attr, span, hook", TARGETS,
                         ids=[f"{m}.{a}" for m, a, _, _ in TARGETS])
def test_target_resolves(module_name, attr, span, hook):
    assert callable(_resolve(module_name, attr)), f"{module_name}.{attr} is gone"


def test_hooked_arguments_bind():
    hooked = {
        (module_name, attr): _hooked_args(hook)
        for module_name, attr, _, hook in TARGETS
        if hook is not None and _hooked_args(hook)
    }
    assert hooked == {
        ("ctadet.pipeline", "_decode_grid"): ["preds"],
        ("ctadet.postproc", "nms"): ["cands"],
        ("ctadet.fpr", "nms"): ["cands"],
        ("ctadet.cli", "reduce_volume"): ["candidates"],
    }
    for (module_name, attr), names in hooked.items():
        params = inspect.signature(_resolve(module_name, attr)).parameters
        for name in names:
            assert name in params, f"{module_name}.{attr} has no {name!r} argument"
