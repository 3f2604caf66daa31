"""Each CLI command loads only the modules it runs, and the names that the
benchmark's tracer wraps on ``ctadet.cli`` are the ones the commands call.

Import sets are read in fresh interpreters, because this test process has
loaded every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctadet
from ctadet import cli
from ctadet.cli import main
from test_cli import small_config, tree_digest
from test_trace_targets import TARGETS

SRC = str(Path(ctadet.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

# argv: "block-numpy", "block-scipy" or "-", then the command line; prints
# the exit code and the ctadet modules loaded, plus "numpy" and "numpy.ma"
# if they were
_PROBE = """
import json, sys
if sys.argv[1] != "-":
    sys.modules[sys.argv[1].removeprefix("block-")] = None
from ctadet.cli import main
code = main(sys.argv[2:])
loaded = sorted(m for m, mod in sys.modules.items() if mod is not None
                and (m.startswith("ctadet") or m in ("numpy", "numpy.ma")))
print(json.dumps([code, loaded]))
"""


def _probe(cwd, argv, block=None) -> set:
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, f"block-{block}" if block else "-", *argv],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    return set(loaded)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A tiny dataset run through every command, and each command's
    arguments for a rerun into fresh outputs."""
    root = tmp_path_factory.mktemp("chain")
    common = ["--config", str(small_config(root))]
    manifest = ["--manifest", "data/manifest.json"]
    argv = {
        "synth": ["synth", *common, "--out", "data"],
        "detect": ["detect", *common, *manifest, "--out", "cand"],
        "reduce": ["reduce", *common, *manifest, "--candidates", "cand", "--out", "red"],
        "eval1": ["eval", *common, *manifest, "--candidates", "cand", "--out", "ev1"],
        "eval": ["eval", *common, *manifest, "--candidates", "red", "--out", "ev"],
        "compare": ["compare", *common, "--report-a", "ev1/report.json",
                    "--report-b", "ev/report.json", "--out", "cmp.json"],
    }
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for args in argv.values():
            assert main(args) == 0
    finally:
        os.chdir(cwd)
    rerun = {name: [*args[:-1], f"{args[-1]}-rerun"] for name, args in argv.items()}
    return root, rerun


def _modules(*names) -> set:
    return {f"ctadet.{n}" for n in names}


def test_compare_loads_no_numpy(chain):
    root, argv = chain
    loaded = _probe(root, argv["compare"])
    assert loaded == {"ctadet"} | _modules("cli", "config", "stats")
    assert (root / "cmp.json-rerun").read_bytes() == (root / "cmp.json").read_bytes()


def test_compare_runs_with_numpy_blocked(chain):
    root, argv = chain
    _probe(root, argv["compare"], block="numpy")
    assert (root / "cmp.json-rerun").read_bytes() == (root / "cmp.json").read_bytes()


def test_chain_runs_with_scipy_blocked(chain):
    root, argv = chain
    for args in argv.values():
        first = root / args[-1].removesuffix("-rerun")
        out = f"{first.name}-noscipy"
        _probe(root, [*args[:-1], out], block="scipy")
        if first.is_file():
            assert (root / out).read_bytes() == first.read_bytes()
        else:
            assert tree_digest(root / out) == tree_digest(first)


@pytest.mark.parametrize("command, unused", [
    ("eval", _modules("synth", "pipeline", "fpr", "volume", "loss") | {"numpy.ma"}),
    ("detect", _modules("evaluation", "loss")),
    ("reduce", _modules("evaluation", "loss")),
    ("synth", _modules("pipeline", "evaluation", "loss")),
])
def test_command_leaves_unused_modules_out(chain, command, unused):
    root, argv = chain
    loaded = _probe(root, argv[command])
    assert "ctadet.cli" in loaded and not loaded & unused


CLI_TARGETS = sorted({attr for module, attr, _, _ in TARGETS if module == "ctadet.cli"})


def test_wrappers_on_cli_names_are_called(tmp_path, monkeypatch):
    calls = dict.fromkeys(CLI_TARGETS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in CLI_TARGETS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.chdir(tmp_path)
    common = ["--config", str(small_config(tmp_path)), "--jobs", "1"]
    manifest = ["--manifest", "data/manifest.json"]
    assert main(["synth", *common, "--out", "data"]) == 0
    assert main(["detect", *common, *manifest, "--out", "cand"]) == 0
    assert main(["reduce", *common, *manifest, "--candidates", "cand", "--out", "red"]) == 0
    assert main(["eval", *common, *manifest, "--candidates", "red", "--out", "ev"]) == 0
    assert main(["compare", *common, "--report-a", "ev/report.json",
                 "--report-b", "ev/report.json", "--out", "cmp.json"]) == 0
    assert len(CLI_TARGETS) == 11
    assert [name for name, n in calls.items() if n == 0] == []


# argv: the start method, then the command line
_START = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from ctadet.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_spawned_workers_bind_their_own_names(tmp_path):
    config = str(small_config(tmp_path))
    digests = {}
    for method in ("fork", "spawn"):
        common = ["--config", config, "--jobs", "2"]
        manifest = ["--manifest", f"{method}/data/manifest.json"]
        for argv in (
            ["synth", *common, "--out", f"{method}/data"],
            ["detect", *common, *manifest, "--out", f"{method}/cand"],
            ["reduce", *common, *manifest, "--candidates", f"{method}/cand",
             "--out", f"{method}/red"],
        ):
            out = subprocess.run([sys.executable, "-c", _START, method, *argv], cwd=tmp_path,
                                 env=ENV, capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
        digests[method] = tree_digest(tmp_path / method)
    assert digests["spawn"] == digests["fork"]
