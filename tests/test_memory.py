"""Peak-memory budget of the volume path on one CTA-sized scan.

Each command runs as a fresh ``python -m ctadet.cli`` process, and its peak
resident set size comes from the ``os.wait4`` rusage of that process, so
this test process and its imports do not count.  Every command has the same
fixed budget of 60 MiB for the interpreter, numpy and the pipeline's small
buffers, and no per-voxel allowance: ``synth`` appends each z-slab of the
phantom to the file as it is filled, ``detect`` maps the raw
file read-only and its oracle scorer reads no voxel (``detect`` is also
held to the budget on a default scan with a plugin scorer at the density
of an image-driven first stage, where NMS keeps only the pairs that
suppress), and ``reduce``'s
reference classifier drops the mapping's pages whenever the patches it has
read span more than a few MiB of the file.  ``reduce`` is held to that
budget also on a file written in one ``write``, whose page cache may hold
large folios, each mapped whole when one of its voxels is read, and there
also with a plugin classifier that reads through ``FprBatch.patch_sets``.

A ``reduce`` that kept every page it read would still fit 60 MiB at this
scan size, so each ``reduce`` is also held to the same scan's
``reduce --classifier perfect`` peak, which reads no voxel, plus a fixed
allowance: a releasing ``reduce`` peaks 6 to 13 MiB above ``perfect``, and
one that keeps its pages about 26 MiB above.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctadet
from ctadet.config import RunConfig

DIMS = (256, 256, 240)
VOXELS = DIMS[0] * DIMS[1] * DIMS[2]
MIB = 1 << 20
FIXED_MIB = 60.0
ABOVE_PERFECT_MIB = 20.0

# a plugin classifier that reads every candidate's patches
PLUGIN = """
def factory(volume, lesions, cfg):
    def classify(batch):
        return [[float((p.values > 0.15).mean()) for p in ps.patches]
                for ps in batch.patch_sets()]
    return classify
"""

# a detector plugin at the density of an image-driven first stage: p = 0.5
# and zero offsets for every anchor centred within 8 voxels, on each axis,
# of one of nine points, which on a default scan's four tiles gives 6,912
# rows above the floor and 2,255,360 pairs of them that overlap
DENSE_DETECTOR = """
import numpy as np

POINTS = [(x, y, 48.0) for x in (40.0, 64.0, 88.0) for y in (40.0, 64.0, 88.0)]

class Scorer:
    def score(self, volume, tile, grid):
        center = grid.position + tile.origin
        near = np.zeros(len(grid), dtype=bool)
        for point in POINTS:
            near |= (np.abs(center - point) <= 8.0).all(axis=1)
        preds = np.zeros((len(grid), 5))
        preds[near, 0] = 0.5
        return preds

def factory(volume, lesions, cfg, seed):
    return Scorer()
"""


# Linux starts a child's ru_maxrss at the peak of the memory it was forked
# from, and this test process may have grown past the budgets, so a small
# launcher process starts each command and reports its peak.
LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "w") as err:
    proc = subprocess.Popen([sys.executable, "-m", "ctadet.cli", *sys.argv[2:]],
                            stdout=subprocess.DEVNULL, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mib(argv, cwd: Path) -> float:
    src = str(Path(ctadet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    err = cwd / f"{argv[0]}.err"
    out = subprocess.run([sys.executable, "-c", LAUNCHER, str(err), *argv], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    code, maxrss = (int(v) for v in out.stdout.split())
    assert code == 0, err.read_text()
    return maxrss / 1024.0  # KiB on Linux


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    """A run directory holding one written scan and its candidates, and
    the peaks of the synth and detect commands that wrote them."""
    cwd = tmp_path_factory.mktemp("scan")
    # 240 slices at 1 mm exceed the 200 mm cranial limit, so detect truncates
    RunConfig(
        n_volumes=1,
        phantom_dims=DIMS,
        phantom_spacing=(0.8, 0.8, 1.0),
        n_vessels=8,
        n_aneurysms=6,
        detector_fp_per_volume=40.0,
        detector_fp_prob_range=(0.06, 0.9),
    ).to_file(cwd / "config.json")
    synth = _peak_mib(["synth", "--config", "config.json", "--out", "data"], cwd)
    detect = _peak_mib(["detect", "--config", "config.json",
                        "--manifest", "data/manifest.json", "--out", "cand"], cwd)
    return cwd, synth, detect


def test_synth_and_detect_within_budget(scan):
    _, synth, detect = scan
    assert synth <= FIXED_MIB, f"synth peaked at {synth:.1f} MiB"
    assert detect <= FIXED_MIB, f"detect peaked at {detect:.1f} MiB"


def test_detect_within_budget_at_proposal_density(tmp_path):
    RunConfig(n_volumes=1).to_file(tmp_path / "config.json")
    (tmp_path / "dense_detector.py").write_text(DENSE_DETECTOR)
    _peak_mib(["synth", "--config", "config.json", "--out", "data"], tmp_path)
    detect = _peak_mib(["detect", "--config", "config.json", "--manifest", "data/manifest.json",
                        "--out", "cand", "--detector", "dense_detector:factory"], tmp_path)
    assert (tmp_path / "cand" / "vol-0000.cand.jsonl").read_text()
    assert detect <= FIXED_MIB, f"detect peaked at {detect:.1f} MiB"


def _reduce_peak_mib(cwd: Path, out: str, *options: str) -> float:
    peak = _peak_mib(["reduce", "--config", "config.json", "--manifest", "data/manifest.json",
                      "--candidates", "cand", "--out", out, *options], cwd)
    assert (cwd / out / "vol-0000.cand.jsonl").read_text()  # something was rescored
    return peak


def _assert_reduce_within_budget(cwd: Path, out: str, *options: str) -> None:
    perfect = _reduce_peak_mib(cwd, f"{out}-perfect", "--classifier", "perfect")
    reduce = _reduce_peak_mib(cwd, out, *options)
    assert reduce <= FIXED_MIB, f"reduce peaked at {reduce:.1f} MiB"
    assert reduce <= perfect + ABOVE_PERFECT_MIB, (
        f"reduce peaked at {reduce:.1f} MiB, {reduce - perfect:.1f} above perfect's")


@pytest.fixture(scope="module")
def once(scan, tmp_path_factory):
    """A copy of the scan's run directory whose raw file was written in one
    ``write``, so that its page cache is a new file's, and which holds the
    plugin module."""
    cwd = tmp_path_factory.mktemp("once")
    shutil.copytree(scan[0], cwd, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("*.vol.raw", "red*"))
    raw = Path("data", "vol-0000.vol.raw")
    data = (scan[0] / raw).read_bytes()
    with open(cwd / raw, "wb") as f:
        assert f.write(data) == 2 * VOXELS
    del data
    (cwd / "patch_sets_plugin.py").write_text(PLUGIN)
    return cwd


def test_reduce_within_budget(scan):
    _assert_reduce_within_budget(scan[0], "red")


def test_reduce_within_budget_on_a_file_written_at_once(once):
    _assert_reduce_within_budget(once, "red-once")


def test_patch_sets_plugin_within_budget_on_a_file_written_at_once(once):
    _assert_reduce_within_budget(once, "red-plugin", "--classifier", "patch_sets_plugin:factory")
