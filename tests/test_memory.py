"""Peak-memory budget of the volume path on one CTA-sized scan.

Each command runs as a fresh ``python -m ctadet.cli`` process, and its peak
resident set size comes from the ``os.wait4`` rusage of that process, so
this test process and its imports do not count.  Every command has the same
fixed budget of 60 MiB for the interpreter, numpy and the pipeline's small
buffers, and no per-voxel allowance: ``synth`` writes each x-slab of the
phantom into z-regions of the file as it is filled, ``detect`` maps the raw
file read-only and its oracle scorer reads no voxel, and ``reduce``'s
reference classifier drops the mapping's pages whenever the patches it has
read span more than a few MiB of the file.  ``reduce`` is held to that
budget also on a file written in one ``write``, whose page cache may hold
large folios, each mapped whole when one of its voxels is read.
"""

import os
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


def _reduce_peak_mib(cwd: Path, out: str) -> float:
    peak = _peak_mib(["reduce", "--config", "config.json", "--manifest", "data/manifest.json",
                      "--candidates", "cand", "--out", out], cwd)
    assert (cwd / out / "vol-0000.cand.jsonl").read_text()  # something was rescored
    return peak


def test_reduce_within_budget(scan):
    reduce = _reduce_peak_mib(scan[0], "red")
    assert reduce <= FIXED_MIB, f"reduce peaked at {reduce:.1f} MiB"


def test_reduce_within_budget_on_a_file_written_at_once(scan):
    cwd = scan[0]
    raw = cwd / "data" / "vol-0000.vol.raw"
    data = raw.read_bytes()
    once = raw.with_name(raw.name + ".once")
    with open(once, "wb") as f:
        assert f.write(data) == 2 * VOXELS
    del data
    os.replace(once, raw)  # the same bytes, in a new file's page cache
    reduce = _reduce_peak_mib(cwd, "red-once")
    assert reduce <= FIXED_MIB, f"reduce peaked at {reduce:.1f} MiB"
