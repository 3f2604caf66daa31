"""Peak-memory budget of the volume path on one CTA-sized scan.

Each command runs as a fresh ``python -m ctadet.cli`` process, and its peak
resident set size comes from the ``os.wait4`` rusage of that process, so
this test process and its imports do not count.  The budgets are a fixed
60 MiB for the interpreter, numpy and the pipeline's small buffers, plus a
per-voxel allowance: 4 bytes for ``synth`` (a uint8 label canvas and the
int16 phantom) and 3 bytes for ``detect`` (the int16 volume as read, with
truncation a view of it).
"""

import os
import subprocess
import sys
from pathlib import Path

import ctadet
from ctadet.config import RunConfig

DIMS = (256, 256, 240)
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


def test_synth_and_detect_within_budget(tmp_path):
    # 240 slices at 1 mm exceed the 200 mm cranial limit, so detect truncates
    RunConfig(
        n_volumes=1,
        phantom_dims=DIMS,
        phantom_spacing=(0.8, 0.8, 1.0),
        n_vessels=8,
        n_aneurysms=6,
    ).to_file(tmp_path / "config.json")
    voxels = DIMS[0] * DIMS[1] * DIMS[2]
    synth = _peak_mib(["synth", "--config", "config.json", "--out", "data"], tmp_path)
    detect = _peak_mib(["detect", "--config", "config.json",
                        "--manifest", "data/manifest.json", "--out", "cand"], tmp_path)
    assert synth <= 4 * voxels / MIB + FIXED_MIB, f"synth peaked at {synth:.1f} MiB"
    assert detect <= 3 * voxels / MIB + FIXED_MIB, f"detect peaked at {detect:.1f} MiB"
