"""Golden digest: all five CLI commands on a small fixed config must keep
producing byte-identical outputs across commits.

The config lists only its overrides, so a new ``RunConfig`` field with a
default does not move the digest.  Its 208 mm z extent makes ``detect``
truncate every volume cranially and shift candidates back to input
coordinates; at seed 5 two of the six volumes are lesion-free.  Commands
run from the tree root with relative paths, because ``report.json``
records the paths it was given.

A change that moves the digest on purpose must say why in CHANGES.md.
"""

from pathlib import Path

from ctadet.cli import main
from test_acceptance import _tree_digest

GOLDEN_CONFIG = """\
{"n_volumes": 6, "phantom_dims": [96, 96, 208], "negative_fraction": 0.3,
 "detector_hit_prob": 0.9, "detector_center_jitter": 1.0,
 "detector_fp_per_volume": 4.0, "detector_fp_prob_range": [0.1, 0.9],
 "detector_tp_prob_range": [0.5, 1.0], "seed": 5}
"""

GOLDEN_DIGEST = "0e5a9d93719a309c2f4acd0bcbbd40b2e360b878ba12faeac5b14202d7c17018"


def test_golden_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(GOLDEN_CONFIG)
    common = ["--config", "config.json"]
    manifest = ["--manifest", "data/manifest.json"]
    assert main(["synth", *common, "--out", "data"]) == 0
    assert main(["detect", *common, *manifest, "--out", "cand"]) == 0
    assert main(["reduce", *common, *manifest, "--candidates", "cand",
                 "--out", "reduced"]) == 0
    assert main(["eval", *common, *manifest, "--candidates", "cand",
                 "--out", "eval-stage1"]) == 0
    assert main(["eval", *common, *manifest, "--candidates", "reduced",
                 "--out", "eval-reduced"]) == 0
    assert main(["compare", "--report-a", "eval-stage1/report.json",
                 "--report-b", "eval-reduced/report.json",
                 "--out", "comparison.json"]) == 0
    assert _tree_digest(tmp_path) == GOLDEN_DIGEST
