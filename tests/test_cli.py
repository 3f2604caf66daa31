import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctadet
from ctadet.cli import main
from ctadet.config import RunConfig
from ctadet.formats import read_manifest


def small_config(tmp_path, **overrides) -> Path:
    cfg = RunConfig.from_dict(
        {
            **RunConfig().to_dict(),
            **{
                "n_volumes": 3,
                "phantom_dims": [96, 96, 64],
                "n_aneurysms": 2,
                "aneurysm_diameter_range": [6.0, 12.0],
                "detector_hit_prob": 0.9,
                "detector_center_jitter": 0.5,
                "detector_fp_per_volume": 3.0,
                "detector_fp_prob_range": [0.3, 0.9],
                "detector_tp_prob_range": [0.5, 1.0],
                "bootstrap_resamples": 25,
                "negative_fraction": 0.34,
                "seed": 5,
            },
            **overrides,
        }
    )
    path = tmp_path / "config.json"
    cfg.to_file(path)
    return path


def tree_digest(*paths) -> str:
    h = hashlib.sha256()
    for root in paths:
        root = Path(root)
        files = sorted(p for p in root.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_dataset(tmp_path, config, name="data"):
    out = tmp_path / name
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_cli_import_leaves_scipy_out():
    # a fresh interpreter: this test process may have imported scipy already
    src = str(Path(ctadet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, ctadet.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestSynth:
    def test_manifest_lists_all_volumes(self, tmp_path):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        manifest = read_manifest(data / "manifest.json")
        assert len(manifest.volumes) == 3
        for entry in manifest.volumes:
            assert (data / entry.volume).exists()
            assert (data / f"{entry.volume_id}.vol.raw").exists()
        assert (data / "annotations.jsonl").exists()

    def test_same_seed_identical_output(self, tmp_path):
        config = small_config(tmp_path)
        a = run_dataset(tmp_path, config, "a")
        b = run_dataset(tmp_path, config, "b")
        assert tree_digest(a) == tree_digest(b)

    def test_zero_volumes(self, tmp_path):
        config = small_config(tmp_path, n_volumes=0)
        data = run_dataset(tmp_path, config)
        assert read_manifest(data / "manifest.json").volumes == ()

    def test_negative_fraction_produces_lesion_free_volumes(self, tmp_path):
        config = small_config(tmp_path, n_volumes=8)
        data = run_dataset(tmp_path, config)
        manifest = read_manifest(data / "manifest.json")
        counts = [v.n_lesions for v in manifest.volumes]
        assert any(c == 0 for c in counts)
        assert any(c > 0 for c in counts)

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_unwritable_out_exit_2(self, tmp_path):
        config = small_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where the output directory should go
        assert main(["synth", "--config", str(config), "--out", str(blocker)]) == 2


class TestDetect:
    def test_detect_writes_per_volume_candidates(self, tmp_path):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        out = tmp_path / "cand"
        rc = main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(out),
        ])
        assert rc == 0
        manifest = read_manifest(data / "manifest.json")
        for entry in manifest.volumes:
            assert (out / f"{entry.volume_id}.cand.jsonl").exists()

    def test_missing_volume_exit_3_names_id(self, tmp_path, capsys):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        (data / "vol-0001.vol.raw").unlink()
        rc = main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "cand"),
        ])
        assert rc == 3
        assert "vol-0001" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        out_a, out_b = tmp_path / "ca", tmp_path / "cb"
        for out in (out_a, out_b):
            assert main([
                "detect", "--config", str(config),
                "--manifest", str(data / "manifest.json"), "--out", str(out),
            ]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_jobs_do_not_change_output(self, tmp_path):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        out_1, out_2 = tmp_path / "j1", tmp_path / "j2"
        assert main([
            "detect", "--config", str(config), "--jobs", "1",
            "--manifest", str(data / "manifest.json"), "--out", str(out_1),
        ]) == 0
        assert main([
            "detect", "--config", str(config), "--jobs", "3",
            "--manifest", str(data / "manifest.json"), "--out", str(out_2),
        ]) == 0
        assert tree_digest(out_1) == tree_digest(out_2)


class TestReduceEvalCompare:
    @pytest.fixture()
    def pipeline(self, tmp_path):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        cand = tmp_path / "cand"
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(cand),
        ]) == 0
        return config, data, cand

    def test_reduce_then_eval_and_compare(self, tmp_path, pipeline):
        config, data, cand = pipeline
        reduced = tmp_path / "reduced"
        assert main([
            "reduce", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(reduced),
            "--classifier", "perfect",
        ]) == 0
        eval_1 = tmp_path / "eval1"
        eval_2 = tmp_path / "eval2"
        for cand_dir, out in ((cand, eval_1), (reduced, eval_2)):
            assert main([
                "eval", "--config", str(config),
                "--manifest", str(data / "manifest.json"),
                "--candidates", str(cand_dir), "--out", str(out),
            ]) == 0
            report = json.loads((out / "report.json").read_text())
            assert (out / "froc.csv").exists() and (out / "roc.csv").exists()
            assert report["froc"]["n_volumes"] == 3
        comparison_path = tmp_path / "comparison.json"
        assert main([
            "compare", "--report-a", str(eval_1 / "report.json"),
            "--report-b", str(eval_2 / "report.json"),
            "--out", str(comparison_path),
        ]) == 0
        comparison = json.loads(comparison_path.read_text())
        assert comparison["n_volumes"] == 3
        assert {row["name"] for row in comparison["operating_points"]} >= {
            "fppv_0.25", "fppv_1",
        }

    def test_report_validates_schema(self, tmp_path, pipeline):
        import jsonschema

        from ctadet.evaluation import REPORT_SCHEMA

        config, data, cand = pipeline
        out = tmp_path / "eval"
        assert main([
            "eval", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_eval_without_any_lesions_exit_3(self, tmp_path, capsys):
        config = small_config(tmp_path, n_volumes=2, negative_fraction=1.0)
        data = run_dataset(tmp_path, config)
        cand = tmp_path / "cand"
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(cand),
        ]) == 0
        rc = main([
            "eval", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(tmp_path / "eval"),
        ])
        assert rc == 3
        assert "lesion" in capsys.readouterr().err

    def test_eval_id_mismatch_exit_4(self, tmp_path, pipeline, capsys):
        config, data, cand = pipeline
        (cand / "vol-0002.cand.jsonl").unlink()
        rc = main([
            "eval", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(tmp_path / "eval"),
        ])
        assert rc == 4
        assert "vol-0002" in capsys.readouterr().err

    def test_reduce_unknown_id_exit_4(self, tmp_path, pipeline):
        config, data, cand = pipeline
        rogue = (cand / "vol-0000.cand.jsonl").read_text().replace("vol-0000", "ghost")
        (cand / "vol-0000.cand.jsonl").write_text(rogue)
        rc = main([
            "reduce", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(tmp_path / "r"),
        ])
        assert rc == 4  # a volume-set consistency error, as in eval

    def test_reduce_unknown_candidate_file_exit_4(self, tmp_path, pipeline, capsys):
        config, data, cand = pipeline
        copy = (cand / "vol-0000.cand.jsonl").read_text()
        (cand / "ghost.cand.jsonl").write_text(copy)
        rc = main([
            "reduce", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(tmp_path / "r"),
        ])
        assert rc == 4  # eval rejects the same directory
        assert "ghost" in capsys.readouterr().err

    def test_reduce_missing_candidates_exit_4(self, tmp_path, pipeline, capsys):
        config, data, cand = pipeline
        (cand / "vol-0002.cand.jsonl").unlink()
        rc = main([
            "reduce", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(tmp_path / "r"),
        ])
        assert rc == 4  # a volume-set consistency error, as in eval
        assert "vol-0002" in capsys.readouterr().err

    def test_compare_identical_reports_p_one(self, tmp_path, pipeline):
        config, data, cand = pipeline
        out = tmp_path / "eval"
        assert main([
            "eval", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(out),
        ]) == 0
        comparison_path = tmp_path / "cmp.json"
        assert main([
            "compare", "--report-a", str(out / "report.json"),
            "--report-b", str(out / "report.json"),
            "--out", str(comparison_path),
        ]) == 0
        comparison = json.loads(comparison_path.read_text())
        for row in comparison["operating_points"]:
            for key in ("p_accuracy", "p_sensitivity", "p_specificity"):
                assert row[key] is None or row[key] == 1.0

    def test_perfect_oracle_report_reaches_full_sensitivity(self, tmp_path):
        # default detector settings reproduce the truth exactly
        config = small_config(
            tmp_path,
            detector_hit_prob=1.0,
            detector_center_jitter=0.0,
            detector_fp_per_volume=0.0,
            detector_tp_prob_range=[1.0, 1.0],
            negative_fraction=0.0,
        )
        data = run_dataset(tmp_path, config)
        cand = tmp_path / "cand"
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(cand),
        ]) == 0
        out = tmp_path / "eval"
        assert main([
            "eval", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["avg_sensitivity"]["value"] == 1.0
        assert report["avg_sensitivity"]["ci"] == [1.0, 1.0]

    def test_compare_toy_tables_match_enumeration(self, tmp_path):
        from oracles import fisher_oracle

        # 8 volumes: 4 positive, 4 negative; thresholds at 0.5 give
        # accuracy [[6,2],[5,3]], sensitivity [[3,1],[1,3]], specificity [[3,1],[4,0]]
        a = _report_doc(
            [(0.9, True), (0.8, True), (0.7, True), (0.2, True),
             (0.6, False), (0.1, False), (0.1, False), (0.1, False)]
        )
        b = _report_doc(
            [(0.9, True), (0.2, True), (0.2, True), (0.2, True),
             (0.1, False), (0.1, False), (0.1, False), (0.1, False)]
        )
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        out = tmp_path / "cmp.json"
        assert main(["compare", "--report-a", str(pa), "--report-b", str(pb),
                     "--out", str(out)]) == 0
        row = json.loads(out.read_text())["operating_points"][0]
        assert row["p_accuracy"] == pytest.approx(
            float(fisher_oracle([[6, 2], [5, 3]])), rel=1e-10
        )
        assert row["p_sensitivity"] == pytest.approx(
            float(fisher_oracle([[3, 1], [1, 3]])), rel=1e-10
        )
        assert row["p_sensitivity"] == pytest.approx(34 / 70, rel=1e-10)
        assert row["p_specificity"] == pytest.approx(
            float(fisher_oracle([[3, 1], [4, 0]])), rel=1e-10
        )

    def test_compare_disjoint_volumes_exit_4(self, tmp_path):
        config = small_config(tmp_path, n_volumes=2, negative_fraction=0.0)
        data_a = run_dataset(tmp_path, config, "da")
        (tmp_path / "o").mkdir()
        other = small_config(tmp_path / "o", n_volumes=2, negative_fraction=0.0, seed=31)
        data_b = run_dataset(tmp_path / "o", other, "db")
        reports = []
        for tag, (c, d) in {"a": (config, data_a), "b": (other, data_b)}.items():
            cand = tmp_path / f"cand-{tag}"
            assert main([
                "detect", "--config", str(c),
                "--manifest", str(d / "manifest.json"), "--out", str(cand),
            ]) == 0
            out = tmp_path / f"eval-{tag}"
            assert main([
                "eval", "--config", str(c),
                "--manifest", str(d / "manifest.json"),
                "--candidates", str(cand), "--out", str(out),
            ]) == 0
            reports.append(out / "report.json")
        # same ids on both sides here; force a mismatch by renaming
        doc = json.loads(reports[1].read_text())
        for rec in doc["volume_scores"]:
            rec["volume_id"] = "x-" + rec["volume_id"]
        reports[1].write_text(json.dumps(doc))
        rc = main([
            "compare", "--report-a", str(reports[0]),
            "--report-b", str(reports[1]), "--out", str(tmp_path / "c.json"),
        ])
        assert rc == 4


def _report_doc(scores) -> dict:
    """The smallest report compare accepts: volume scores, one operating point."""
    return {
        "volume_scores": [
            {"volume_id": f"v{i}", "score": s, "has_lesion": flag}
            for i, (s, flag) in enumerate(scores)
        ],
        "operating_points": [
            {"name": "fixed", "threshold": 0.5, "score_rule": "gt", "metrics": {}}
        ],
        "froc": {"points": []},
    }


def _append_truncated_record(path: Path) -> str:
    """Append a record cut off mid-line; returns the ``name:line`` it sits on."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + '{"volume_id": "vol-0000", "center_vox": [1.0,\n')
    return f"{path.name}:{len(lines) + 1}"


def _corrupt(kind: str, data: Path, cand: Path) -> str:
    """Damage one input file; returns the location the error must name."""
    manifest = data / "manifest.json"
    if kind == "candidates":
        return _append_truncated_record(cand / "vol-0000.cand.jsonl")
    if kind == "annotations":
        return _append_truncated_record(data / "annotations.jsonl")
    if kind == "manifest-json":
        manifest.write_text(manifest.read_text()[:40])
        return "manifest.json:"
    if kind == "manifest-keys":
        doc = json.loads(manifest.read_text())
        del doc["volumes"]
        manifest.write_text(json.dumps(doc))
        return "manifest.json"
    # a volume header without dims, or with two, read inside a --jobs 2 worker
    header = data / "vol-0001.vol.json"
    doc = json.loads(header.read_text())
    if kind == "volume-dims":
        doc["dims"] = doc["dims"][:2]
    else:
        del doc["dims"]
    header.write_text(json.dumps(doc))
    return "vol-0001"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "kind,command",
        [
            ("candidates", "eval"),
            ("candidates", "reduce"),
            ("annotations", "detect"),
            ("manifest-json", "detect"),
            ("manifest-keys", "eval"),
            ("volume-header", "detect"),
            ("volume-dims", "detect"),
        ],
    )
    def test_exit_3_names_the_file(self, tmp_path, capsys, kind, command):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        cand = tmp_path / "cand"
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(cand),
        ]) == 0
        where = _corrupt(kind, data, cand)
        capsys.readouterr()
        args = [command, "--config", str(config), "--jobs", "2",
                "--manifest", str(data / "manifest.json"),
                "--out", str(tmp_path / "out")]
        if command != "detect":
            args += ["--candidates", str(cand)]
        assert main(args) == 3
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["unflagged-too-tall", "keeps-no-slices"])
    def test_preprocessing_data_error_exit_3(self, tmp_path, capsys, case):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)
        if case == "unflagged-too-tall":
            # 64 slices at 4 mm span 256 mm, over the 200 mm limit
            header = data / "vol-0001.vol.json"
            doc = json.loads(header.read_text())
            doc["cranial_axis"] = None
            doc["spacing_mm"][2] = 4.0
            header.write_text(json.dumps(doc))
        else:  # half a millimetre keeps no 1 mm slice
            config = small_config(tmp_path, cranial_max_extent_mm=0.5)
        capsys.readouterr()
        assert main([
            "detect", "--config", str(config), "--jobs", "2",
            "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "cand"),
        ]) == 3
        named = "vol-0001" if case == "unflagged-too-tall" else "vol-0000"
        assert f"volume {named!r}" in capsys.readouterr().err

    def test_grid_not_dividing_patch_exit_2(self, tmp_path, capsys):
        data = run_dataset(tmp_path, small_config(tmp_path))
        (tmp_path / "bad").mkdir()
        config = small_config(tmp_path / "bad", grid_size=25)
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--out", str(tmp_path / "cand"),
        ]) == 2
        assert "grid size 25" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            "not-json",
            "not-an-object",
            "volume_scores",
            "operating_points",
            "froc",
            "froc.points",
            "operating_points.name",
            "operating_points.threshold",
            "operating_points.score_rule",
        ],
    )
    def test_compare_malformed_report_exit_3(self, tmp_path, capsys, damage):
        doc = _report_doc([(0.9, True), (0.1, False)])
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        if damage == "not-json":
            text = json.dumps(doc)[:40]
        elif damage == "not-an-object":
            text = json.dumps([doc])
        else:  # "key" drops a top-level key, "key.field" a field of its first record
            key, _, field = damage.partition(".")
            owner = doc[key] if field else doc
            del (owner[0] if isinstance(owner, list) else owner)[field or key]
            text = json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for a, b in ((good, bad), (bad, good)):
            assert main(["compare", "--report-a", str(a), "--report-b", str(b),
                         "--out", str(tmp_path / "cmp.json")]) == 3
            assert "bad.json" in capsys.readouterr().err


class TestConfigValues:
    """Config values that would break detect or eval are config errors."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("config-values")
        config = small_config(root, n_volumes=2, phantom_dims=[64, 64, 48])
        data = run_dataset(root, config)
        cand = root / "cand"
        manifest = str(data / "manifest.json")
        assert main(["detect", "--config", str(config),
                     "--manifest", manifest, "--out", str(cand)]) == 0
        assert main(["eval", "--config", str(config), "--manifest", manifest,
                     "--candidates", str(cand), "--out", str(root / "eval")]) == 0
        return data, cand

    CASES = [
        ("detect", "tile_overlap", 96),
        ("detect", "tile_overlap", -5),
        ("detect", "anchor_sizes", []),
        ("detect", "anchor_sizes", [0]),
        ("detect", "hu_window", [0, 0]),
        ("eval", "bootstrap_resamples", 0),
        ("eval", "fppv_grid", []),
        ("eval", "fppv_grid", [-1.0, 1.0]),
        ("eval", "operating_fppvs", [-0.5]),
        ("eval", "bootstrap_level", 1.5),
    ]

    @pytest.mark.parametrize(
        "command, field, value",
        CASES,
        ids=[f"{command}-{field}={json.dumps(value, separators=(',', ':'))}"
             for command, field, value in CASES],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, dataset, command, field, value):
        data, cand = dataset
        config = small_config(
            tmp_path, n_volumes=2, phantom_dims=[64, 64, 48], **{field: value}
        )
        args = [command, "--config", str(config),
                "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "out")]
        if command == "eval":
            args += ["--candidates", str(cand)]
        capsys.readouterr()
        assert main(args) == 2
        assert field in capsys.readouterr().err


# Plugins that break their output contract: scorers wrap the oracle scorer
# and spoil its array, classifiers return a fixed result.
_BAD_PLUGINS = """
import numpy as np

from ctadet.pipeline import oracle_scorer_factory


class _Spoiled:
    def __init__(self, inner, spoil):
        self.inner, self.spoil = inner, spoil

    def score(self, patch, tile, grid):
        return self.spoil(self.inner.score(patch, tile, grid))


def _scorer(spoil):
    def factory(volume, lesions, cfg, seed):
        return _Spoiled(oracle_scorer_factory(volume, lesions, cfg, seed), spoil)
    return factory


def _first_p(value):
    def spoil(preds):
        preds[0, 0] = value
        return preds
    return spoil


def _nan_dx(preds):
    preds[preds[:, 0] > 0, 1] = np.nan  # every row that decodes to a candidate
    return preds


one_row_short = _scorer(lambda preds: preds[:-1])
nan_dx = _scorer(_nan_dx)
nan_p = _scorer(_first_p(np.nan))
p_above_one = _scorer(_first_p(1.5))


def _classifier(result):
    def factory(volume, lesions, cfg):
        return lambda patch_set: result
    return factory


above_one = _classifier((1.5, 0.5, 0.5))
nan_prob = _classifier((float("nan"), 0.5, 0.5))
two_values = _classifier((0.5, 0.5))
"""


class TestPluginOutput:
    @pytest.fixture()
    def dataset(self, tmp_path, monkeypatch):
        (tmp_path / "bad_plugins.py").write_text(_BAD_PLUGINS)
        monkeypatch.syspath_prepend(str(tmp_path))
        config = small_config(tmp_path)
        return config, run_dataset(tmp_path, config)

    @pytest.mark.parametrize(
        "scorer, problem",
        [
            ("one_row_short", "shape"),
            ("nan_dx", "NaN"),
            ("nan_p", "NaN"),
            ("p_above_one", "outside [0, 1]"),
        ],
    )
    def test_bad_scorer_output_exit_3(self, tmp_path, capsys, dataset, scorer, problem):
        config, data = dataset
        capsys.readouterr()
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "c"),
            "--detector", f"bad_plugins:{scorer}",
        ]) == 3
        err = capsys.readouterr().err
        assert "volume 'vol-0000', tile at (0, 0, 0)" in err and problem in err

    @pytest.mark.parametrize("classifier", ["above_one", "nan_prob", "two_values"])
    def test_bad_classifier_output_exit_3(self, tmp_path, capsys, dataset, classifier):
        config, data = dataset
        cand = tmp_path / "cand"
        assert main([
            "detect", "--config", str(config),
            "--manifest", str(data / "manifest.json"), "--out", str(cand),
        ]) == 0
        capsys.readouterr()
        assert main([
            "reduce", "--config", str(config),
            "--manifest", str(data / "manifest.json"),
            "--candidates", str(cand), "--out", str(tmp_path / "r"),
            "--classifier", f"bad_plugins:{classifier}",
        ]) == 3
        err = capsys.readouterr().err
        assert "volume 'vol-0000'" in err and "classifier output" in err
