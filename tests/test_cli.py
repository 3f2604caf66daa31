import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctadet
from ctadet.cli import main
from ctadet.config import RunConfig, load_json
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


def test_cli_import_leaves_process_pool_out():
    # the pool is imported only where --jobs above 1 starts one
    src = str(Path(ctadet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, ctadet.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


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

    @pytest.mark.parametrize("field, value", [
        ("vessel_radius_range", [2.0]),
        ("aneurysm_diameter_range", []),
        pytest.param("vessel_radius_range", [4.0, 2.0], id="vessel_radius_range-reversed"),
        pytest.param("aneurysm_diameter_range", [0.0, 0.0], id="aneurysm_diameter_range-zero"),
        pytest.param("vessel_radius_range", [-1.0, 2.0], id="vessel_radius_range-negative"),
        pytest.param("n_vessels", -1, id="n_vessels-negative"),
        pytest.param("n_aneurysms", -1, id="n_aneurysms-negative"),
        pytest.param("phantom_noise_sigma", -1.0, id="phantom_noise_sigma-negative"),
    ])
    def test_short_phantom_range_exit_2(self, tmp_path, capsys, field, value):
        # every phantom value is checked with the config, so detect refuses it too
        config = small_config(tmp_path, **{field: value})
        for command in ("synth", "detect"):
            args = ["--manifest", str(tmp_path / "manifest.json")] if command == "detect" else []
            capsys.readouterr()
            assert main([command, "--config", str(config), *args,
                         "--out", str(tmp_path / "x")]) == 2
            assert field in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    def test_aneurysms_without_vessels_exit_2(self, tmp_path, capsys):
        config = small_config(tmp_path, n_vessels=0, negative_fraction=0.0)
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert "aneurysms attach to vessels" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_aneurysms_without_vessels_synth_lesion_free(self, tmp_path):
        # every volume is lesion-free, so none needs a vessel to attach to
        config = small_config(tmp_path, n_vessels=0, negative_fraction=1.0)
        data = run_dataset(tmp_path, config)
        assert [v.n_lesions for v in read_manifest(data / "manifest.json").volumes] == [0] * 3

    @pytest.mark.parametrize("field, value", [
        ("phantom_dims", [64, 64]),
        ("phantom_dims", [64, 64, 48, 48]),
        ("phantom_spacing", [1.0, 1.0]),
        ("phantom_spacing", [0, 1, 1]),
        ("phantom_spacing", [-1, 1, 1]),
    ])
    def test_phantom_geometry_needs_3_entries_exit_2(self, tmp_path, capsys, field, value):
        config = small_config(tmp_path, **{field: value})
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{field} needs 3 entries" in err and "broadcast" not in err

    @pytest.mark.parametrize("dims", [[0, 64, 64], [-64, 64, 64], [64, 64, 0]])
    @pytest.mark.parametrize("command", ["synth", "detect"])
    def test_phantom_dims_below_1_exit_2(self, tmp_path, capsys, dims, command):
        config = small_config(tmp_path, phantom_dims=dims)
        capsys.readouterr()
        args = ["--manifest", str(tmp_path / "manifest.json")] if command == "detect" else []
        assert main([command, "--config", str(config), *args, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"phantom_dims needs 3 entries of at least 1, got {dims}" in err
        assert "range()" not in err and "negative dimensions" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dims_too_small_for_vessels_exit_2(self, tmp_path, capsys, jobs):
        config = small_config(tmp_path, n_volumes=2, phantom_dims=[8, 8, 8])
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "phantom_dims [8, 8, 8]" in err and "vessel radius" in err
        assert "high - low" not in err
        assert not (out / "manifest.json").exists()

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


class TestVolumeIds:
    """A manifest volume id names the command's output files, so one that is
    not a plain file name, or appears twice, is a data error."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("volume-ids")
        config = small_config(root, n_volumes=2, phantom_dims=[64, 64, 48])
        data = run_dataset(root, config)
        cand = root / "cand"
        assert main(["detect", "--config", str(config),
                     "--manifest", str(data / "manifest.json"), "--out", str(cand)]) == 0
        return config, data, cand

    @staticmethod
    def _manifest(tmp_path, data, ids) -> Path:
        """A copy of the dataset's manifest, with absolute paths, listing the
        volumes under ``ids``."""
        doc = load_json((data / "manifest.json").read_text())
        doc["annotations"] = str(data / doc["annotations"])
        doc["volumes"] = [dict(v, volume_id=vid, volume=str(data / v["volume"]))
                          for vid, v in zip(ids, doc["volumes"] * 2)]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", ["detect", "reduce", "eval"])
    @pytest.mark.parametrize("vid", ["../escaped", "", ".", "..", "a/b", "a\0b", "absolute",
                                     "vol-0000"])
    def test_bad_id_exit_3_writes_nothing(self, tmp_path, capsys, dataset, command, vid):
        config, data, cand = dataset
        if vid == "absolute":
            vid = str(tmp_path / "escaped")
        duplicate = vid == "vol-0000"
        manifest = self._manifest(tmp_path, data, ["vol-0000", vid] if duplicate
                                  else [vid, "vol-0001"])
        out = tmp_path / "outdir" / "out"
        args = [command, "--config", str(config), "--jobs", "1",
                "--manifest", str(manifest), "--out", str(out)]
        if command != "detect":
            args += ["--candidates", str(cand)]
        before = set(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(vid) in err
        assert ("more than once" if duplicate else "not a plain file name") in err
        assert all(out in p.parents for p in set(tmp_path.rglob("*")) - before)


class TestRunTasks:
    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        """Replace ProcessPoolExecutor with a pool that runs the tasks in
        this process, so a test starts no process; the ``max_workers`` it
        is given are listed in the returned list."""
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize("jobs, n_tasks, workers", [(64, 2, 2), (2, 5, 2)])
    def test_pool_starts_no_idle_worker(self, pool_sizes, jobs, n_tasks, workers):
        tasks = list(range(n_tasks))
        assert ctadet.cli._run_tasks(str, tasks, jobs) == [str(t) for t in tasks]
        assert pool_sizes == [workers]

    def test_detect_huge_jobs_sizes_pool_to_volumes(self, tmp_path, pool_sizes):
        config = small_config(tmp_path, n_volumes=2, phantom_dims=[64, 64, 48])
        data = run_dataset(tmp_path, config)
        assert main(["detect", "--config", str(config), "--jobs", "64",
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "cand")]) == 0
        assert pool_sizes == [2]


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


class TestFiniteJson:
    def test_unreachable_operating_point_is_null(self, tmp_path):
        # false positives at 0.95-1.0 outrank every lesion (0.5-0.9), so even
        # the strictest threshold keeps one per 2 volumes: FPPV 0.25 is out of reach
        config = small_config(
            tmp_path,
            n_volumes=2,
            negative_fraction=0.0,
            detector_fp_per_volume=40.0,
            detector_fp_prob_range=[0.95, 1.0],
            detector_tp_prob_range=[0.5, 0.9],
        )
        data = run_dataset(tmp_path, config)
        cand, out = tmp_path / "cand", tmp_path / "eval"
        assert main(["detect", "--config", str(config),
                     "--manifest", str(data / "manifest.json"), "--out", str(cand)]) == 0
        assert main(["eval", "--config", str(config),
                     "--manifest", str(data / "manifest.json"),
                     "--candidates", str(cand), "--out", str(out)]) == 0
        report = load_json((out / "report.json").read_text())
        op = {o["name"]: o for o in report["operating_points"]}["fppv_0.25"]
        assert op["threshold"] is None and op["metrics"]["threshold"] is None
        assert op["metrics"]["tp"] == op["metrics"]["fp"] == 0
        comparison = tmp_path / "cmp.json"
        assert main(["compare", "--config", str(config),
                     "--report-a", str(out / "report.json"),
                     "--report-b", str(out / "report.json"),
                     "--out", str(comparison)]) == 0
        row = {r["name"]: r for r in load_json(comparison.read_text())["operating_points"]}
        assert row["fppv_0.25"]["p_sensitivity"] == 1.0

    def test_report_with_infinity_exit_3(self, tmp_path, capsys):
        doc = json.dumps(_report_doc([(0.9, True), (0.1, False)]))
        path = tmp_path / "a.json"
        path.write_text(doc.replace('"threshold": 0.5', '"threshold": Infinity'))
        capsys.readouterr()
        assert main(["compare", "--report-a", str(path), "--report-b", str(path),
                     "--out", str(tmp_path / "cmp.json")]) == 3
        assert f"{path}: not a JSON report: Infinity is not valid JSON" in capsys.readouterr().err


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
    if kind in ("raw-short", "raw-long"):
        raw = data / "vol-0001.vol.raw"
        body = raw.read_bytes()
        raw.write_bytes(body[:-2] if kind == "raw-short" else body + b"\0\0")
        return "vol-0001.vol.raw: header declares dims"
    # a volume header without dims, with two, with a fractional one or with
    # a NaN spacing, or a raw path that is a directory, read inside a
    # --jobs 2 worker
    header = data / "vol-0001.vol.json"
    doc = json.loads(header.read_text())
    if kind == "raw-directory":
        raw = data / "vol-0001.vol.raw"
        raw.unlink()
        raw.mkdir()
        size = raw.stat().st_size  # give the directory's size where it can be declared
        doc["dims"] = [size // 2, 1, 1] if size >= 2 and size % 2 == 0 else [32, 8, 8]
        header.write_text(json.dumps(doc))
        return "vol-0001.vol.raw: not a regular file"
    if kind == "volume-dims":
        doc["dims"] = doc["dims"][:2]
    elif kind == "dims-fraction":
        doc["dims"][2] += 0.7
        header.write_text(json.dumps(doc))
        return "vol-0001.vol.json: dims must be 3 integers >= 1"
    elif kind == "volume-nan":
        doc["spacing_mm"][0] = float("nan")
        header.write_text(json.dumps(doc))
        return "vol-0001.vol.json: not a JSON header: NaN is not valid JSON"
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
            ("dims-fraction", "detect"),
            ("volume-nan", "detect"),
            ("raw-directory", "detect"),
            ("raw-directory", "reduce"),
            ("raw-short", "detect"),
            ("raw-long", "detect"),
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

    def test_os_error_reading_a_volume_exit_3(self, tmp_path, capsys, monkeypatch):
        config = small_config(tmp_path)
        data = run_dataset(tmp_path, config)

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(ctadet.cli, "read_volume", unreadable, raising=False)
        capsys.readouterr()
        assert main(["detect", "--config", str(config), "--jobs", "1",
                     "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "cand")]) == 3
        err = capsys.readouterr().err
        assert "cannot read volume 'vol-0000'" in err and "Permission denied" in err

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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--config", "missing.json"], "config file not found"),
         (["--seed", "-1"], "seed must be >= 0")],
        ids=["missing-config", "negative-seed"],
    )
    def test_compare_bad_common_flag_exit_2(self, tmp_path, capsys, flags, message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(_report_doc([(0.9, True), (0.1, False)])))
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        out = tmp_path / "cmp.json"
        capsys.readouterr()
        assert main(["compare", *flags, "--report-a", str(report), "--report-b",
                     str(report), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
        ("detect", "cranial_max_extent_mm", 0),
        ("detect", "cranial_max_extent_mm", -5),
        ("detect", "nms_iou", -0.5),
        ("reduce", "nms_iou", 1.5),
        ("detect", "sensitivity_floor", -1),
        ("detect", "sensitivity_floor", 1),
        ("reduce", "sensitivity_floor", 1.5),
        ("detect", "patch_size", []),
        ("detect", "patch_size", [96, 96]),
        ("reduce", "fpr_patch_sizes", []),
        ("reduce", "fpr_patch_sizes", [[20, 20]]),
        ("eval", "bootstrap_resamples", 0),
        ("eval", "fppv_grid", []),
        ("eval", "fppv_grid", [-1.0, 1.0]),
        ("eval", "operating_fppvs", [-0.5]),
        ("eval", "bootstrap_level", 1.5),
        ("detect", "seed", -1),
        ("eval", "seed", -1),
        ("detect", "detector_fp_prob_range", [0.2]),
        ("detect", "detector_hit_prob", 2),
        ("detect", "detector_tp_prob_range", [0.2, 0.1]),
        ("detect", "detector_fp_per_volume", -1),
        ("detect", "detector_fp_per_volume", 1e300),
        ("detect", "detector_center_jitter", -1),
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
        if command != "detect":
            args += ["--candidates", str(cand)]
        capsys.readouterr()
        assert main(args) == 2
        assert field in capsys.readouterr().err

    SYNTH_CASES = [("n_volumes", -1), ("negative_fraction", 2), ("negative_fraction", -0.5)]

    @pytest.mark.parametrize("field, value", SYNTH_CASES,
                             ids=[f"{field}={value}" for field, value in SYNTH_CASES])
    def test_bad_synth_value_exit_2(self, tmp_path, capsys, field, value):
        config = small_config(tmp_path, phantom_dims=[64, 64, 48], **{field: value})
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_crowded_detector_fp_per_volume_accepted(self, tmp_path):
        # the crowded benchmark workload's 400 sits below the cap
        config = small_config(tmp_path, n_volumes=1, phantom_dims=[64, 64, 48],
                              detector_fp_per_volume=400.0)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("command", ["synth", "detect", "reduce", "eval"])
    def test_negative_seed_override_exit_2(self, tmp_path, capsys, dataset, command):
        data, cand = dataset
        config = small_config(tmp_path, n_volumes=2, phantom_dims=[64, 64, 48])
        args = [command, "--config", str(config), "--seed", "-1",
                "--out", str(tmp_path / "out")]
        if command != "synth":
            args += ["--manifest", str(data / "manifest.json")]
        if command in ("reduce", "eval"):
            args += ["--candidates", str(cand)]
        capsys.readouterr()
        assert main(args) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    # values that int() would silently truncate or turn into 1, and strings
    # where a number or a string is due
    RAW_CASES = [("seed", 1.5), ("bootstrap_resamples", 2.5), ("seed", True),
                 ("patch_size", [96, 96.5, 96]), ("nms_iou", True), ("fppv_grid", ["inf"]),
                 ("strata_keys", [["size_class"]]), ("strata_keys", [1])]

    @pytest.mark.parametrize(
        "field, value", RAW_CASES,
        ids=[f"{field}={json.dumps(value, separators=(',', ':'))}"
             for field, value in RAW_CASES],
    )
    def test_inexact_value_exit_2(self, tmp_path, capsys, dataset, field, value):
        data, cand = dataset
        config = small_config(tmp_path, n_volumes=2, phantom_dims=[64, 64, 48])
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, field: value}))
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--manifest",
                     str(data / "manifest.json"), "--candidates", str(cand),
                     "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    BIG_INT = 10 ** 400  # written as an integer literal that no float can hold
    BIG_INT_CASES = [("detect", "hu_window", [-1000, BIG_INT]),
                     ("detect", "anchor_sizes", [5, BIG_INT]),
                     ("detect", "phantom_noise_sigma", BIG_INT),
                     ("detect", "detector_center_jitter", BIG_INT),
                     ("detect", "cranial_max_extent_mm", BIG_INT),
                     ("synth", "phantom_noise_sigma", BIG_INT)]

    @pytest.mark.parametrize("command, field, value", BIG_INT_CASES,
                             ids=[f"{command}-{field}" for command, field, _ in BIG_INT_CASES])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, dataset, command,
                                               field, value):
        data, _ = dataset
        config = small_config(tmp_path, n_volumes=2, phantom_dims=[64, 64, 48])
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, field: value}))
        args = ["--manifest", str(data / "manifest.json")] if command == "detect" else []
        capsys.readouterr()
        assert main([command, "--config", str(config), *args,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"invalid config {config}: an integer of 401 digits overflows a float" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    NUMBER_LITERALS = {"NaN": "NaN is not valid JSON", "1e400": "1e400 overflows a float",
                       "1" + "0" * 400: "an integer of 401 digits overflows a float"}

    @pytest.mark.parametrize("literal", list(NUMBER_LITERALS),
                             ids=["NaN", "1e400", "401-digit-integer"])
    def test_number_error_names_line(self, tmp_path, capsys, literal):
        # the same characters in a string on line 2 must not move the place
        config = tmp_path / "badcfg.json"
        config.write_text('{\n  "strata_keys": ["%s"],\n  "nms_iou": %s\n}\n' % (literal, literal))
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert (f"invalid config {config}: {self.NUMBER_LITERALS[literal]}: "
                "line 3 column 14 (char ") in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_candidate_integer_beyond_float_range_exit_3(self, tmp_path, capsys, dataset):
        data, cand = dataset
        config = small_config(tmp_path, n_volumes=2, phantom_dims=[64, 64, 48])
        copied = tmp_path / "cand"
        shutil.copytree(cand, copied)
        path = sorted(copied.glob("*.cand.jsonl"))[0]
        lines = path.read_text().splitlines()
        record = {"volume_id": path.name[: -len(".cand.jsonl")], "center_vox": [8.0, 8.0, 8.0],
                  "diameter_vox": self.BIG_INT, "prob": 0.5, "stage": "detector"}
        path.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--manifest",
                     str(data / "manifest.json"), "--candidates", str(copied),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{path}:{len(lines) + 1}: invalid record" in err and "401 digits" in err
        assert not (tmp_path / "out" / "report.json").exists()


# Plugins that break their output contract: scorers wrap the oracle scorer
# and spoil its array, classifiers spoil an (n, 3) array of 0.5.
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


def _ds(value):
    def spoil(preds):
        preds[preds[:, 0] > 0, 4] = value
        return preds
    return spoil


one_row_short = _scorer(lambda preds: preds[:-1])
nan_dx = _scorer(_nan_dx)
ds_overflow = _scorer(_ds(1000.0))
ds_zero = _scorer(_ds(-1000.0))
ds_tiny = _scorer(_ds(-40.0))  # a positive diameter, but a cube of volume 0
ds_huge = _scorer(_ds(240.0))  # a finite diameter, but a cube of volume inf
nan_p = _scorer(_first_p(np.nan))
p_above_one = _scorer(_first_p(1.5))


def _last_cell_nan(preds):
    preds[-1, -1] = np.nan
    return preds


def _huge_offsets(preds):
    quiet = preds[:, 0] == 0  # rows that decode to no candidate
    preds[quiet, 1:] = 1e308
    preds[quiet.nonzero()[0][::2], 1:] = -1e308
    return preds


last_cell_nan = _scorer(_last_cell_nan)
huge_offsets = _scorer(_huge_offsets)


def _classifier(spoil):
    def factory(volume, lesions, cfg):
        return lambda batch: spoil(np.full((len(batch.candidates), 3), 0.5))
    return factory


above_one = _classifier(_first_p(1.5))
nan_prob = _classifier(_first_p(np.nan))
two_values = _classifier(lambda probs: probs[:, :2])
one_row_missing = _classifier(lambda probs: probs[:-1])
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
            ("last_cell_nan", "NaN"),
            ("p_above_one", "outside [0, 1]"),
            ("ds_overflow", "diameter overflows"),
            ("ds_zero", "diameter 0.0"),
            ("ds_tiny", "volume 0.0"),
            ("ds_huge", "volume inf"),
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

    def test_huge_offsets_on_quiet_rows_accepted(self, tmp_path, dataset):
        config, data = dataset
        for name, detector in (("plain", "oracle"), ("huge", "bad_plugins:huge_offsets")):
            assert main([
                "detect", "--config", str(config),
                "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / name),
                "--detector", detector,
            ]) == 0
        assert tree_digest(tmp_path / "huge") == tree_digest(tmp_path / "plain")

    @pytest.mark.parametrize(
        "classifier, problem",
        [
            ("above_one", "outside [0, 1]"),
            ("nan_prob", "NaN"),
            ("two_values", "shape"),
            ("one_row_missing", "shape"),
        ],
        ids=["above_one", "nan_prob", "two_values", "one_row_missing"],
    )
    def test_bad_classifier_output_exit_3(self, tmp_path, capsys, dataset, classifier,
                                          problem):
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
        assert "volume 'vol-0000': classifier output" in err and problem in err
