import json
import re

import pytest

from ctadet.anchors import BoundingBox, Lesion
from ctadet.config import RunConfig
from ctadet.formats import (
    FormatError,
    Manifest,
    ManifestVolume,
    read_annotations,
    read_candidates,
    read_manifest,
    write_annotations,
    write_candidates,
    write_manifest,
)
from ctadet.postproc import CandidateDetection, Stage


class TestAnnotations:
    def test_roundtrip(self, tmp_path):
        data = {
            "vol-a": [
                Lesion(BoundingBox((1.5, 2.0, 3.25), 4.5),
                       {"size_class": "3-5mm", "location": "vessel-0"}),
                Lesion(BoundingBox((10.0, 20.0, 30.0), 2.5), {"size_class": "2.5-3mm"}),
            ],
            "vol-b": [Lesion(BoundingBox((5.0, 5.0, 5.0), 8.0), {})],
        }
        path = tmp_path / "ann.jsonl"
        write_annotations(path, data)
        back = read_annotations(path)
        assert back == {k: list(v) for k, v in data.items()}

    def test_line_shape(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_annotations(
            path, {"v": [Lesion(BoundingBox((1, 2, 3), 4.0), {"location": "x"})]}
        )
        rec = json.loads(path.read_text().splitlines()[0])
        assert set(rec) == {"volume_id", "center_vox", "diameter_vox", "labels"}
        assert rec["center_vox"] == [1.0, 2.0, 3.0]
        assert rec["diameter_vox"] == 4.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_annotations(path, {})
        assert read_annotations(path) == {}


class TestCandidates:
    def test_roundtrip(self, tmp_path):
        cands = [
            CandidateDetection(BoundingBox((1.0, 2.0, 3.0), 4.0), 0.75, Stage.DETECTOR),
            CandidateDetection(BoundingBox((9.5, 8.5, 7.5), 2.0), 0.25, Stage.REDUCED),
        ]
        path = tmp_path / "v.cand.jsonl"
        write_candidates(path, "v", cands)
        back = read_candidates(path)
        assert [vid for vid, _ in back] == ["v", "v"]
        assert [c.box for _, c in back] == [c.box for c in cands]
        assert [c.probability for _, c in back] == [0.75, 0.25]
        assert [c.stage for _, c in back] == [Stage.DETECTOR, Stage.REDUCED]

    def test_line_shape(self, tmp_path):
        path = tmp_path / "v.cand.jsonl"
        write_candidates(
            path, "v", [CandidateDetection(BoundingBox((1, 2, 3), 4.0), 0.5)]
        )
        rec = json.loads(path.read_text().splitlines()[0])
        assert set(rec) == {"volume_id", "center_vox", "diameter_vox", "prob", "stage"}
        assert rec["stage"] == "detector"

    def test_probability_precision_preserved(self, tmp_path):
        p = 0.12345678901234567
        path = tmp_path / "v.cand.jsonl"
        write_candidates(path, "v", [CandidateDetection(BoundingBox((1, 2, 3), 4.0), p)])
        (_, back), = read_candidates(path)
        assert back.probability == p


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = Manifest(
            volumes=(
                ManifestVolume("vol-0000", "vol-0000.vol.json", 3),
                ManifestVolume("vol-0001", "vol-0001.vol.json", 0),
            ),
            annotations="annotations.jsonl",
            seed=17,
        )
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest

    def test_deterministic_bytes(self, tmp_path):
        manifest = Manifest(
            volumes=(ManifestVolume("a", "a.vol.json", 1),),
            annotations="ann.jsonl",
            seed=0,
        )
        write_manifest(tmp_path / "m1.json", manifest)
        write_manifest(tmp_path / "m2.json", manifest)
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


GOOD_CANDIDATE = {"volume_id": "v", "center_vox": [1, 2.5, 3], "diameter_vox": 4,
                  "prob": 0.5, "stage": "detector"}
GOOD_LESION = {"volume_id": "v", "center_vox": [1, 2.5, 3], "diameter_vox": 4.0,
               "labels": {"location": "x"}}
# JSON values of the wrong type that int() or float() would still accept
WRONG_TYPES = [
    ("center_vox", "123"), ("center_vox", [1, True, 3]), ("center_vox", [1, "2", 3]),
    ("diameter_vox", True), ("diameter_vox", "4"), ("volume_id", 7), ("volume_id", None),
]


class TestRecordTypes:
    """Records hold JSON numbers (not true or false) and string volume ids."""

    @staticmethod
    def write(path, good, key, value):
        lines = [json.dumps(good), json.dumps({**good, key: value})]
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("key, value", WRONG_TYPES + [
        ("prob", True), ("prob", "0.5"), ("prob", [0.5]),
    ])
    def test_candidate_exit_3_names_the_line(self, tmp_path, key, value):
        path = tmp_path / "v.cand.jsonl"
        self.write(path, GOOD_CANDIDATE, key, value)
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ") + f".*{key}") as e:
            read_candidates(path)
        assert e.value.exit_code == 3

    @pytest.mark.parametrize("key, value", WRONG_TYPES)
    def test_annotation_exit_3_names_the_line(self, tmp_path, key, value):
        path = tmp_path / "ann.jsonl"
        self.write(path, GOOD_LESION, key, value)
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ") + f".*{key}") as e:
            read_annotations(path)
        assert e.value.exit_code == 3

    @pytest.mark.parametrize("volume_id", [7, 1.5, True, None, ["a"]])
    def test_manifest_volume_id_must_be_a_string(self, tmp_path, volume_id):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"annotations": "ann.jsonl", "volumes": [
            {"volume_id": volume_id, "volume": "a.vol.json"}]}))
        with pytest.raises(FormatError, match=re.escape(f"{path}: ") + ".*volume_id") as e:
            read_manifest(path)
        assert e.value.exit_code == 3

    @pytest.mark.parametrize("read, good, key, value", [
        (read_candidates, GOOD_CANDIDATE, "diameter_vox", 10 ** 400),
        (read_annotations, GOOD_LESION, "center_vox", [1, 10 ** 400, 3]),
    ], ids=["candidate-diameter_vox", "annotation-center_vox"])
    def test_integer_beyond_float_range_exit_3(self, tmp_path, read, good, key, value):
        path = tmp_path / "records.jsonl"
        self.write(path, good, key, value)
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ") + ".*401 digits") as e:
            read(path)
        assert e.value.exit_code == 3

    MANIFEST_CASES = [("volume", 7), ("volume", None), ("annotations", 5), ("n_lesions", 2.7),
                      ("n_lesions", 2.0), ("n_lesions", "2"), ("n_lesions", True),
                      ("n_lesions", -3), ("seed", "x"), ("seed", 1.5), ("seed", False),
                      ("seed", -1)]

    @pytest.mark.parametrize("key, value", MANIFEST_CASES,
                             ids=[f"{k}={json.dumps(v)}" for k, v in MANIFEST_CASES])
    def test_manifest_field_types(self, tmp_path, key, value):
        volume = {"volume_id": "a", "volume": "a.vol.json", "n_lesions": 1}
        doc = {"annotations": "ann.jsonl", "seed": 3, "volumes": [volume]}
        if key in volume:
            volume[key] = value
        else:
            doc[key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"{path}: ") + f".*{key}") as e:
            read_manifest(path)
        assert e.value.exit_code == 3

    def test_manifest_optional_fields(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"annotations": "ann.jsonl", "volumes": [
            {"volume_id": "a", "volume": "a.vol.json"}]}))
        manifest = read_manifest(path)
        assert manifest.seed is None and manifest.volumes[0].n_lesions == 0
        path.write_text(json.dumps({"annotations": "ann.jsonl", "seed": None, "volumes": []}))
        assert read_manifest(path).seed is None

    def test_integral_numbers_accepted(self, tmp_path):
        path = tmp_path / "v.cand.jsonl"
        self.write(path, GOOD_CANDIDATE, "prob", 1)
        (_, first), (_, second) = read_candidates(path)
        assert first.box == BoundingBox((1.0, 2.5, 3.0), 4.0)
        assert (first.probability, second.probability) == (0.5, 1.0)
        path = tmp_path / "ann.jsonl"
        self.write(path, GOOD_LESION, "diameter_vox", 4)
        assert read_annotations(path)["v"][1].box == BoundingBox((1.0, 2.5, 3.0), 4.0)


class TestRunConfig:
    def test_file_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig(seed=42, n_volumes=3, detector_fp_per_volume=2.5)
        path = tmp_path / "config.json"
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg

    def test_default_roundtrip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "config.json"
        cfg.to_file(path)
        back = RunConfig.from_file(path)
        assert back == cfg
        assert back.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            RunConfig.from_dict({"bogus_knob": 1})

    def test_partial_override(self):
        cfg = RunConfig.from_dict({"seed": 9, "nms_iou": 0.3})
        assert cfg.seed == 9
        assert cfg.nms_iou == 0.3
        assert cfg.nms_prob == 0.25  # untouched default

    def test_tuple_fields_restored_as_tuples(self):
        cfg = RunConfig.from_dict(json.loads(json.dumps(RunConfig().to_dict())))
        assert cfg.fpr_patch_sizes == ((20, 20, 10), (32, 32, 16), (48, 48, 32))
        assert isinstance(cfg.anchor_sizes, tuple)
