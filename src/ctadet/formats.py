"""On-disk record formats: annotation JSONL, candidate JSONL, dataset
manifest.

Annotation record (one lesion per line):
    {"volume_id": "...", "center_vox": [x, y, z], "diameter_vox": s,
     "labels": {"size_class": "3-5mm", "location": "...", ...}}

Candidate record (one detection per line):
    {"volume_id": "...", "center_vox": [x, y, z], "diameter_vox": s,
     "prob": p, "stage": "detector" | "reduced"}

All writers emit sorted-key JSON so reruns are byte-identical.  Readers
raise :class:`FormatError`, naming the file and line, on a record that
does not parse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .anchors import BoundingBox, Lesion
from .config import load_json
from .postproc import CandidateDetection, Stage

# what a malformed record raises: bad JSON or values (ValueError), a
# missing key (KeyError), or a value of the wrong JSON type
_RECORD_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


class FormatError(ValueError):
    """An input file that does not parse; the message names the file and,
    for JSON Lines, the line."""

    exit_code = 3  # the CLI's data error


def _write_jsonl(path, records) -> None:
    with open(path, "w") as f:
        f.writelines(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)


def _read_jsonl(path, parse: Callable[[dict], object]) -> Iterator:
    """Parse each non-blank line of a JSON Lines file with ``parse``."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = parse(load_json(line))
            except _RECORD_ERRORS as e:
                raise FormatError(f"{path}:{lineno}: invalid record: {e!r}") from e
            yield record


def write_annotations(path, lesions_by_volume: Mapping[str, Sequence[Lesion]]) -> None:
    _write_jsonl(
        path,
        (
            {
                "volume_id": volume_id,
                "center_vox": list(lesion.box.center),
                "diameter_vox": lesion.box.diameter,
                "labels": dict(lesion.labels),
            }
            for volume_id, lesions in lesions_by_volume.items()
            for lesion in lesions
        ),
    )


def _lesion(rec) -> tuple[str, Lesion]:
    lesion = Lesion(
        BoundingBox(tuple(rec["center_vox"]), rec["diameter_vox"]),
        {str(k): str(v) for k, v in rec.get("labels", {}).items()},
    )
    return str(rec["volume_id"]), lesion


def read_annotations(path) -> dict[str, list[Lesion]]:
    """Lesions grouped by volume id; volumes without lesions do not appear."""
    out: dict[str, list[Lesion]] = {}
    for volume_id, lesion in _read_jsonl(path, _lesion):
        out.setdefault(volume_id, []).append(lesion)
    return out


def write_candidates(
    path, volume_id: str, candidates: Sequence[CandidateDetection]
) -> None:
    _write_jsonl(
        path,
        (
            {
                "volume_id": volume_id,
                "center_vox": list(c.box.center),
                "diameter_vox": c.box.diameter,
                "prob": c.probability,
                "stage": c.stage.value,
            }
            for c in candidates
        ),
    )


def _candidate(rec) -> tuple[str, CandidateDetection]:
    cand = CandidateDetection(
        BoundingBox(tuple(rec["center_vox"]), rec["diameter_vox"]),
        float(rec["prob"]),
        Stage(rec["stage"]),
    )
    return str(rec["volume_id"]), cand


def read_candidates(path) -> list[tuple[str, CandidateDetection]]:
    return list(_read_jsonl(path, _candidate))


@dataclass(frozen=True)
class ManifestVolume:
    volume_id: str
    volume: str  # path to the .vol.json sidecar, relative to the manifest
    n_lesions: int = 0


@dataclass(frozen=True)
class Manifest:
    volumes: tuple[ManifestVolume, ...]
    annotations: str  # path to the annotation JSONL, relative to the manifest
    seed: Optional[int] = None

    def volume_ids(self) -> list[str]:
        return [v.volume_id for v in self.volumes]


def write_manifest(path, manifest: Manifest) -> None:
    doc = {
        "seed": manifest.seed,
        "annotations": manifest.annotations,
        "volumes": [
            {
                "volume_id": v.volume_id,
                "volume": v.volume,
                "n_lesions": v.n_lesions,
            }
            for v in manifest.volumes
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def read_manifest(path) -> Manifest:
    try:
        doc = load_json(Path(path).read_text())
        return Manifest(
            volumes=tuple(
                ManifestVolume(
                    str(v["volume_id"]), str(v["volume"]), int(v.get("n_lesions", 0))
                )
                for v in doc["volumes"]
            ),
            annotations=str(doc["annotations"]),
            seed=doc.get("seed"),
        )
    except _RECORD_ERRORS as e:
        raise FormatError(f"{path}: invalid manifest: {e!r}") from e


def _write_curve_csv(path, header: str, thresholds, points) -> None:
    lines = [header] + [f"{t},{f},{s}" for t, (f, s) in zip(thresholds, points)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_froc_csv(path, thresholds, points) -> None:
    _write_curve_csv(path, "threshold,fppv,sensitivity", thresholds, points)


def write_roc_csv(path, thresholds, points) -> None:
    _write_curve_csv(path, "threshold,fpr,tpr", thresholds, points)
