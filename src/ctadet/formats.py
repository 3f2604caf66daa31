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

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .anchors import BoundingBox, Lesion
from .config import dump_json, is_number, load_json
from .postproc import CandidateDetection, Stage

# what a malformed record raises: bad JSON or values (ValueError), a
# missing key (KeyError), or a value of the wrong JSON type
_RECORD_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


class FormatError(ValueError):
    """An input file that does not parse; the message names the file and,
    for JSON Lines, the line."""

    exit_code = 3  # the CLI's data error


def _checked(rec: dict, key: str, ok: Callable[[object], bool], what: str):
    """``rec[key]``, which must be ``what`` (TypeError otherwise)."""
    value = rec[key]
    if not ok(value):
        raise TypeError(f"{key} must be {what}, got {value!r}")
    return value


def _is_str(x) -> bool:
    return isinstance(x, str)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _volume_id(rec: dict) -> str:
    return _checked(rec, "volume_id", _is_str, "a string")


def _is_point(c) -> bool:
    return isinstance(c, list) and len(c) == 3 and all(map(is_number, c))


def _box(rec: dict) -> BoundingBox:
    center = _checked(rec, "center_vox", _is_point, "a list of 3 numbers")
    return BoundingBox(tuple(center), _checked(rec, "diameter_vox", is_number, "a number"))


def _write_jsonl(path, records) -> None:
    with open(path, "w") as f:
        f.writelines(map(dump_json, records))


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
    lesion = Lesion(_box(rec), {str(k): str(v) for k, v in rec.get("labels", {}).items()})
    return _volume_id(rec), lesion


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
    prob = float(_checked(rec, "prob", is_number, "a number"))
    return _volume_id(rec), CandidateDetection(_box(rec), prob, Stage(rec["stage"]))


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
    Path(path).write_text(dump_json(doc, indent=2))


def read_manifest(path) -> Manifest:
    """The manifest at ``path``.  Volume ids name the per-volume output
    files, so each must be a plain file name (not empty, ``.`` or ``..``,
    and without ``/`` or NUL) and must appear once."""
    try:
        doc = load_json(Path(path).read_text())
        # n_lesions and seed are optional: each record is checked with its default
        manifest = Manifest(
            volumes=tuple(
                ManifestVolume(
                    _volume_id(v),
                    _checked(v, "volume", _is_str, "a string"),
                    _checked({"n_lesions": 0, **v}, "n_lesions", _is_count, "an integer >= 0"),
                )
                for v in doc["volumes"]
            ),
            annotations=_checked(doc, "annotations", _is_str, "a string"),
            seed=_checked({"seed": None, **doc}, "seed", lambda x: x is None or _is_count(x),
                          "an integer >= 0 or null"),
        )
    except _RECORD_ERRORS as e:
        raise FormatError(f"{path}: invalid manifest: {e!r}") from e
    seen = set()
    for vid in manifest.volume_ids():
        if vid in ("", ".", "..") or "/" in vid or "\0" in vid:
            raise FormatError(f"{path}: volume id {vid!r} is not a plain file name")
        if vid in seen:
            raise FormatError(f"{path}: volume id {vid!r} appears more than once")
        seen.add(vid)
    return manifest


def write_curve_csv(path, columns: Sequence[str], records: Sequence[Mapping]) -> None:
    """A header of ``columns``, then one line of each record's values in
    that order."""
    lines = [",".join(columns)] + [",".join(f"{r[c]}" for c in columns) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")
