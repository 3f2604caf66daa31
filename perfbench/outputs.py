"""Output checks: what users read from one pass, as plain values.

Values are compared, not bytes, so that adding an optional field to a
candidate record or a report does not count as a change.  Every file is
parsed with NaN and Infinity rejected, save one documented sentinel: an
FPPV operating point that no threshold reaches has the threshold +inf
(``threshold_for_operating_point`` returns it, and the writers emit it as
the JSON token ``Infinity``).  It is accepted only where the confusion
counts beside it agree that nothing is called positive, and it is
reported as a note.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path


class OutputError(ValueError):
    pass


# thresholds of an operating point in report.json (the point and its
# confusion metrics) and in comparison.json (the metrics of reports a, b)
SENTINEL_PATH = re.compile(r"/operating_points/\d+/(?:metrics/|[ab]/)?threshold$")


def _is_sentinel(path, value, parent) -> bool:
    """+inf as the threshold of an operating point that predicts nothing
    positive: the program's value for an unreachable FPPV budget."""
    if value != math.inf or not SENTINEL_PATH.search(path):
        return False
    counts = parent.get("metrics", parent)
    return counts.get("tp") == 0 and counts.get("fp") == 0


def _nonfinite(obj, path="", parent=None, sentinels=None):
    """JSON paths of the NaN and infinite numbers in a parsed document.

    Documented sentinels go to ``sentinels`` instead, when it is given.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        if sentinels is not None and _is_sentinel(path, obj, parent):
            sentinels.append(path)
            return []
        return [f"{path or '/'}={obj}"]
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    return [p for k, v in items for p in _nonfinite(v, f"{path}/{k}", obj, sentinels)]


class Reader:
    """Parses output files, collecting every non-finite number it meets.

    Non-finite numbers are errors, but the values are still returned, so
    that a pass can also be compared with the first pass and the pin.
    """

    def __init__(self):
        self.nonfinite = []
        self.sentinels = []

    def json(self, text, where):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise OutputError(f"{where}: {e}") from e
        sentinels = []
        self.nonfinite += [f"{where}: {p}" for p in _nonfinite(obj, sentinels=sentinels)]
        self.sentinels += sentinels
        return obj


def candidate_values(read: Reader, cand_dir: Path) -> list:
    """(volume id, centre, diameter, prob, stage) of every candidate."""
    files = sorted(cand_dir.glob("*.cand.jsonl"))
    if not files:
        raise OutputError(f"{cand_dir}: no candidate files")
    out = []
    for path in files:
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if line.strip():
                rec = read.json(line, f"{path}:{n}")
                out.append([rec[k] for k in
                            ("volume_id", "center_vox", "diameter_vox", "prob", "stage")])
    return out


def _csv_rows(read: Reader, path: Path) -> list:
    with open(path, newline="") as f:
        rows = [[float(x) for x in row] for row in list(csv.reader(f))[1:]]
    read.nonfinite += [f"{path}: {p}" for p in _nonfinite(rows)]
    return rows


def report_values(read: Reader, eval_dir: Path) -> dict:
    """FROC points, averaged sensitivity and AUC with CIs, operating points."""
    report = read.json((eval_dir / "report.json").read_text(), str(eval_dir / "report.json"))
    _csv_rows(read, eval_dir / "froc.csv")
    _csv_rows(read, eval_dir / "roc.csv")
    avg = report["avg_sensitivity"]
    auc = report["auc"]
    return {
        "froc": report["froc"]["points"],
        "avg_sensitivity": [avg["value"], avg["ci"]],
        "auc": None if auc is None else [auc["value"], auc["ci"]],
        "operating_points": [
            [op["name"], op["threshold"], op["score_rule"], op["metrics"]]
            for op in report["operating_points"]
        ],
    }


def comparison_values(read: Reader, path: Path) -> dict:
    doc = read.json(path.read_text(), str(path))
    return {
        "n_volumes": doc["n_volumes"],
        "operating_points": [
            [r["name"], r["p_accuracy"], r["p_sensitivity"], r["p_specificity"]]
            for r in doc["operating_points"]
        ],
    }


# stage output -> reader; the stage label attributes a failed check to
# the CLI invocation that wrote the output
OUTPUTS = (
    ("detect", "cand", candidate_values),
    ("reduce", "red", candidate_values),
    ("eval", "eval-cand", report_values),
    ("eval", "eval-red", report_values),
    ("compare", "cmp/comparison.json", comparison_values),
)


def pass_values(run_dir: Path, stages) -> tuple[dict, list[str], list[str]]:
    """Values of every output one pass wrote, one error per output that is
    missing, malformed or holds a non-finite number, and one note per
    output that holds the +inf threshold sentinel."""
    values, errors, notes = {}, [], []
    for stage, rel, reader in OUTPUTS:
        if stage not in stages:
            continue
        read = Reader()
        try:
            values[rel] = reader(read, run_dir / rel)
        except (OSError, OutputError, KeyError, TypeError, ValueError) as e:
            errors.append(f"{stage} output {rel}: {type(e).__name__}: {e}")
            continue
        if read.nonfinite:
            errors.append(f"{stage} output {rel}: non-finite numbers at "
                          + "; ".join(read.nonfinite[:4]))
        if read.sentinels:
            notes.append(f"{stage} output {rel}: +inf threshold of an unreachable "
                         "FPPV operating point (nothing called positive) at "
                         + "; ".join(read.sentinels[:4]))
    return values, errors, notes


def digest(values: dict) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
