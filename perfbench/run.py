#!/usr/bin/env python3
"""ctadet benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload cohort --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; nothing is installed.  With
``--trace 0`` every CLI command runs as a fresh ``python -m ctadet.cli``
process, as a user's script would, and the end-to-end metrics are
reported.  With ``--trace 1`` the same commands also run in this process
at ``--jobs 1`` with every layer's public functions wrapped, and the
per-layer metrics are reported.  Human-readable lines come first; the
last line of standard output is one JSON object.

All load comes from this process: the CLI commands run one at a time,
and only ``cohort`` starts a pool, of two workers.  Run directories live
under ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
import outputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402

DEFAULT_SEED = 0
ROUNDS = 3  # at least, of set-up and pass in an untraced run
SETUP_SECONDS = 0.5  # set-ups repeat within a round until they take this long
IMPORT_REPEATS = 3
MIN_TRACED_PASSES = 2

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

NOT_MEASURED = ("config (parsed once per process, inside the stage walls); "
                "loss (training only, no CLI command calls it)")


class Ledger:
    """Operations attempted and failed, failure messages, notes, peak RSS."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.notes = {}  # message -> passes that gave it
        self.peak_rss_mb = 0.0

    def operation(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {detail}".strip())

    def error(self, message):
        self.errors.append(message)

    def note(self, message):
        self.notes[message] = self.notes.get(message, 0) + 1


def run_cli(argv, cwd: Path, ledger: Ledger, label: str) -> float:
    """Run one CLI command as a fresh process; return its wall time.

    Peak RSS comes from the ``os.wait4`` rusage of the process.  On Linux
    that maximum also covers the pool workers the process reaped.
    """
    log = cwd / "stderr.log"
    start = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen([sys.executable, "-m", "ctadet.cli", *argv], cwd=cwd,
                                env=ENV, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    ledger.peak_rss_mb = max(ledger.peak_rss_mb, usage.ru_maxrss / 1024.0)
    ledger.operation(label, code == 0, f"exit {code}, see {log}")
    return wall


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove(run_dir: Path, names) -> None:
    for name in names:
        shutil.rmtree(run_dir / name, ignore_errors=True)


def set_up(w, run_dir: Path, seed: int, jobs: int, ledger: Ledger) -> float:
    """Build the workload's inputs once; return the wall time."""
    if w.synth:
        remove(run_dir, ["data"])
        return run_cli(workloads.setup_command(jobs), run_dir, ledger, "synth")
    remove(run_dir, ["data", "cand", "red"])
    start = time.perf_counter()
    workloads.write_eval_inputs(w, run_dir, seed)
    return time.perf_counter() - start


def check_dataset(w, run_dir: Path, ledger: Ledger) -> None:
    """The set-up gives the mix of lesion-free and lesioned volumes that
    the workload's config asks for."""
    if not w.config.get("negative_fraction"):
        return
    try:
        manifest = json.loads((run_dir / "data" / "manifest.json").read_text())
        counts = [v["n_lesions"] for v in manifest["volumes"]]
    except (OSError, ValueError, KeyError) as e:
        ledger.error(f"set-up manifest unreadable: {e}")
        return
    if 0 not in counts or not any(counts):
        ledger.error(f"set-up lacks lesion-free or lesioned volumes: {counts}")


class ValueCheck:
    """Compares each pass's output values with the first pass's, and with
    the reference pinned for the default seed."""

    def __init__(self, w, seed: int, ledger: Ledger):
        self.stages = {stage for stage, _ in workloads.chain(w, 1)}
        self.ledger = ledger
        self.first = None
        reference = json.loads((HERE / "reference.json").read_text())
        self.pinned_seed = reference["seed"]
        self.pinned = reference["values_sha256"].get(w.name) if seed == self.pinned_seed else None

    def check(self, run_dir: Path, label: str) -> None:
        values, errors, notes = outputs.pass_values(run_dir, self.stages)
        for e in errors:
            self.ledger.failed += 1
            self.ledger.error(f"{label}: {e}")
        for n in notes:
            self.ledger.note(n)
        if self.first is None:
            self.first = values
            if self.pinned is not None and outputs.digest(values) != self.pinned:
                self.ledger.error(f"{label}: output values differ from the reference "
                                  f"pinned for seed {self.pinned_seed}: {outputs.digest(values)}")
            return
        for rel in sorted(values.keys() | self.first.keys()):
            if values.get(rel) != self.first.get(rel):
                self.ledger.failed += 1
                self.ledger.error(f"{label}: {rel} values differ from the first pass")

    @property
    def digest(self):
        return None if self.first is None else outputs.digest(self.first)


def untraced_pass(w, run_dir: Path, jobs: int, ledger: Ledger, label: str) -> dict:
    """One subprocess pass of the chain; return wall time per stage."""
    remove(run_dir, workloads.pass_outputs(w))
    walls = {"detect": 0.0, "reduce": 0.0, "eval": 0.0, "compare": 0.0}
    start = time.perf_counter()
    for stage, argv in workloads.chain(w, jobs):
        walls[stage] += run_cli(argv, run_dir, ledger, f"{label} {stage}")
    walls["run"] = time.perf_counter() - start
    return walls


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def untraced(w, seed: int, seconds: float, ledger: Ledger) -> dict:
    run_dir = fresh_dir(RUNS / w.name)
    workloads.write_config(w, run_dir, seed)
    values = ValueCheck(w, seed, ledger)
    setups, passes = [], []
    deadline = time.perf_counter() + seconds
    # Each round sets up afresh, then runs one pass, so that set-up and
    # passes sample the machine over the same stretch of time.
    while len(passes) < ROUNDS or time.perf_counter() < deadline:
        first = len(setups)
        while len(setups) == first or sum(setups[first:]) < SETUP_SECONDS:
            setups.append(set_up(w, run_dir, seed, w.jobs, ledger))
        if not passes:
            check_dataset(w, run_dir, ledger)
        passes.append(untraced_pass(w, run_dir, w.jobs, ledger, f"pass {len(passes) + 1}"))
        values.check(run_dir, f"pass {len(passes)}")

    def med(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (med("run"), "s"),
        "eval_s": (statistics.median(p["eval"] + p["compare"] for p in passes), "s"),
        "peak_rss_mb": (ledger.peak_rss_mb, "MB"),
    }
    shown = dict(metrics)
    if w.synth:
        shown["detect_s"] = (med("detect"), "s")
        shown["reduce_s"] = (med("reduce"), "s")
    shown["error_rate"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    print(f"workload {w.name}: {len(passes)} passes, {len(setups)} set-ups, "
          f"jobs {w.jobs}, output digest {values.digest}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<14} {value:12.4f} {unit}")
    print("  per pass: " + "; ".join(
        " ".join(f"{k} {v:.3f}" for k, v in p.items()) for p in passes))
    print("  set-ups: " + " ".join(f"{v:.3f}" for v in setups))
    if not w.synth:
        print("  detect_s, reduce_s: absent (this workload runs only eval and compare)")
    return metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def import_time(run_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports ctadet.cli."""
    walls = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctadet.cli"], cwd=run_dir, env=ENV,
                       check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def traced_pass(cli, instr: Instrumentation, w, run_dir: Path, ledger: Ledger,
                label: str) -> Tracer:
    """One in-process pass at --jobs 1, set-up synth included."""
    tracer = instr.tracer = Tracer()
    steps = [("synth", workloads.setup_command(1))] if w.synth else []
    steps += workloads.chain(w, 1)
    remove(run_dir, (["data"] if w.synth else []) + list(workloads.pass_outputs(w)))
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        for stage, argv in steps:
            sink = io.StringIO()
            tracer.begin("cli." + stage)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                code = e.code
            except Exception:  # a traceback is a failed operation, not a crash
                code, sink = 1, io.StringIO(traceback.format_exc())
            finally:
                tracer.end()
            ledger.operation(f"{label} {stage}", code == 0,
                             f"exit {code}: {sink.getvalue().strip()[-300:]}")
    finally:
        os.chdir(cwd)
    return tracer


def percentiles(samples):
    """Median, and the highest percentile with at least 10 samples beyond
    it, with that percentile.  With 20 samples or fewer no such percentile
    lies above the median, and the maximum is given, at 100%."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 0.0, 100.0
    i = len(xs) - 11
    if 2 * (i + 1) <= len(xs):
        return statistics.median(xs), xs[-1], 100.0
    return statistics.median(xs), xs[i], 100.0 * (i + 1) / len(xs)


def traced(w, seed: int, seconds: float, ledger: Ledger) -> dict:
    run_dir = fresh_dir(RUNS / w.name)
    workloads.write_config(w, run_dir, seed)
    values = ValueCheck(w, seed, ledger)
    import_s = import_time(run_dir)
    n_commands = len(workloads.chain(w, 1)) + (1 if w.synth else 0)

    # untraced passes at the workload's jobs and, if that differs, at jobs 1
    stage_walls = {}
    for jobs in sorted({w.jobs, 1}, reverse=True):
        sub = fresh_dir(run_dir / f"jobs{jobs}")
        shutil.copy(run_dir / "config.json", sub)
        wall = set_up(w, sub, seed, jobs, ledger)
        check_dataset(w, sub, ledger)
        walls = untraced_pass(w, sub, jobs, ledger, f"jobs-{jobs} pass")
        values.check(sub, f"jobs-{jobs} pass")
        stage_walls[jobs] = (wall if w.synth else 0.0) + walls["run"]

    sys.path.insert(0, str(SRC))
    import ctadet.cli as cli

    instr = Instrumentation()
    instr.install()
    sub = fresh_dir(run_dir / "traced")
    shutil.copy(run_dir / "config.json", sub)
    if not w.synth:
        set_up(w, sub, seed, 1, ledger)
    tracers = []
    deadline = time.perf_counter() + seconds
    while len(tracers) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        tracers.append(traced_pass(cli, instr, w, sub, ledger, f"traced pass {len(tracers) + 1}"))
        values.check(sub, f"traced pass {len(tracers)}")

    for name in sorted(instr.counters):
        seen = {tr.counts[name] for tr in tracers}
        if len(seen) > 1:
            ledger.failed += 1
            ledger.error(f"counter {name} differs between traced passes: {sorted(seen)}")

    with open(run_dir / "spans.jsonl", "w") as f:
        for k, tr in enumerate(tracers):
            for span in tr.spans:
                f.write(json.dumps([k, *span]) + "\n")

    # per stage and per name self time, median over traced passes
    per_pass = [tr.self_times() for tr in tracers]
    keys = set().union(*per_pass)
    by_stage = {key: statistics.median(p.get(key, 0.0) for p in per_pass) for key in keys}
    self_s = {}
    for (stage, name), value in by_stage.items():
        self_s[name] = self_s.get(name, 0.0) + value
    stage_s = {}  # stage -> its wall in each traced pass
    for k, tr in enumerate(tracers):
        for name, start, end, parent in tr.spans:
            if parent < 0:
                stage_s.setdefault(name, [0.0] * len(tracers))[k] += end - start
    traced_wall = statistics.median(
        sum(end - start for _, start, end, parent in tr.spans if parent < 0) for tr in tracers)

    net = {jobs: wall - n_commands * import_s for jobs, wall in stage_walls.items()}
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (sum(v for (stage, name), v in by_stage.items() if stage == name), "s"),
        "cli.trace_overhead_s": (traced_wall - net[1], "s"),
        "cli.pool_efficiency": (net[1] / (w.jobs * net[w.jobs]), "ratio"),
    }
    for name in sorted(instr.spans):
        metrics[name + "_s"] = (self_s.get(name, 0.0), "s")
    for name in sorted(instr.counters):
        metrics[name] = (tracers[0].counts[name], "MB" if name.endswith("_mb") else "count")
    sites = [s for s in ("merge", "select") if f"postproc.nms_{s}" in instr.spans]
    if sites:
        metrics["postproc.nms_s"] = (sum(self_s.get(f"postproc.nms_{s}", 0.0) for s in sites), "s")
        for part in ("calls", "in", "kept"):
            names = [f"postproc.nms_{s}_{part}" for s in sites]
            if all(n in instr.counters for n in names):
                metrics[f"postproc.nms_{part}"] = (sum(tracers[0].counts[n] for n in names), "count")
    for kind in ("detect", "reduce"):
        span = f"pipeline.{kind}_volume"
        if span not in instr.spans:
            continue
        samples = [1000.0 * d for tr in tracers for d in tr.durations(span)]
        p50, tail, pct = percentiles(samples)
        metrics[f"{span}_ms_p50"] = (p50, "ms")
        metrics[f"{span}_samples"] = (len(samples), "count")
        if kind == "detect":
            metrics[f"{span}_ms_ptail"] = (tail, "ms")
            metrics[f"{span}_tail_pct"] = (pct, "%")

    print(f"workload {w.name}: {len(tracers)} traced passes at jobs 1, "
          f"untraced stage wall {', '.join(f'jobs {j}: {s:.3f} s' for j, s in sorted(stage_walls.items()))}, "
          f"traced stage wall {traced_wall:.3f} s, output digest {values.digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.4f} {unit}")
    print(f"  not measured: {NOT_MEASURED}")
    print("self time by stage (median over traced passes):")
    for stage in sorted(stage_s):
        wall = statistics.median(stage_s[stage])
        rows = sorted(((v, n) for (s, n), v in by_stage.items() if s == stage), reverse=True)
        print(f"  {stage} wall {wall:.3f} s: " + ", ".join(
            f"{n} {v:.3f} ({100 * v / wall:.0f}%)" for v, n in rows[:6]))
    for line in predictions(w.name, by_stage, stage_s):
        print("  prediction " + line)
    return metrics


def predictions(name: str, by_stage: dict, stage_s: dict):
    """Where each workload's time is predicted to go, checked against the
    traced run."""

    def share(stage, prefixes):
        wall = statistics.median(stage_s.get(stage, [0.0])) or 1.0
        return sum(v for (s, n), v in by_stage.items()
                   if s == stage and n.startswith(prefixes)) / wall

    def largest(stage):
        rows = [(v, n) for (s, n), v in by_stage.items() if s == stage]
        return max(rows)[1] if rows else None

    if name == "cohort":
        top = largest("cli.detect")
        yield f"anchors.anchor_grid is the largest self time in detect: " \
              f"{'held' if top == 'anchors.anchor_grid' else 'FAILED'} (largest {top})"
    elif name == "crowded":
        for stage, span in (("cli.detect", "postproc.nms_merge"),
                            ("cli.reduce", "postproc.nms_select")):
            top = largest(stage)
            yield f"{span} is the largest self time in {stage}: " \
                  f"{'held' if top == span else 'FAILED'} (largest {top})"
    elif name == "large-field":
        s = share("cli.detect", ("pipeline.decode", "volume."))
        yield f"pipeline.decode plus volume.* make up most of detect: " \
              f"{'held' if s > 0.5 else 'FAILED'} ({100 * s:.0f}%)"
    elif name == "eval-cohort":
        s = share("cli.eval", ("evaluation.bootstrap_ci", "evaluation.bootstrap_stat"))
        yield f"bootstrap_ci (statistic included) is at least 90% of eval: " \
              f"{'held' if s >= 0.9 else 'FAILED'} ({100 * s:.0f}%)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, 0 or more")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be 0 or more")
    if not (SRC / "ctadet" / "cli.py").is_file():
        print(f"error: no ctadet sources at {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    ledger = Ledger()
    run = traced if args.trace else untraced
    metrics = run(w, args.seed, args.seconds, ledger)
    for n, passes in list(ledger.notes.items())[:20]:
        print(f"note: {n} ({passes} passes)")
    for e in ledger.errors[:20]:
        print(f"error: {e}")
    result = {
        "correct": not ledger.errors and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
