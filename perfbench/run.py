#!/usr/bin/env python3
"""Benchmark of the fermicloud shooting solver, one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mb-multiplicity, ffd-multiplicity, classical-limit (see NOTES.md).
A run is one process and one thread.  It imports the library from ``src/`` of
the checkout and runs warm passes of the workload in a closed loop for about
``--seconds`` seconds: each pass starts when the previous one has returned,
and no pass starts that would be expected to end after the window.  Every pass
is checked against the committed references outside the timed region.

``--trace 0`` prints the end-to-end metrics: medians over the passes, plus the
set-up time as the median of several fresh interpreters.  ``--trace 1`` traces
an in-process set-up and alternates untraced and traced passes; it prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the run writes nothing under src/

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

# Gated end-to-end metrics and their units; NOTES.md maps the two stage
# metrics to the quantity each workload puts there.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "curve_or_study_s": "s",
    "roots_or_cli_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    wall: float
    stages: tuple[float, float]
    tally: workloads.Tally
    info: dict


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must lie in [1, 600]")
    return args


def load_library():
    sys.path.insert(0, str(SRC))
    import fermicloud
    import fermicloud.cli  # noqa: F401  (the classical-limit workload drives it)

    if Path(fermicloud.__file__).resolve().parent != SRC / "fermicloud":
        raise RuntimeError(f"imported fermicloud from {fermicloud.__file__}, not from src/")
    return fermicloud


def probe_setup(name: str) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "setup_probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(fc, workload, workdir: Path, pass_tracer=None) -> Pass:
    """One pass, timed per stage; checked after the timed region."""
    # Collect the previous pass's garbage here, not inside the timed stages.
    gc.collect()
    clock = time.perf_counter
    first_name, second_name = workload.stage_names
    if pass_tracer is None:
        t0 = clock()
        first = workload.stage1(fc, workdir)
        t1 = clock()
        second = workload.stage2(fc, first, workdir)
        t2 = clock()
        stages = (t1 - t0, t2 - t1)
    else:
        pass_tracer.install()
        try:
            t0 = clock()
            first = pass_tracer.stage(first_name, workload.stage1, fc, workdir)
            second = pass_tracer.stage(second_name, workload.stage2, fc, first, workdir)
            t2 = clock()
        finally:
            pass_tracer.uninstall()
        stages = (pass_tracer.stage_s[first_name], pass_tracer.stage_s[second_name])
    return Pass(t2 - t0, stages, workload.check(first, second), workload.info(first, second))


def timed_run(workload, seconds: int, workdir: Path):
    setup = [probe_setup(workload.name) for _ in range(SETUP_REPEATS)]
    fc = load_library()
    workload.setup(fc)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(fc, workload, workdir))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return fc, setup, passes, rss_mb


def traced_run(workload, seconds: int, workdir: Path):
    fc = load_library()
    origin = time.perf_counter()
    setup_tracer = tracer.Tracer()
    setup_tracer.install()
    try:
        workload.setup(fc)
    finally:
        setup_tracer.uninstall()
    untraced: list[Pass] = []
    traced: list[tuple[Pass, tracer.Tracer]] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(fc, workload, workdir))
        pass_tracer = tracer.Tracer()
        traced.append((run_pass(fc, workload, workdir, pass_tracer), pass_tracer))
        pair = untraced[-1].wall + traced[-1][0].wall
        if time.perf_counter() - start + pair > seconds:
            break
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "setup": setup_tracer.span_records(origin),
        "passes": [tr.span_records(origin) for _p, tr in traced],
    }) + "\n", encoding="utf-8")
    return fc, setup_tracer, untraced, traced, spans_path


def traced_metrics(setup_tracer, untraced, traced) -> dict[str, float]:
    per_pass = [tracer.layer_metrics([setup_tracer, tr]) for _p, tr in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["cli.artifact_bytes"] = statistics.median(
        p.info.get("artifact_bytes", 0) for p, _tr in traced)
    traced_s = statistics.median(p.wall for p, _tr in traced)
    untraced_s = statistics.median(p.wall for p in untraced)
    metrics["trace.run_s"] = traced_s
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.spans"] = statistics.median(
        len(setup_tracer.spans) + len(tr.spans) for _p, tr in traced)
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def run_info(fc, workload) -> dict:
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "grid_shift_cells": workload.shift,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "public_api_size": len(fc.__all__),
    }


def tally_totals(passes) -> tuple[int, int, list[str], list[str]]:
    """Operation totals over all passes, and the distinct failed and missed labels."""
    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(len(p.tally.failed) for p in passes)
    failed_labels = list(dict.fromkeys(lab for p in passes for lab in p.tally.failed))
    misses = list(dict.fromkeys(lab for p in passes for lab in p.tally.misses))
    return attempted, failed, failed_labels, misses


def describe(values) -> str:
    values = list(values)
    return f"median of {len(values)}, range {min(values):.4g}..{max(values):.4g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fermicloud" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'fermicloud'}; "
              "run from the root of a fermicloud checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](args.seed, reference)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            fc, setup_tracer, untraced, traced, spans_path = traced_run(
                workload, args.seconds, workdir)
            passes = untraced + [p for p, _tr in traced]
            metrics = {k: (v, "") for k, v in traced_metrics(
                setup_tracer, untraced, traced).items()}
            units = tracer.UNITS
        else:
            fc, setup, passes, rss_mb = timed_run(workload, args.seconds, workdir)
            units = END_TO_END
            metrics = {
                "run_s": (statistics.median(p.wall for p in passes), describe(
                    p.wall for p in passes) + " warm passes"),
                "setup_s": (statistics.median(setup), describe(setup)
                            + " fresh interpreters"),
                "curve_or_study_s": (statistics.median(p.stages[0] for p in passes),
                                     describe(p.stages[0] for p in passes)),
                "roots_or_cli_s": (statistics.median(p.stages[1] for p in passes),
                                   describe(p.stages[1] for p in passes)),
                "peak_rss_mb": (rss_mb, "peak resident set of the workload process"),
            }
        info = run_info(fc, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failed_labels, misses = tally_totals(passes)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)}")
    print("info " + json.dumps(info, sort_keys=True))
    # The shared stage slots print under the workload's own stage names.
    labels = dict(zip(("curve_or_study_s", "roots_or_cli_s"), workload.stage_names))
    for name, (value, note) in metrics.items():
        if name in labels:
            note = f"(gated as {name}) {note}"
        print(f"  {labels.get(name, name):40s} {value:14.6g} {units[name]:5s} {note}")
    print(f"  {'fail_share':40s} {failed / attempted:14.6g}     "
          f"{failed} of {attempted} operations over {len(passes)} passes")
    for label in failed_labels[:24]:
        print(f"    failed: {label}")
    for label in misses[:24]:
        print(f"    MISSES REFERENCE: {label}")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
