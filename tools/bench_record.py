#!/usr/bin/env python3
"""Record benchmark medians and trace counters in one ``BENCH_<pr>.json`` file.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --out BENCH_14.json --seeds 1600 1601 ... \\
        [--workload NAME ...] [--baseline OTHER_CHECKOUT]

For each workload (default: every workload of ``BENCHMARK.json``) the script
runs the unchanged ``perfbench/run.py --trace 0`` once per seed, for the
``run_seconds`` of ``BENCHMARK.json``, and records the median and quartiles of
the gated end-to-end metrics over the seeds.  It then runs one ``--trace 1``
pass on the first seed and keeps its deterministic counters (counts, bytes and
count ratios, no times), with the RHS evaluations per ``integrate_trajectory``
call beside them.

Each side is labelled by its ``src_sha256`` and by ``commit`` and ``dirty``:
the checkout's HEAD and whether ``src/`` or ``perfbench/`` differ from it, so a
run on uncommitted code is never filed under its parent's hash.  Next to them
stand the size of the code, as ``perfbench/run.py`` reads it from that
checkout's ``src/``: ``src_lines`` (the lines of its ``*.py`` files) and
``public_api_size`` (the length of ``fermicloud.__all__``).

With ``--baseline`` every seed also runs on the other checkout, alternating
which side goes first, and the file records the baseline's numbers next to
this checkout's and, per metric, the number of seeds on which this checkout
did better.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SECONDS = 1


def checkout_state(checkout: Path) -> dict:
    """HEAD of ``checkout`` and whether the measured code differs from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}  # not a git checkout


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its JSON result plus the ``info`` line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True, timeout=300 + 10 * seconds,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(line for line in lines if line.startswith("info "))
    result["info"] = json.loads(info[len("info "):])
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def deterministic_counters(result: dict) -> dict:
    """Trace metrics that count work rather than time it."""
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] in ("count", "B", "ratio") and not name.endswith("_share")
    }


def summarize(runs: list[dict], trace: dict, gated: list[str], state: dict) -> dict:
    info = dict(runs[0]["info"])
    for key in ("seed", "grid_shift_cells", "commit"):
        info.pop(key, None)
    info.update(state)
    counters = deterministic_counters(trace)
    trajectories = counters.get("dynamics.integrate_trajectory.calls")
    return {
        "info": info,
        "correct": all(r["correct"] for r in runs) and trace["correct"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: quartiles([r["metrics"][name]["value"] for r in runs]) for name in gated
        },
        "trace_counters": counters,
        # machine-independent cost of one shot (radial cross-checks included)
        "rhs_evals_per_trajectory": (
            counters["numerics.rhs_evals"] / trajectories if trajectories else None
        ),
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = [m["name"] for m in benchmark["end_to_end"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--baseline", type=Path,
                        help="another checkout to run against, e.g. the parent commit")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()

    states = {side: checkout_state(checkout) for side, checkout in sides.items()}
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "trace_command": (f"python3 perfbench/run.py --workload W --seed N "
                          f"--seconds {TRACE_SECONDS} --trace 1"),
        "seconds": seconds,
        "trace_seconds": TRACE_SECONDS,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workload or [w["name"] for w in benchmark["workloads"]]:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(run_bench(sides[side], workload, seed, seconds, 0))
                print(f"{workload} seed={seed} {side}: run_s="
                      f"{runs[side][-1]['metrics']['run_s']['value']:.4g}", file=sys.stderr)
        entry = {
            side: summarize(
                runs[side],
                run_bench(checkout, workload, args.seeds[0], TRACE_SECONDS, 1),
                gated,
                states[side],
            )
            for side, checkout in sides.items()
        }
        if "baseline" in sides:
            sign = {"lower": 1.0, "higher": -1.0}
            entry["pairs_won_by_change"] = {
                name: sum(
                    sign[better[name]] * (b["metrics"][name]["value"] - c["metrics"][name]["value"])
                    > 0.0
                    for c, b in zip(runs["change"], runs["baseline"])
                )
                for name in gated
            }
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
