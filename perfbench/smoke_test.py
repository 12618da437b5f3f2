"""Smoke test of the benchmark itself at a one-second run length.

Usage: python3 perfbench/smoke_test.py        (about two minutes)

For every workload it runs the benchmark untraced and traced and checks that
the result line carries exactly the metrics BENCHMARK.json names, with their
units; that the traced run reports every layer and the shape the notes give;
and that no file outside ``perfbench/out/`` was written.  Last, it runs the
command in a directory holding only BENCHMARK.json and the benchmark files,
where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAYERS = ("numerics", "fermi", "models", "dynamics", "bifurcation", "cli")


def snapshot() -> dict:
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        here = Path(dirpath)
        dirnames[:] = [d for d in dirnames if here / d not in (ROOT / ".git", OUT)]
        for name in filenames:
            stat = (here / name).stat()
            files[here / name] = (stat.st_size, stat.st_mtime_ns)
    return files


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(spec: dict, workload: str, trace: int, proc) -> dict:
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, (workload, proc.stdout[-3000:])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (workload, trace)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        if not trace:
            assert got["value"] > 0.0, (workload, m, got)
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_shape(workload: str, metrics: dict) -> None:
    for layer in LAYERS:
        assert f"layer.{layer}.self_s" in metrics
    if workload == "mb-multiplicity":
        assert metrics["fermi.inverse.calls"] == 0, metrics["fermi.inverse.calls"]
        assert metrics["shape.ode_integrate_curve_share"] >= 0.9, metrics
    if workload == "ffd-multiplicity":
        assert metrics["shape.response_fermi_curve_share"] >= 0.6, metrics
    if workload.endswith("multiplicity"):
        assert metrics["bifurcation.refine_shoots_per_root"] > 0.0, metrics
    else:
        assert metrics["cli.calls"] == 4 and metrics["cli.artifact_bytes"] > 0, metrics


def check_bare_directory() -> None:
    OUT.mkdir(exist_ok=True)
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = run(bare, "mb-multiplicity", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = snapshot()
    for entry in spec["workloads"]:
        name = entry["name"]
        check_result(spec, name, 0, run(ROOT, name, 0))
        check_shape(name, check_result(spec, name, 1, run(ROOT, name, 1)))
        print(f"ok {name}")
    after = snapshot()
    changed = sorted(str(p) for p in set(before) | set(after) if before.get(p) != after.get(p))
    assert not changed, f"files written outside perfbench/out/: {changed}"
    check_bare_directory()
    print("ok: smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
