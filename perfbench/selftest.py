"""Self-test of the benchmark: every workload at toy size, untraced and traced.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that each run exits 0 with a correct
result and no failed operation, that it emits exactly the metrics
BENCHMARK.json names (end-to-end untraced, per-layer traced) with their
units, that the report carries each workload's named figures, and that the
benchmark refuses to run, printing no result, without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAMED = {
    "phase_rich": {"trials_per_s": "1/s", "trials_per_s_2t": "1/s"},
    "phase_edge": {"trials_per_s": "1/s", "trials_per_s_2t": "1/s"},
    "solve_count": {"solves_per_s": "1/s", "solve_tail_ms": "ms"},
    "exact_rational": {"exact_wall_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "frac"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or report["figures"]["failed_frac"]["value"] != 0:
                problems.append(f"{where}: failed operations {report['failed_ops']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want[trace]))}")
            named = {name: f["unit"] for name, f in report["figures"].items()}
            if any(named.get(name) != unit for name, unit in {**NAMED[workload], **COMMON}.items()):
                problems.append(f"{where}: named figures {named}")
            print(f"ok  {where} ({result['attempted']} operations)")

    # without src/ the benchmark must fail and print no result
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("phase_rich", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print("ok  bare checkout refused")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
