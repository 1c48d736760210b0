"""Run one benchmark workload against the package in src/ and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the repository root.  The workload's rounds run untraced at one
thread, then at two, then every output is checked.  A fixed reference
kernel is timed between the single-thread rounds and around each set-up
probe; README.md says how the gated times are scaled by it.  With
--trace 1 a traced single-thread pass follows and the
per-layer metrics are printed instead of the end-to-end ones.  The line
before the last is a report (provenance, the figures under their
per-workload names, the checks); the last line is the result object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREADS = 2  # the second thread count; nproc is recorded with every result
SETUP_REPEATS = 7
# Time of the reference kernel on the baseline machine when it ran fastest.
# Gated times are scaled to this speed; the constant sets only their scale.
REF_S = 0.0014


def _import_package():
    if not (SRC / "randisc" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import randisc

    if Path(randisc.__file__).resolve().parent != SRC / "randisc":
        sys.exit(f"perfbench: imported randisc from {randisc.__file__}, not from {SRC}")


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "randisc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "nproc": os.cpu_count(),
        "threads_2t": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "command": sys.orig_argv,
    }


def reference_s():
    """Seconds a fixed pure-Python kernel takes now (median of three).

    It shares no code with randisc, so only the machine moves it: on a
    shared host the speed of one core drifts by up to 2x over seconds to
    minutes, and interpreted code slows about as much as this loop does.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(args):
    """Wall time from starting a fresh interpreter to the point just before
    the first operation: imports, building the inputs, warm-up.  Returns
    (raw seconds, seconds scaled to the reference speed)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), str(args.seconds)]
    ref = reference_s()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd + (["--toy"] if args.toy else []), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    return elapsed, elapsed * 2 * REF_S / (ref + reference_s())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()

    _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.toy)
    wl.warm_up()

    # All rounds at one thread, then all at two; the set-up probes are
    # spread over the run so their median samples the machine's speed over
    # the whole of it.  The reference kernel runs between single-thread
    # rounds; each round's wall time is scaled by the mean of the readings
    # on either side of it.  Peak memory is taken after the single-thread
    # rounds, where it does not depend on how two threads' calls overlap.
    repeats = 2 if args.toy else SETUP_REPEATS
    setups = []
    walls = {1: [], THREADS: []}  # per round
    outs = {1: [], THREADS: []}
    refs = [reference_s()]
    n_rounds = len(wl.rounds)
    for block, threads in enumerate((1, THREADS)):
        for k in range(n_rounds):
            t0 = time.perf_counter()
            outs[threads].append(wl.execute(k, threads))
            walls[threads].append(time.perf_counter() - t0)
            if threads == 1:
                refs.append(reference_s())
            if len(setups) < repeats * (block * n_rounds + k + 1) // (2 * n_rounds):
                setups.append(measure_setup(args))
        if threads == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [w * 2 * REF_S / (a + b) for w, a, b in zip(walls[1], refs, refs[1:])]
    setup_s = statistics.median(scaled_s for _, scaled_s in setups)
    t0 = time.perf_counter()
    failed = wl.check(outs[1], outs[THREADS])
    verify_s = time.perf_counter() - t0

    n_ops = wl.n_ops()
    ops_per_s, ops_per_s_2t = throughput(wl, walls[1]), throughput(wl, walls[THREADS])
    e2e = {
        "ops_per_s": {"value": throughput(wl, scaled if wl.interpreted else walls[1]), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    named = _named_figures(args.workload, wl, outs[1], sum(walls[1]), ops_per_s, ops_per_s_2t)
    named.update(
        setup_s={"value": statistics.median(raw for raw, _ in setups), "unit": "s"},
        peak_rss_mb=e2e["peak_rss_mb"],
        reference_ms={"value": 1e3 * statistics.median(refs), "unit": "ms"},
    )

    per_layer = None
    if args.trace:
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        with spans.instrument(tracer):
            traced = [wl.traced(k, tracer) for k in range(len(wl.rounds))]
        wall_traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        failed |= wl.check_traced(outs[1], traced)
        verify_s += time.perf_counter() - t0
        per_layer = spans.layer_metrics(
            tracer.spans, wall_1t=sum(walls[1]), wall_traced=wall_traced,
            ops_per_s=ops_per_s, ops_per_s_2t=ops_per_s_2t, verify_s=verify_s, cli=wl.cli,
        )
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"provenance": provenance(args), "spans": tracer.spans}, fh)

    named["failed_frac"] = {"value": len(failed) / n_ops, "unit": "frac"}
    report = {
        "provenance": provenance(args),
        "operations": n_ops,
        "failed_ops": [wl.describe(*op) for op in sorted(failed)[:20]],
        "figures": named,
        "bench.verify_s": verify_s,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": not failed,
        "attempted": n_ops,
        "failed": len(failed),
        "metrics": per_layer if args.trace else e2e,
    }
    print(json.dumps(result))


def throughput(wl, walls):
    """Operations per second over rounds that took `walls` seconds each.

    Where the rounds are alike (the same operations on inputs drawn the same
    way) it is the median over rounds, which neither a rare costly round
    nor a short slow spell of the machine moves; otherwise all operations
    over the summed wall time.
    """
    if wl.alike_rounds:
        return statistics.median(wl.round_ops(k) / wall for k, wall in enumerate(walls))
    return wl.n_ops() / sum(walls)


def _named_figures(workload, wl, outs1, wall_1t, ops_per_s, ops_per_s_2t):
    """The end-to-end figures under the names each workload's users know."""
    from spans import tail

    unit = {"solve_count": "solves", "exact_rational": "queries"}.get(workload, "trials")
    fig = {
        f"{unit}_per_s": {"value": ops_per_s, "unit": "1/s"},
        f"{unit}_per_s_2t": {"value": ops_per_s_2t, "unit": "1/s"},
    }
    if workload == "solve_count":
        lat = wl.latencies(outs1)
        value, pct, beyond = tail(lat)
        fig["solve_tail_ms"] = {"value": 1e3 * value, "unit": "ms", "percentile": pct,
                                "samples": len(lat), "beyond": beyond}
    if workload == "exact_rational":
        fig["exact_wall_s"] = {"value": wall_1t, "unit": "s"}
    return fig


if __name__ == "__main__":
    main()
