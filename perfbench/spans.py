"""Spans recorded around calls into randisc's public functions.

The package itself is not instrumented: `instrument` swaps each public
function named in HOOKS for a wrapper on its module object, so callers that
look the function up on the module (the CLI, the benchmark, and calls
between functions of one module) pass through the wrapper.  Spans stay in
memory as [name, start, end, parent, op, info] and are written out by the
caller when the run ends.
"""

import statistics
import time
from contextlib import ExitStack, contextmanager

from randisc import ensembles, locallimits, moments, solver, stein


class Tracer:
    """Single-threaded span recorder; `op` tags spans with the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()


def _count_info(args, kwargs, result):
    A = args[0]
    r = args[1] if len(args) > 1 else kwargs["r"]
    cap = args[2] if len(args) > 2 else kwargs.get("cap", solver.EXHAUSTIVE_CAP)
    if A.n <= cap:
        return {"path": "exh", "work": 2 ** (A.n - 1)}
    # two range-query needles per left half-signature per box offset
    return {"path": "mitm", "work": 2 * 2 ** (A.n // 2) * (2 * r + 1) ** (A.m - 1)}


# (module, public function, span name, info(args, kwargs, result) or None)
HOOKS = (
    (ensembles, "sample", "ensembles.sample", lambda a, k, res: {"entries": a[0].m * a[0].n}),
    (ensembles, "couple_even_parity", "ensembles.couple", None),
    (solver, "disc_exists_mitm", "solver.find", lambda a, k, res: {"feasible": bool(res[0])}),
    (solver, "count_solutions", "solver.count", _count_info),
    (solver, "disc_exhaustive", "solver.exhaustive", lambda a, k, res: {"work": 2 ** (a[0].n - 1)}),
    (moments, "second_moment_ratio", "moments.ratio", None),
    (moments, "moment_report", "moments.report", None),
    (stein, "stein_invert", "stein.invert", None),
    (stein, "identity_report", "stein.identity", None),
    (locallimits, "lazy_walk_pmf", "locallimits.walk", None),
    (locallimits, "error_scan", "locallimits.scan", None),
)


@contextmanager
def patched(module, attr, make_wrapper):
    """Replace module.attr by make_wrapper(original) for the duration."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _traced(tracer, name, info):
    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return wrapper

    return make


@contextmanager
def instrument(tracer):
    """Record a span for every call to a hooked public function."""
    with ExitStack() as stack:
        for module, attr, name, info in HOOKS:
            stack.enter_context(patched(module, attr, _traced(tracer, name, info)))
        yield


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _, _), c in zip(spans, child)]


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(values)
    if not xs:
        return 0.0, None, 0
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    idx = len(xs) - 11
    return xs[idx], 100.0 * (idx + 1) / len(xs), 10


def median(values):
    return statistics.median(values) if values else 0.0


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, *, wall_1t, wall_traced, ops_per_s, ops_per_s_2t, verify_s, cli):
    """Per-layer metrics from the spans of one traced pass.

    busy_s is self time; latencies (p50, tail) are whole-span durations.
    `cli` marks the phase workloads, where the untraced run went through
    the `randisc phase` command.
    """
    groups = {}
    for rec, own in zip(spans, self_times(spans)):
        groups.setdefault(rec[0], []).append((rec[2] - rec[1], own, rec[5] or {}))

    def calls(name):
        return len(groups.get(name, ()))

    def busy(name, path=None):
        return sum(own for _, own, info in groups.get(name, ()) if path in (None, info.get("path")))

    def durations(name):
        return [d for d, _, _ in groups.get(name, ())]

    def work(name, key, path=None):
        return sum(info.get(key, 0) for _, _, info in groups.get(name, ()) if path in (None, info.get("path")))

    root_s = sum(end - start for _, start, end, parent, _, _ in spans if parent is None)
    find = groups.get("solver.find", ())
    trial = durations("cli.trial")
    layer_s = busy("ensembles.sample") + busy("ensembles.couple") + busy("solver.find")
    values = {
        "ensembles.sample.calls": (calls("ensembles.sample"), "count"),
        "ensembles.sample.busy_s": (busy("ensembles.sample"), "s"),
        "ensembles.sample.p50_us": (1e6 * median(durations("ensembles.sample")), "us"),
        "ensembles.couple.calls": (calls("ensembles.couple"), "count"),
        "ensembles.couple.busy_s": (busy("ensembles.couple"), "s"),
        "ensembles.entries_per_s": (_rate(work("ensembles.sample", "entries"), busy("ensembles.sample")), "1/s"),
        "solver.find.calls": (calls("solver.find"), "count"),
        "solver.find.busy_s": (busy("solver.find"), "s"),
        "solver.find.share": (_rate(busy("solver.find"), root_s), "frac"),
        "solver.find.p50_ms": (1e3 * median(durations("solver.find")), "ms"),
        "solver.find.tail_ms": (1e3 * tail(durations("solver.find"))[0], "ms"),
        "solver.find.feasible_frac": (_rate(sum(i["feasible"] for _, _, i in find), len(find)), "frac"),
        "solver.count.calls": (calls("solver.count"), "count"),
        "solver.count.busy_s": (busy("solver.count"), "s"),
        "solver.count.p50_ms": (1e3 * median(durations("solver.count")), "ms"),
        "solver.count.tail_ms": (1e3 * tail(durations("solver.count"))[0], "ms"),
        "solver.count_mitm.lookups_per_s": (
            _rate(work("solver.count", "work", "mitm"), busy("solver.count", "mitm")), "1/s"),
        "solver.count_exh.vectors_per_s": (
            _rate(work("solver.count", "work", "exh"), busy("solver.count", "exh")), "1/s"),
        "solver.exhaustive.calls": (calls("solver.exhaustive"), "count"),
        "solver.exhaustive.busy_s": (busy("solver.exhaustive"), "s"),
        "solver.exhaustive.vectors_per_s": (
            _rate(work("solver.exhaustive", "work"), busy("solver.exhaustive")), "1/s"),
        "moments.ratio.calls": (calls("moments.ratio"), "count"),
        "moments.ratio.busy_s": (busy("moments.ratio"), "s"),
        "moments.report.busy_s": (busy("moments.report"), "s"),
        "stein.invert.calls": (calls("stein.invert"), "count"),
        "stein.invert.busy_s": (busy("stein.invert"), "s"),
        "stein.invert.targets_per_s": (_rate(calls("stein.invert"), busy("stein.invert")), "1/s"),
        "stein.identity.calls": (calls("stein.identity"), "count"),
        "stein.identity.busy_s": (busy("stein.identity"), "s"),
        "locallimits.walk.busy_s": (busy("locallimits.walk"), "s"),
        "locallimits.scan.busy_s": (busy("locallimits.scan"), "s"),
        "cli.trial.p50_ms": (1e3 * median(trial), "ms"),
        "cli.trial.tail_ms": (1e3 * tail(trial)[0], "ms"),
        "cli.phase.overhead_s": (wall_1t - layer_s if cli else 0.0, "s"),
        "cli.parallel_eff": (ops_per_s_2t / (2 * ops_per_s) if cli else 0.0, "ratio"),
        "bench.verify_s": (verify_s, "s"),
        "bench.trace_overhead": (wall_traced / wall_1t, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
