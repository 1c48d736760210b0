"""The four workloads.

Each workload is built from (seed, seconds, toy) into rounds of operations.
A round can be executed untraced at a given thread count, executed as a
traced single-thread pass, and checked.  Operation ids are (round, index);
checks return the set of ids that raised or failed.

phase_rich, phase_edge  `randisc phase` runs, one per round; an operation is
                        one trial.  The traced pass replays the trials
                        through the public functions the command calls.
solve_count             solver calls on matrices sampled from the seed.
exact_rational          exact Stein, pair-identity, moment and local-limit
                        queries.

Two attributes tell run.py how to sum up the single-thread rounds.
`alike_rounds`: every round runs the same operations on inputs drawn the
same way, so the median over rounds is a fair throughput.  `interpreted`:
the time goes to interpreted Python (phase_rich's probe, exact_rational's
Fractions), which the reference kernel's speed tracks; phase_edge and
solve_count spend theirs in numpy kernels, which the machine's slow spells
slow about half as much, so their times are left as measured.
"""

import io
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from fractions import Fraction as F
from math import comb
from time import perf_counter

import oracles
from spans import patched
from randisc import cli, ensembles, locallimits, moments, solver, stein
from randisc.ensembles import IntMatrix
from randisc.rng import derive_key

# phase_edge replays one fixed trial set (derived from criterion 8's seed):
# its trials cost 20 ms to 1.3 s each, so trial sets drawn per seed differ
# by 25-30% in total cost at any run length that fits the time budget.
EDGE_SEED = 20240808


def _holds(check, *args):
    """A check that raises on a malformed result counts as not holding."""
    try:
        return bool(check(*args))
    except Exception:  # a malformed result fails its operation, not the run
        return False


def random_birth_death(rng, w):
    """Birth-death coefficients with small rational steps: a strictly
    decreasing to a_w = 0, b strictly increasing from b_0 = 0."""
    up = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(w)]
    down = [F(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(w)]
    a = [sum(up[s:], F(0)) for s in range(w)] + [F(0)]
    b = [F(0)] + [sum(down[: s + 1], F(0)) for s in range(w)]
    return a, b


def _confirm_infeasible(A, r):
    """No balanced u reaches radius r: brute force up to n = 16, else the count path."""
    if A.n <= 16:
        return oracles.brute_count(A, r) == 0
    return solver.count_solutions(A, r) == 0


def _find_ok(A, r, result):
    found, witness = result
    if found:
        return witness is not None and oracles.witness_ok(A, witness.signs, r)
    return _confirm_infeasible(A, r)


# ---------------------------------------------------------------------------
# phase scans


class PhaseWorkload:
    cli = True

    def __init__(self, *, m, param, r, parity, grid, trials, seeds, alike_rounds, interpreted):
        self.m, self.param, self.r, self.parity = m, F(param), r, parity
        self.grid, self.trials = grid, trials
        self.rounds = seeds  # one `randisc phase` seed per round
        self.alike_rounds, self.interpreted = alike_rounds, interpreted
        self.argv = [
            "phase", "--ensemble", "bernoulli", "--m", str(m), "--p", param,
            "--r", str(r), "--parity", parity, "--n-start", str(grid[0]),
            "--n-stop", str(grid[-1]), "--n-stride", str(grid[1] - grid[0]),
        ]

    def round_ops(self, k):
        return len(self.grid) * self.trials

    def n_ops(self):
        return len(self.rounds) * len(self.grid) * self.trials

    def _run_cli(self, seed, trials, threads):
        """One `randisc phase` run; returns (exit code, CSV, solver results).

        The solver results are captured by a wrapper that only records the
        call, so witnesses can be checked without solving again."""
        calls = []

        def capture(fn):
            def wrapper(A, r, *args, **kwargs):
                result = fn(A, r, *args, **kwargs)
                calls.append((A, r, result))
                return result

            return wrapper

        argv = self.argv + ["--trials", str(trials), "--seed", str(seed), "--threads", str(threads)]
        out = io.StringIO()
        with patched(solver, "disc_exists_mitm", capture), redirect_stdout(out):
            code = cli.dispatch(argv)
        return code, out.getvalue(), calls

    def warm_up(self):
        self._run_cli(0, 1, 1)

    def execute(self, k, threads):
        return self._run_cli(self.rounds[k], self.trials, threads)

    def _trial(self, seed, pi, n, t):
        # the trial of `randisc phase`, through the same public functions
        seed = derive_key(seed, pi, t)
        spec = ensembles.EnsembleSpec("bernoulli", self.m, n, self.param, seed)
        A = ensembles.sample(spec)
        if self.parity == "even":
            A = ensembles.couple_even_parity(A, spec, derive_key(seed, 0xEE))
        return A, self.r, solver.disc_exists_mitm(A, self.r, balanced_only=True)

    def traced(self, k, tracer):
        calls = []
        for pi, n in enumerate(self.grid):
            for t in range(self.trials):
                tracer.op = (k, pi * self.trials + t)
                with tracer.span("cli.trial"):
                    calls.append(self._trial(self.rounds[k], pi, n, t))
        return calls

    def describe(self, k, i):
        pi, t = divmod(i, self.trials)
        return f"round {k} (phase seed {self.rounds[k]}): trial {t} at n={self.grid[pi]}"

    def _ids(self, k, n=None):
        pis = range(len(self.grid)) if n is None else [self.grid.index(n)]
        return {(k, pi * self.trials + t) for pi in pis for t in range(self.trials)}

    @staticmethod
    def _key(call):
        A, r, (found, witness) = call
        return A.n, A.entries, found, witness.signs if witness else None

    def _successes(self, csv):
        rows = [line.split(",") for line in csv.splitlines()[1:]]
        return {int(row[0]): (int(row[1]), int(row[2])) for row in rows}

    def check(self, outs1, outs2):
        failed = set()
        for k, ((code1, csv1, calls1), (code2, csv2, calls2)) in enumerate(zip(outs1, outs2)):
            if code1 or code2 or csv1 != csv2 or len(calls1) != len(self.grid) * self.trials:
                failed |= self._ids(k)
                continue
            if sorted(map(self._key, calls1)) != sorted(map(self._key, calls2)):
                failed |= self._ids(k)  # results depend on the thread count
            rows = self._successes(csv1)
            wins = Counter(A.n for A, _, (found, _) in calls1 if found)
            for n in self.grid:
                if rows.get(n) != (self.trials, wins[n]):
                    failed |= self._ids(k, n)
            # calls1 is in trial order at one thread
            for i, (A, r, result) in enumerate(calls1):
                if not _holds(_find_ok, A, r, result):
                    failed.add((k, i))
        return failed

    def check_traced(self, outs1, traced):
        failed = set()
        for k, ((_, csv1, calls1), calls) in enumerate(zip(outs1, traced)):
            rows = self._successes(csv1)
            wins = Counter(A.n for A, _, (found, _) in calls if found)
            for n in self.grid:
                if rows.get(n) != (self.trials, wins[n]):
                    failed |= self._ids(k, n)
            for i, (a, b) in enumerate(zip(calls1, calls)):
                if self._key(a) != self._key(b):
                    failed.add((k, i))
        return failed


def phase_rich(seed, seconds, toy):
    # Short rounds, so that their median throughput passes over the rounds
    # where a trial misses the probe (one trial in 70) and runs a full scan.
    rng = random.Random(seed)
    grid, trials, round_s = ((8, 12), 4, None) if toy else ((24, 28, 32), 2, 0.3)
    rounds = 1 if toy else max(1, round(seconds / round_s))
    return PhaseWorkload(
        m=4, param="1/2", r=1, parity="even", grid=grid, trials=trials,
        seeds=[rng.getrandbits(63) for _ in range(rounds)], alike_rounds=True, interpreted=True,
    )


def phase_edge(seed, seconds, toy):
    rng = random.Random(EDGE_SEED)
    grid, trials, round_s = ((12, 16), 4, None) if toy else ((28, 32), 15, 5.0)
    rounds = 1 if toy else max(1, round(seconds / round_s))
    return PhaseWorkload(
        m=6, param="1/2", r=1, parity="none", grid=grid, trials=trials,
        seeds=[rng.getrandbits(63) for _ in range(rounds)], alike_rounds=False, interpreted=False,
    )


# ---------------------------------------------------------------------------
# batches of library calls


class Op:
    """One library call; `run` looks the function up on its module at call
    time, so the traced pass sees it."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def _call(op):
    t0 = perf_counter()
    try:
        value, ok = op.run(), True
    except Exception as exc:  # a raising operation counts as failed
        value, ok = f"{type(exc).__name__}: {exc}", False
    return ok, value, perf_counter() - t0


class OpsWorkload:
    cli = False
    alike_rounds = False

    def __init__(self, rounds, warm, interpreted):
        self.rounds = rounds
        self._warm = warm
        self.interpreted = interpreted

    def round_ops(self, k):
        return len(self.rounds[k])

    def n_ops(self):
        return sum(map(len, self.rounds))

    def warm_up(self):
        for fn in self._warm:
            fn()

    def execute(self, k, threads):
        if threads == 1:
            return [_call(op) for op in self.rounds[k]]
        with ThreadPoolExecutor(threads) as pool:
            return list(pool.map(_call, self.rounds[k]))

    def traced(self, k, tracer):
        outs = []
        for i, op in enumerate(self.rounds[k]):
            tracer.op = (k, i)
            with tracer.span("bench.op"):
                outs.append(_call(op))
        return outs

    def describe(self, k, i):
        return f"round {k}: {self.rounds[k][i].label}"

    def latencies(self, outs1):
        return [sec for out in outs1 for _, _, sec in out]

    def check(self, outs1, outs2):
        failed = set()
        for k, (ops, out1, out2) in enumerate(zip(self.rounds, outs1, outs2)):
            for i, (op, (ok1, v1, _), (ok2, v2, _)) in enumerate(zip(ops, out1, out2)):
                if not (ok1 and ok2 and v1 == v2 and _holds(op.check, v1)):
                    failed.add((k, i))
        return failed

    def check_traced(self, outs1, traced):
        return {
            (k, i)
            for k, (out1, out) in enumerate(zip(outs1, traced))
            for i, ((_, v1, _), (ok, v, _)) in enumerate(zip(out1, out))
            if not (ok and v == v1)
        }


def _split(ops, parts):
    """`ops` cut into `parts` contiguous rounds of near-equal length."""
    cuts = [len(ops) * i // parts for i in range(parts + 1)]
    return [ops[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def _reversed_columns(A):
    return IntMatrix.from_rows([row[::-1] for row in A.rows()])


def _count_ok(A, r, value):
    if A.n <= 16:
        return value == oracles.brute_count(A, r)
    if A.n <= solver.EXHAUSTIVE_CAP:
        # the meet-in-the-middle count of the same matrix
        return value == solver.count_solutions(A, r, cap=0)
    # the meet-in-the-middle count with the column halves swapped
    return value == solver.count_solutions(_reversed_columns(A), r)


def _exhaustive_ok(A, res):
    signs = res.witness.signs
    if signs[0] != 1 or sum(signs) != 0 or oracles.max_row(A, signs) != res.value:
        return False
    return res.value == 0 or _confirm_infeasible(A, res.value - 1)


def solve_count(seed, seconds, toy):
    rng = random.Random(seed)

    def sample(kind, m, n, param):
        return ensembles.sample(ensembles.EnsembleSpec(kind, m, n, F(param), rng.getrandbits(63)))

    if toy:
        count_ns, exh_ns, find_shape, rounds = (10, 12), (8, 10), (3, 8), 1
    else:
        count_ns, exh_ns, find_shape = (22, 24, 26, 28, 30), (20, 22, 24), (7, 18)
        rounds = max(1, round(seconds / 20.0))
    batches = []
    for _ in range(rounds):
        ops = []
        for n in count_ns:
            A = sample("bernoulli", 6, n, "1/2")
            ops.append(Op(f"count n={n}", lambda A=A: solver.count_solutions(A, 1),
                          lambda v, A=A: _count_ok(A, 1, v)))
        for n in exh_ns:
            A = sample("bernoulli", 6, n, "1/2")
            ops.append(Op(f"exhaustive n={n}", lambda A=A: solver.disc_exhaustive(A, balanced_only=True),
                          lambda v, A=A: _exhaustive_ok(A, v)))
        A = sample("poisson", find_shape[0], find_shape[1], 3)
        ops.append(Op(f"find m={A.m} n={A.n}", lambda A=A: solver.disc_exists_mitm(A, 1, balanced_only=True),
                      lambda v, A=A: _find_ok(A, 1, v)))
        batches.extend(_split(ops, 3))

    row = IntMatrix.from_rows
    warm = [
        lambda: solver.count_solutions(row([[1, 0] * 9]), 1),
        lambda: solver.count_solutions(row([[1, 0] * 14]), 1),
        lambda: solver.count_solutions(row([[1, 0] * 15]), 1),
        lambda: solver.disc_exhaustive(row([[1, 0] * 10]), balanced_only=True),
        lambda: solver.disc_exists_mitm(row([[2, 1] * 9] * 7), 1, balanced_only=True),
    ]
    return OpsWorkload(batches, warm, interpreted=False)


# ---------------------------------------------------------------------------
# exact rational queries

MOMENT_CASES = (
    ("bernoulli_parity_dense", {"p": F(1, 2)}),
    ("bernoulli_fixed_weight", {"w": 4}),
    ("poisson_fixed_weight", {"w": 4, "band_radius": 2}),
)


def _sweep_ok(a, b, sols):
    mu = oracles.stationary(a, b)
    return [s.t for s in sols] == list(range(1, len(a) - 1)) and all(
        oracles.stein_image_ok(a, b, s.t, s.f, mu) for s in sols
    )


def _identity_ok(rep):
    return rep.corrected_residual == 0 and rep.residual == rep.lhs - rep.rhs


def _ratio_ok(case, n, m, kw, exact, res):
    if not exact:
        return res.ratio >= 1 - 1e-12
    log_ratio = moments.second_moment_ratio(case, n=n, m=m, exact=False, **kw).ratio
    return res.ratio >= 1 and abs(float(res.ratio) - log_ratio) <= 1e-9 * float(res.ratio)


def _report_ok(n, m, exact, rep):
    if rep.phi_at[F(1)] != rep.psi or rep.ratio < 1 - 1e-12:
        return False
    return not exact or rep.first_moment.value == F(comb(n, n // 2)) * rep.psi**m


def _scan_ok(rs, p, scan):
    return (
        sorted(row.params["r"] for row in scan.rows) == sorted(rs)
        and all(row.exact == float(oracles.walk_center(row.params["r"], p)) for row in scan.rows)
        and scan.decay_exponent is not None
    )


def _identity_scenarios(w_max, n_max):
    """The pair-identity grids of acceptance criterion 2."""
    out = []
    for w in range(2, w_max + 1, 2):
        for i in range(1, 12):
            for radius in (0, 1, 2):
                band = moments.SymmetricBand(radius, w % 2)
                if all(1 <= t <= w - 1 for t in band.targets(w)):
                    out.append(("poisson", moments.OverlapScenario("poisson_fixed_weight", 2 * w, w, F(i, 12), band)))
    for n in range(4, n_max + 1, 2):
        for w in range(2, min(12, n // 2) + 1, 2):
            for j in range(n // 2 + 1):
                out.append(("bernoulli", moments.OverlapScenario("bernoulli_fixed_weight", n, w, F(2 * j, n))))
    return out


# Stein specs drawn per round; criterion-2 identity grids; moment sizes where
# exact and log-space ratios both run, and a log-space-only size; lazy-walk
# lengths of the Edgeworth scan (criterion 6).
EXACT_SIZES = {
    "full": {"specs": 40, "w_max": 64, "id_w": 20, "id_n": 24, "exact": ((32, 4), (64, 8)),
             "log": ((32, 4), (64, 8), (256, 16)), "walk_rs": (100, 200, 400, 800)},
    "toy": {"specs": 3, "w_max": 8, "id_w": 6, "id_n": 8, "exact": ((8, 2),),
            "log": ((8, 2), (16, 4)), "walk_rs": (10, 20, 40, 80)},
}
WALK_P = F(1, 10)


def exact_rational(seed, seconds, toy):
    rng = random.Random(seed)
    size = EXACT_SIZES["toy" if toy else "full"]
    batches = 1 if toy else max(1, round(seconds / 20.0))
    warm = [
        lambda: stein.stein_invert(stein.binomial_pair_spec(4), 2),
        lambda: stein.identity_report("bernoulli", moments.OverlapScenario("bernoulli_fixed_weight", 8, 2, F(1, 2))),
        lambda: moments.moment_report("bernoulli_parity_dense", n=8, m=1, p=F(1, 2)),
        lambda: locallimits.error_scan("edgeworth_lazy", [{"r": r, "p": WALK_P, "point": 0} for r in (4, 8, 16)], size_key="r"),
    ]
    return OpsWorkload([r for _ in range(batches) for r in _exact_rounds(rng, size)], warm, interpreted=True)


def _exact_rounds(rng, size):
    # w runs evenly over 2..w_max, so a round's cost hardly depends on the seed
    sweeps = []
    for i in range(size["specs"]):
        a, b = random_birth_death(rng, 2 + i * (size["w_max"] - 2) // (size["specs"] - 1))
        bd = stein.BirthDeathSpec(len(a) - 1, tuple(a), tuple(b))
        sweeps.append(Op(f"stein w={bd.w}", lambda bd=bd: [stein.stein_invert(bd, t) for t in range(1, bd.w)],
                         lambda v, a=a, b=b: _sweep_ok(a, b, v)))
    identities = [
        Op(f"identity {case}", lambda c=case, s=scen: stein.identity_report(c, s), _identity_ok)
        for case, scen in _identity_scenarios(size["id_w"], size["id_n"])
    ]
    moment_ops = []
    for case, kw in MOMENT_CASES:
        for exact, sizes in ((True, size["exact"]), (False, size["log"])):
            for n, m in sizes:
                moment_ops.append(Op(
                    f"ratio {case} n={n} m={m} exact={exact}",
                    lambda c=case, n=n, m=m, kw=kw, e=exact: moments.second_moment_ratio(c, n=n, m=m, exact=e, **kw),
                    lambda v, c=case, n=n, m=m, kw=kw, e=exact: _ratio_ok(c, n, m, kw, e, v)))
            n, m = sizes[-1]
            moment_ops.append(Op(
                f"report {case} n={n} m={m} exact={exact}",
                lambda c=case, n=n, m=m, kw=kw, e=exact: moments.moment_report(c, n=n, m=m, exact=e, **kw),
                lambda v, n=n, m=m, e=exact: _report_ok(n, m, e, v)))
    # error_scan builds the exact lazy-walk pmf at every length it scans
    grid = [{"r": r, "p": WALK_P, "point": 0} for r in size["walk_rs"]]
    scan = Op("scan edgeworth_lazy", lambda: locallimits.error_scan("edgeworth_lazy", grid, size_key="r"),
              lambda v: _scan_ok(size["walk_rs"], WALK_P, v))
    return [*_split(sweeps, 4), *_split(identities, 4), moment_ops, [scan]]


WORKLOADS = {
    "phase_rich": phase_rich,
    "phase_edge": phase_edge,
    "solve_count": solve_count,
    "exact_rational": exact_rational,
}
