"""Command-line front end.

Subcommands: gen, disc, zcount, moments, ratio, stein, lclt, phase.
Exit codes partition cleanly: 0 success, 2 user/parameter error, 3 capacity
error, 4 internal invariant violation.  Probability and rate flags accept
exact rationals ("1/3") or decimal strings ("0.25"); rationals survive
unchanged into the exact moment computations.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import log10

from . import ensembles, locallimits, moments, solver, stein
from .errors import CapacityError, InvariantViolation, ParameterError
from .phase import PhaseScanConfig, run_phase_scan


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational {text!r}: {exc}") from None


def _fmt_fraction(fr):
    if fr is None:
        return None
    try:
        return f"{fr.numerator}/{fr.denominator}"
    except ValueError:  # an integer past Python's int-to-str digit limit
        digits = int(log10(max(abs(fr.numerator), fr.denominator))) + 1
        limit = sys.get_int_max_str_digits()
        raise CapacityError(
            f"a {digits}-digit integer in the output passes sys.get_int_max_str_digits() = {limit}"
        ) from None


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args):
    spec = ensembles.EnsembleSpec(args.ensemble, args.m, args.n, _fraction(args.p), args.seed)
    A = ensembles.sample_at_parity(spec, args.parity)
    if args.out:
        ensembles.write_matrix(args.out, A)
    else:
        sys.stdout.write(ensembles.format_matrix(A))
    return 0


def _cmd_disc(args):
    A = ensembles.read_matrix(args.infile)
    if args.method == "brute":
        res = solver.disc_exhaustive(A, balanced_only=args.balanced)
    else:
        if args.r is None:
            raise ParameterError("--method mitm needs --r")
        ok, wit = solver.disc_exists_mitm(A, args.r, balanced_only=args.balanced)
        print(json.dumps({"feasible": ok, "r": args.r, "witness": str(wit) if wit else None}))
        return 0
    print(json.dumps(res.to_json_dict()))
    return 0


def _cmd_zcount(args):
    A = ensembles.read_matrix(args.infile)
    count = solver.count_solutions(A, args.r)
    print(json.dumps({"r": args.r, "count": count}))
    return 0


def _moment_kwargs(args):
    case = {
        "dense": "bernoulli_parity_dense",
        "bernoulli-fixed": "bernoulli_fixed_weight",
        "poisson-fixed": "poisson_fixed_weight",
    }[args.case]
    kw = {"n": args.n, "m": args.m, "band_radius": args.band}
    if case == "bernoulli_parity_dense":
        if args.p is None:
            raise ParameterError("dense case needs --p")
        kw["p"] = _fraction(args.p)
    else:
        if args.w is None:
            raise ParameterError("fixed-weight cases need --w")
        kw["w"] = args.w
    return case, kw


def _cmd_moments(args):
    case, kw = _moment_kwargs(args)
    report = moments.moment_report(case, **kw)
    flags = None
    if args.check:
        flags = moments.check_smm_conditions(
            report, args.m, Fraction(1, 8), Fraction(1, 4)
        )
    payload = {
        "case": case,
        "n": report.n,
        "m": report.m,
        "psi": _fmt_fraction(report.psi),
        "phi": [
            [b.numerator, b.denominator, _fmt_fraction(v)]
            for b, v in sorted(report.phi_at.items())
        ],
        "first_moment": _fmt_fraction(report.first_moment.value),
        "log_first_moment": report.first_moment.log_value,
        "ratio": _fmt_fraction(report.ratio),
    }
    if flags:
        payload["flags"] = {
            "first_moment_holds": flags.first_moment_holds,
            "c_margin": flags.c_margin,
            "weak_bound_holds": flags.weak_bound_holds,
            "C_delta": _fmt_fraction(flags.c_delta),
            "strong_bound_holds": flags.strong_bound_holds,
            "C_strong": _fmt_fraction(flags.c_strong),
            "C_fit": flags.c_fit,
            "central_ratio": _fmt_fraction(flags.central_ratio),
        }
    print(json.dumps(payload))
    return 0


def _cmd_ratio(args):
    case, kw = _moment_kwargs(args)
    res = moments.second_moment_ratio(case, **kw)
    payload = {
        "case": case,
        "ratio": _fmt_fraction(res.ratio),
        "profile": [
            {
                "r": t.r,
                "beta": _fmt_fraction(t.beta),
                "phi_over_psi2": _fmt_fraction(t.phi_over_psi2),
                "term": _fmt_fraction(t.term),
            }
            for t in res.profile
        ],
    }
    print(json.dumps(payload))
    return 0


def _load_birth_death(path):
    """JSON file with fields w, a, b; coefficients as "num/den" strings."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"spec file is not JSON text: {exc}") from None
    if not isinstance(data, dict):
        raise ParameterError("spec file must hold a JSON object")
    try:
        w, a, b = data["w"], data["a"], data["b"]
    except KeyError as exc:
        raise ParameterError(f"spec file missing field {exc}") from None
    if type(w) is not int or not isinstance(a, list) or not isinstance(b, list):
        raise ParameterError("spec file needs an integer w and lists a and b")
    return stein.BirthDeathSpec(
        w, tuple(_fraction(str(v)) for v in a), tuple(_fraction(str(v)) for v in b)
    )


def _cmd_verify_inverse(args):
    if args.spec == "binomial":
        bd = stein.binomial_pair_spec(args.w)
    elif args.spec == "hypergeometric":
        if args.n is None:
            raise ParameterError("hypergeometric spec needs --n")
        bd = stein.hypergeometric_pair_spec(args.n, args.w)
    else:
        if args.file is None:
            raise ParameterError("--spec file needs --file PATH")
        bd = _load_birth_death(args.file)
        if bd.w != args.w:
            raise ParameterError(f"spec file has w={bd.w}, flag says {args.w}")
    sol = stein.stein_invert(bd, args.t)
    print(
        json.dumps(
            {
                "w": args.w,
                "t": args.t,
                "max_delta": _fmt_fraction(sol.max_delta()),
                "l1_delta": _fmt_fraction(sol.l1_delta()),
                "bound": _fmt_fraction(min(1 / bd.a[args.t], 1 / bd.b[args.t])),
                "inverse_residual": _fmt_fraction(stein.stein_apply_residual(bd, sol)),
            }
        )
    )
    return 0


def _cmd_verify_identity(args):
    n = args.n if args.n is not None else 2 * args.w
    band = moments.SymmetricBand(args.band, args.w % 2)
    scen = moments.OverlapScenario(
        stein.SCENARIO_CASES[args.case], n, args.w, _fraction(args.beta), band
    )
    rep = stein.identity_report(args.case, scen)
    print(
        json.dumps(
            {
                "case": args.case,
                "w": args.w,
                "beta": args.beta,
                "band": args.band,
                "lhs": _fmt_fraction(rep.lhs),
                "rhs": _fmt_fraction(rep.rhs),
                "residual": _fmt_fraction(rep.residual),
                "band_term": _fmt_fraction(rep.band_term),
                "corrected_residual": _fmt_fraction(rep.corrected_residual),
            }
        )
    )
    return 0


def _cmd_scan_bounds(args):
    ws = _int_list("--w-list", args.w_list)
    beta = _fraction(args.beta)
    scen_case = stein.SCENARIO_CASES[args.case]
    out = []
    for w in ws:
        scen = moments.OverlapScenario(scen_case, args.n_factor * w, w, beta)
        g1 = stein.fit_g1_bound(args.case, scen)
        g2, c2 = stein.fit_g2_bound(args.case, scen)
        out.append(
            {
                "w": w,
                "g1_constant": g1.constant,
                "g1_decay": g1.decay,
                "g2_c2": c2,
                "g2_c1": g2.constant,
                "g2_decay": g2.decay,
            }
        )
    print(json.dumps(out))
    return 0


def _int_list(flag, text):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ParameterError(f"{flag} needs a comma list of integers, got {text!r}") from None


def _cmd_lclt(args):
    points = _int_list("--points", args.points)
    sizes = _int_list("--sizes", args.sizes)
    size_key, *names = locallimits.APPROX_PARAMS[args.kind]
    flags = {"p": args.p, "lam": args.p, "ksucc": args.ksucc, "npop": args.npop}
    missing = [f"--{name}" for name in names if flags[name] is None]
    if missing:
        raise ParameterError(f"--kind {args.kind} needs {' and '.join(missing)}")
    fixed = {
        name: _fraction(flags[name]) if name in ("p", "lam") else flags[name]
        for name in names
    }
    # a kind without a size parameter takes its grid once, whatever --sizes says
    sized = [{size_key: size} for size in sizes] if size_key else [{}]
    grid = [{"point": point, **size, **fixed} for size in sized for point in points]
    scan = locallimits.error_scan(args.kind, grid, size_key=size_key)
    keys = sorted(scan.rows[0].params) if scan.rows else []
    out = ["kind," + ",".join(keys) + ",point,exact,approx,rel_error"]
    for row in scan.rows:
        ptxt = ",".join(str(row.params[k]) for k in keys)
        out.append(
            f"{row.kind},{ptxt},{row.point},{row.exact:.12g},{row.approx:.12g},{row.rel_error:.6g}"
        )
    text = "\n".join(out) + "\n"
    if scan.decay_exponent is not None:
        text += f"# decay_exponent,{scan.decay_exponent:.4f}\n"
    sys.stdout.write(text)
    return 0


def _phase_csv(rows):
    lines = ["n,trials,successes,p_hat,wilson_lo,wilson_hi"]
    for n, trials, wins, phat, lo, hi in rows:
        lines.append(f"{n},{trials},{wins},{phat:.6f},{lo:.6f},{hi:.6f}")
    return "\n".join(lines) + "\n"


def _cmd_phase(args):
    if args.n_stride == 0:
        raise ParameterError("--n-stride must not be 0")
    step = 1 if args.n_stride > 0 else -1  # --n-stop is inclusive either way
    n_values = tuple(range(args.n_start, args.n_stop + step, args.n_stride))
    cfg = PhaseScanConfig(
        kind=args.ensemble,
        m=args.m,
        param=_fraction(args.p),
        r=args.r,
        n_values=n_values,
        trials=args.trials,
        parity=args.parity,
        threads=args.threads,
        seed=args.seed,
    )
    rows = run_phase_scan(cfg)
    text = _phase_csv(rows)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


# one per process: no handler or default reads call-time state
@functools.cache
def _build_parser():
    top = argparse.ArgumentParser(prog="randisc", description=__doc__)
    sub = top.add_subparsers(dest="cmd")

    g = sub.add_parser("gen", help="sample a matrix and write the text format")
    g.add_argument("--ensemble", choices=("bernoulli", "poisson"), required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", required=True, help="p or rate; rational like 1/3 or decimal")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--parity", choices=ensembles.PARITIES, default="none")
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gen)

    d = sub.add_parser("disc", help="exact discrepancy / feasibility of a matrix file")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--method", choices=("brute", "mitm"), default="brute")
    d.add_argument("--balanced", action="store_true")
    d.add_argument("--r", type=int)
    d.set_defaults(fn=_cmd_disc)

    z = sub.add_parser("zcount", help="count balanced solutions at radius r")
    z.add_argument("--in", dest="infile", required=True)
    z.add_argument("--r", type=int, required=True)
    z.set_defaults(fn=_cmd_zcount)

    def add_moment_flags(p):
        p.add_argument("--case", choices=("dense", "bernoulli-fixed", "poisson-fixed"), required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--p")
        p.add_argument("--w", type=int)
        p.add_argument("--band", type=int, default=0)

    mo = sub.add_parser("moments", help="psi/phi grid, first moment, overlap ratio")
    add_moment_flags(mo)
    mo.add_argument("--check", action="store_true", help="evaluate the smm condition flags")
    mo.set_defaults(fn=_cmd_moments)

    ra = sub.add_parser("ratio", help="second-moment ratio with overlap profile")
    add_moment_flags(ra)
    ra.set_defaults(fn=_cmd_ratio)

    st = sub.add_parser("stein", help="stein-inverse and pair-identity verification")
    stsub = st.add_subparsers(required=True)
    vi = stsub.add_parser("verify-inverse")
    vi.add_argument("--w", type=int, required=True)
    vi.add_argument("--t", type=int, required=True)
    vi.add_argument("--spec", choices=("binomial", "hypergeometric", "file"), default="binomial")
    vi.add_argument("--n", type=int)
    vi.add_argument("--file", help="JSON birth-death spec for --spec file")
    vi.set_defaults(fn=_cmd_verify_inverse)
    vd = stsub.add_parser("verify-identity")
    vd.add_argument("--case", choices=("poisson", "bernoulli"), required=True)
    vd.add_argument("--w", type=int, required=True)
    vd.add_argument("--n", type=int)
    vd.add_argument("--beta", required=True)
    vd.add_argument("--band", type=int, default=0)
    vd.set_defaults(fn=_cmd_verify_identity)
    sc = stsub.add_parser("scan-bounds")
    sc.add_argument("--case", choices=("poisson", "bernoulli"), required=True)
    sc.add_argument("--w-list", required=True)
    sc.add_argument("--beta", default="5/8")
    sc.add_argument("--n-factor", type=int, default=4)
    sc.set_defaults(fn=_cmd_scan_bounds)

    lc = sub.add_parser("lclt", help="error scans for the local-limit formulas")
    lc.add_argument("--kind", choices=locallimits.APPROX_KINDS, required=True)
    lc.add_argument("--sizes", required=True, help="comma list, e.g. 100,200,400")
    lc.add_argument("--points", default="0")
    lc.add_argument("--p", default="1/2")
    lc.add_argument("--ksucc", type=int)
    lc.add_argument("--npop", type=int)
    lc.set_defaults(fn=_cmd_lclt)

    ph = sub.add_parser("phase", help="Monte Carlo feasibility scan over n")
    ph.add_argument("--ensemble", choices=("bernoulli", "poisson"), default="bernoulli")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--p", required=True)
    ph.add_argument("--r", type=int, required=True)
    ph.add_argument("--n-start", type=int, required=True)
    ph.add_argument("--n-stop", type=int, required=True)
    ph.add_argument("--n-stride", type=int, default=4)
    ph.add_argument("--trials", type=int, required=True)
    ph.add_argument("--parity", choices=ensembles.PARITIES, default="none")
    ph.add_argument("--threads", type=int, default=1)
    ph.add_argument("--seed", type=int, required=True)
    ph.add_argument("--out")
    ph.set_defaults(fn=_cmd_phase)
    return top


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"error: is a directory: {exc.filename}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        extra = f" ({exc.estimate})" if exc.estimate else ""
        print(f"capacity: {exc}{extra}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
