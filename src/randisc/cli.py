"""Command-line front end.

Subcommands: gen, disc, zcount, moments, ratio, stein, lclt, phase.
Exit code 0 is success; a failure exits with the code and stderr label
that its class in randisc.errors carries, an OS error on an input or output
path (stdout included) as a ParameterError.  Probability and rate flags
accept exact rationals ("1/3") or decimal strings ("0.25"); rationals
survive unchanged into the exact moment computations.
"""

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from fractions import Fraction
from math import log10

from . import ensembles, locallimits, moments, solver, stein
from .errors import CapacityError, ParameterError, RandiscError
from .phase import PhaseScanConfig, run_phase_scan


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational {text!r}: {exc}") from None


def _json_value(obj):
    """json.dumps hook: a Fraction as "num/den", a SignVector as its sign
    string, any other dataclass as a dict of its fields in order."""
    if isinstance(obj, Fraction):
        try:
            return f"{obj.numerator}/{obj.denominator}"
        except ValueError:  # an integer past Python's int-to-str digit limit
            digits = int(log10(max(abs(obj.numerator), obj.denominator))) + 1
            limit = sys.get_int_max_str_digits()
            raise CapacityError(
                f"a {digits}-digit integer in the output passes sys.get_int_max_str_digits() = {limit}"
            ) from None
    if isinstance(obj, solver.SignVector):
        return str(obj)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_line(payload):
    """One JSON line; every exact value in it goes through _json_value."""
    return json.dumps(payload, default=_json_value) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its output text, which dispatch writes


def _cmd_gen(args):
    spec = ensembles.EnsembleSpec(args.ensemble, args.m, args.n, _fraction(args.p), args.seed)
    return ensembles.format_matrix(ensembles.sample_at_parity(spec, args.parity))


def _cmd_disc(args):
    A = ensembles.read_matrix(args.infile)
    if args.method == "brute":
        res = solver.disc_exhaustive(A, balanced_only=args.balanced)
    else:
        if args.r is None:
            raise ParameterError("--method mitm needs --r")
        ok, wit = solver.disc_exists_mitm(A, args.r, balanced_only=args.balanced)
        res = {"feasible": ok, "r": args.r, "witness": wit}
    return _json_line(res)


def _cmd_zcount(args):
    A = ensembles.read_matrix(args.infile)
    count = solver.count_solutions(A, args.r)
    return _json_line({"r": args.r, "count": count})


def _moment_kwargs(args):
    case = {
        "dense": "bernoulli_parity_dense",
        "bernoulli-fixed": "bernoulli_fixed_weight",
        "poisson-fixed": "poisson_fixed_weight",
    }[args.case]
    p = None if args.p is None else _fraction(args.p)
    return case, {"n": args.n, "m": args.m, "p": p, "w": args.w, "band_radius": args.band}


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
        "psi": report.psi,
        "phi": [[b.numerator, b.denominator, v] for b, v in sorted(report.phi_at.items())],
        "first_moment": report.first_moment.value,
        "log_first_moment": report.first_moment.log_value,
        "ratio": report.ratio,
    }
    if flags:
        payload["flags"] = {
            "first_moment_holds": flags.first_moment_holds,
            "c_margin": flags.c_margin,
            "weak_bound_holds": flags.weak_bound_holds,
            "C_delta": flags.c_delta,
            "strong_bound_holds": flags.strong_bound_holds,
            "C_strong": flags.c_strong,
            "C_fit": flags.c_fit,
            "central_ratio": flags.central_ratio,
        }
    return _json_line(payload)


def _cmd_ratio(args):
    case, kw = _moment_kwargs(args)
    res = moments.second_moment_ratio(case, **kw)
    return _json_line({"case": case, "ratio": res.ratio, "profile": res.profile})


def _load_birth_death(path):
    """JSON file with fields w, a, b; coefficients as "num/den" strings."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError covers bad UTF-8, bad JSON and an integer literal past
    # sys.get_int_max_str_digits(); RecursionError, arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"spec file cannot be read as JSON: {exc}") from None
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
    return _json_line(
        {
            "w": args.w,
            "t": args.t,
            "max_delta": sol.max_delta(),
            "l1_delta": sol.l1_delta(),
            "bound": min(1 / bd.a[args.t], 1 / bd.b[args.t]),
            "inverse_residual": stein.stein_apply_residual(bd, sol),
        }
    )


def _cmd_verify_identity(args):
    n = args.n if args.n is not None else 2 * args.w
    band = moments.SymmetricBand(args.band, args.w % 2)
    scen = moments.OverlapScenario(
        stein.SCENARIO_CASES[args.case], n, args.w, _fraction(args.beta), band
    )
    rep = stein.identity_report(args.case, scen)
    return _json_line({"case": args.case, "w": args.w, "beta": args.beta, "band": args.band, **asdict(rep)})


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
    return _json_line(out)


def _int_list(flag, text):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ParameterError(f"{flag} needs a comma list of integers, got {text!r}") from None


def _cmd_lclt(args):
    points = _int_list("--points", args.points)
    sizes = _int_list("--sizes", args.sizes)
    size_key, *names = locallimits.APPROX[args.kind].params
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
    return text


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
    return _phase_csv(run_phase_scan(cfg))


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


def _check_out(path):
    """Raise before the work the OSError that opening `path` for writing
    would raise, leaving an existing file as it is and no new one behind."""
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path) from None
    else:
        os.remove(path)


def _report(exc):
    """Write the error's label and message to stderr as one line, and return
    its exit code; a stderr that cannot be written keeps the code."""
    estimate = getattr(exc, "estimate", None)
    with contextlib.suppress(OSError):
        print(f"{exc.label}: {exc}" + (f" ({estimate})" if estimate else ""), file=sys.stderr)
    return exc.exit_code


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    out = None
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return ParameterError.exit_code
        out = getattr(args, "out", None)  # gen and phase take --out
        if out:
            _check_out(out)
        text = args.fn(args)
        if out:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
        return 0
    except SystemExit as exc:  # argparse has written its help, or its usage and error
        return ParameterError.exit_code if exc.code else 0
    except RandiscError as exc:
        return _report(exc)
    except OSError as exc:  # every input and output path; a failed write names no file
        return _report(ParameterError(f"{exc.strerror or exc}: {exc.filename or out or 'stdout'}"))


def main():
    code = dispatch(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # dispatch has reported the failed write; with fd 1 on devnull the
        # interpreter's final flush succeeds and keeps the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
