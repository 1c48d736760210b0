import json
import random
import re
import sys
import time
from fractions import Fraction as F

import pytest

from randisc import cli, ensembles, locallimits, moments, phase, solver
from randisc.errors import ParameterError


def run(argv, capsys):
    code = cli.dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_disc_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "a.mat")
    code, _, _ = run(
        ["gen", "--ensemble", "bernoulli", "--m", "2", "--n", "4", "--p", "1/2",
         "--seed", "1", "--out", path],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["disc", "--in", path, "--method", "brute"], capsys)
    assert code == 0
    payload = json.loads(out)
    spec = ensembles.EnsembleSpec("bernoulli", 2, 4, F(1, 2), 1)
    want = solver.disc_exhaustive(ensembles.sample(spec))
    assert payload["value"] == want.value
    assert payload["witness"] == str(want.witness)


def test_disc_missing_file_exit_2(capsys):
    code, _, err = run(["disc", "--in", "missing.mat"], capsys)
    assert code == 2
    assert "missing.mat" in err


def test_unknown_subcommand_exit_2(capsys):
    assert cli.dispatch(["frobnicate"]) == 2


def test_stein_without_subcommand_prints_usage_exit_2(capsys):
    code, out, err = run(["stein"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: randisc stein")
    assert "scan-bounds" in err


def test_zcount(tmp_path, capsys):
    path = str(tmp_path / "z.mat")
    ensembles.write_matrix(path, ensembles.IntMatrix.from_rows([[0, 0, 0, 0]]))
    code, out, _ = run(["zcount", "--in", path, "--r", "0"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 6


@pytest.mark.parametrize("n", [10, 28])
def test_zcount_negative_radius_exit_2(n, tmp_path, capsys):
    # n = 10 counts by enumeration and n = 28 by meet in the middle; both
    # refuse r < 0 (the enumeration branch used to print a count of 0)
    path = str(tmp_path / "z.mat")
    ensembles.write_matrix(path, ensembles.IntMatrix.from_rows([[1] * n]))
    code, out, err = run(["zcount", "--in", path, "--r", "-1"], capsys)
    assert code == 2 and out == ""
    assert "radius" in err


def test_moments_worked_example(capsys):
    code, out, _ = run(
        ["moments", "--case", "dense", "--m", "1", "--n", "4", "--p", "1/2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == "28/27"
    assert payload["psi"] == "3/4"


def test_moments_rational_flag_preserved(capsys):
    # "1/3" must reach the exact computation unchanged
    code, out, _ = run(
        ["moments", "--case", "dense", "--m", "1", "--n", "4", "--p", "1/3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    from randisc import moments as mo

    want = mo.psi_dense(4, F(1, 3))
    assert payload["psi"] == f"{want.numerator}/{want.denominator}"


def test_ratio_profile_output(capsys):
    code, out, _ = run(
        ["ratio", "--case", "poisson-fixed", "--m", "1", "--n", "4", "--w", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["profile"]) == 3
    assert payload["profile"][0]["beta"] == "0/1"


def test_capacity_exit_3(tmp_path, capsys):
    path = str(tmp_path / "big.mat")
    ensembles.write_matrix(path, ensembles.IntMatrix.from_rows([[0] * 28]))
    code, _, err = run(["disc", "--in", path, "--method", "brute"], capsys)
    assert code == 3
    assert "cap" in err


def test_mitm_past_row_cap_names_n_and_m(tmp_path, capsys):
    # an 11-row, 8-column file (header "11 8"): the refusal names n and m
    path = str(tmp_path / "tall.mat")
    ensembles.write_matrix(path, ensembles.IntMatrix.from_rows([[1] * 8] * 11))
    code, out, err = run(["disc", "--in", path, "--method", "mitm", "--r", "1"], capsys)
    assert code == 3 and out == ""
    assert err == (
        "capacity: mitm refused at n=8, m=11: it takes m<=10 and 256 MiB (~33 MB peak memory)\n"
    )


def test_phase_grid_past_mitm_cap_exits_3_before_any_trial(monkeypatch, capsys):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(phase, "_phase_trial", no_trial)
    # n = 48 is the first n of the grid whose estimate passes the budget
    argv = ["phase", "--m", "2", "--p", "1/2", "--r", "1", "--n-start", "4",
            "--n-stop", "48", "--trials", "1", "--seed", "0"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("capacity:")


def test_lclt_past_exact_cap_exits_3(capsys):
    # sizes past locallimits.EXACT_SIZE_CAP are refused, not approximated
    argv = ["lclt", "--kind", "demoivre", "--sizes", "5000", "--points", "2500", "--p", "1/2"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("capacity:")


def test_gen_poisson_rate_past_exact_cap_exits_3(capsys):
    # the entry table's Poisson cut passes locallimits.EXACT_SIZE_CAP; this used to hang
    argv = ["gen", "--ensemble", "poisson", "--m", "1", "--n", "2", "--p", "1e400", "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("capacity:")


@pytest.mark.parametrize(
    "grid",
    [["--n-start", "40", "--n-stop", "8"], ["--n-start", "8", "--n-stop", "40", "--n-stride", "-4"]],
)
def test_phase_empty_grid_exits_2(grid, capsys):
    argv = ["phase", "--m", "4", "--p", "1/2", "--r", "1", *grid, "--trials", "3", "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "grid, want",
    [(["8", "16", "4"], [8, 12, 16]), (["16", "8", "-4"], [16, 12, 8])],
)
def test_phase_n_stop_inclusive_either_direction(grid, want, capsys):
    start, stop, stride = grid
    argv = ["phase", "--m", "2", "--p", "1/2", "--r", "1", "--n-start", start, "--n-stop", stop,
            "--n-stride", stride, "--trials", "2", "--seed", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    _, *rows = out.strip().split("\n")
    assert [int(row.split(",")[0]) for row in rows] == want


def test_cached_parser_holds_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    gen = ["gen", "--ensemble", "bernoulli", "--m", "3", "--n", "6", "--p", "1/2", "--seed", "4",
           "--parity", "even"]
    code, before, _ = run(gen, capsys)
    assert code == 0 and before
    code, out, err = run(["gen", "--ensemble", "bernoulli", "--m", "x"], capsys)
    assert code == 2 and out == ""
    assert "usage: randisc gen" in err and "invalid int value" in err
    code, out, err = run(["--help"], capsys)
    assert code == 0 and out.startswith("usage: randisc") and err == ""
    assert run(gen, capsys) == (0, before, "")


def test_parameter_error_exit_2(capsys):
    code, _, err = run(
        ["gen", "--ensemble", "bernoulli", "--m", "2", "--n", "5", "--p", "1/2",
         "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "even" in err


def test_stein_verify_inverse(capsys):
    code, out, _ = run(["stein", "verify-inverse", "--w", "6", "--t", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["inverse_residual"] == "0/1"


def test_stein_verify_identity(capsys):
    code, out, _ = run(
        ["stein", "verify-identity", "--case", "bernoulli", "--w", "6", "--n", "12",
         "--beta", "2/3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["residual"] == "0/1"


def test_stein_verify_identity_poisson_band(capsys):
    code, out, _ = run(
        ["stein", "verify-identity", "--case", "poisson", "--w", "4", "--beta", "2/3",
         "--band", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == "1/84"
    assert payload["band_term"] == "1/84"
    assert payload["corrected_residual"] == "0/1"


def test_lclt_csv_shape(capsys):
    code, out, _ = run(
        ["lclt", "--kind", "edgeworth_lazy", "--sizes", "50,100", "--points", "0",
         "--p", "1/10"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kind,p,r,point,exact,approx,rel_error"
    assert len([ln for ln in lines if ln.startswith("edgeworth")]) == 2


def test_phase_scan_csv_and_thread_independence(tmp_path):
    base = ["phase", "--m", "2", "--p", "1/2", "--r", "1", "--n-start", "8",
            "--n-stop", "12", "--n-stride", "4", "--trials", "40", "--seed", "99"]
    p1 = str(tmp_path / "t1.csv")
    p8 = str(tmp_path / "t8.csv")
    assert cli.dispatch(base + ["--threads", "1", "--out", p1]) == 0
    assert cli.dispatch(base + ["--threads", "8", "--out", p8]) == 0
    b1 = open(p1, "rb").read()
    b8 = open(p8, "rb").read()
    assert b1 == b8
    header, *rows = b1.decode().strip().split("\n")
    assert header == "n,trials,successes,p_hat,wilson_lo,wilson_hi"
    assert len(rows) == 2
    assert all(ln.endswith(ln.split(",")[-1]) and "\r" not in ln for ln in rows)


def test_wilson_interval_basic():
    lo, hi = phase.wilson_interval(9, 10)
    assert 0 < lo < 0.9 < hi <= 1
    lo0, hi0 = phase.wilson_interval(0, 10)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 < 0.35


def test_fraction_parser_rejects_garbage():
    with pytest.raises(ParameterError):
        cli._fraction("one half")


def test_stein_verify_inverse_from_file(tmp_path, capsys):
    spec = {
        "w": 3,
        "a": ["3/2", "1", "1/2", "0"],
        "b": ["0", "1/2", "1", "3/2"],
    }
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(
        ["stein", "verify-inverse", "--w", "3", "--t", "2", "--spec", "file",
         "--file", str(path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["inverse_residual"] == "0/1"


def test_gen_parity_even(tmp_path, capsys):
    path = str(tmp_path / "even.mat")
    code, _, _ = run(
        ["gen", "--ensemble", "poisson", "--m", "4", "--n", "6", "--p", "3/2",
         "--seed", "9", "--parity", "even", "--out", path],
        capsys,
    )
    assert code == 0
    A = ensembles.read_matrix(path)
    assert all(s % 2 == 0 for s in A.row_sums())


def test_disc_mitm_method(tmp_path, capsys):
    path = str(tmp_path / "m.mat")
    ensembles.write_matrix(path, ensembles.IntMatrix.from_rows([[1, 1, 1, 1]]))
    code, out, _ = run(
        ["disc", "--in", path, "--method", "mitm", "--balanced", "--r", "0"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["witness"].count("+") == 2
    code, _, err = run(["disc", "--in", path, "--method", "mitm"], capsys)
    assert code == 2 and "--r" in err


def test_phase_scan_parity_even_mode(tmp_path):
    args = ["phase", "--m", "2", "--p", "1/3", "--r", "0", "--n-start", "8",
            "--n-stop", "8", "--n-stride", "4", "--trials", "25", "--seed", "5",
            "--parity", "even", "--threads", "2",
            "--out", str(tmp_path / "pe.csv")]
    assert cli.dispatch(args) == 0
    rows = (tmp_path / "pe.csv").read_text().strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("8,25,")


def test_lclt_decay_comment(capsys):
    code, out, _ = run(
        ["lclt", "--kind", "edgeworth_lazy", "--sizes", "50,100,200", "--points",
         "0", "--p", "3/10"],
        capsys,
    )
    assert code == 0
    assert "# decay_exponent," in out


def test_disc_int64_overflow_exit_3(tmp_path, capsys):
    # the int64 sums used to wrap and print a bogus witness with exit 0
    path = str(tmp_path / "big.mat")
    B = 2**62
    ensembles.write_matrix(
        path, ensembles.IntMatrix.from_rows([[B, B, B, B, 0], [1, 1, 1, 1, 4]])
    )
    code, out, err = run(["disc", "--in", path, "--method", "mitm", "--r", "0"], capsys)
    assert code == 3 and out == ""
    assert "overflow" in err


def test_disc_non_integer_token_exit_2(tmp_path, capsys):
    path = tmp_path / "tok.mat"
    path.write_text("1 4\n1 x 1 1\n")
    code, _, err = run(["disc", "--in", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_disc_directory_exit_2(tmp_path, capsys):
    code, _, err = run(["disc", "--in", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and str(tmp_path) in err


def test_phase_pool_clamped_to_job_count(monkeypatch):
    asked = []

    class Recording(phase.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            asked.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(phase, "ThreadPoolExecutor", Recording)
    cfg = phase.PhaseScanConfig(
        kind="bernoulli", m=2, param=F(1, 2), r=1, n_values=(4, 8), trials=3,
        parity="none", threads=64, seed=5,
    )
    rows = phase.run_phase_scan(cfg)
    assert asked == [6]
    assert rows == phase.run_phase_scan(phase.PhaseScanConfig(**{**cfg.__dict__, "threads": 1}))


# files past a solver's limits: 1x141 and 1x60 rows of ones (odd n, so the
# probe misses at r = 0) and 200 random 0/1 rows of 18 columns, which the
# exhaustive blocks answered at a peak of about 330 MiB
REFUSALS = [
    ("1x141", ["disc", "--method", "mitm", "--r", "0"], "mitm refused at n=141, m=1: it takes "
     "m<=10 and 256 MiB (~42501298345826840 MB peak memory)"),
    ("1x141", ["disc", "--method", "brute"], "exhaustive search refused at n=141, m=1: it takes "
     "n<=26 and 256 MiB (~35 MB peak memory)"),
    ("1x60", ["disc", "--method", "mitm", "--balanced", "--r", "0"], "mitm refused at n=60, m=1: "
     "it takes m<=10 and 256 MiB (~19360 MB peak memory)"),
    ("1x60", ["disc", "--method", "brute"], "exhaustive search refused at n=60, m=1: it takes "
     "n<=26 and 256 MiB (~35 MB peak memory)"),
    ("200x18", ["disc", "--method", "brute"], "exhaustive search refused at n=18, m=200: it "
     "takes n<=26 and 256 MiB (~361 MB peak memory)"),
    ("200x18", ["zcount", "--r", "1"], "exhaustive search refused at n=18, m=200: it takes "
     "n<=26 and 256 MiB (~361 MB peak memory)"),
]
REFUSAL_IDS = [f"{s}-{a[2] if a[0] == 'disc' else a[0]}" for s, a, _ in REFUSALS]


@pytest.mark.parametrize("shape,argv,message", REFUSALS, ids=REFUSAL_IDS)
def test_solver_refusals_exit_3_with_their_estimate(shape, argv, message, tmp_path, capsys):
    m, n = map(int, shape.split("x"))
    rng = random.Random(0)
    rows = [[1] * n] if m == 1 else [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    path = str(tmp_path / "a.mat")
    ensembles.write_matrix(path, ensembles.IntMatrix.from_rows(rows))
    code, out, err = run([argv[0], "--in", path, *argv[1:]], capsys)
    assert (code, out, err) == (3, "", f"capacity: {message}\n")
    # no flag gets past the limits: --cap, which once did, is gone
    code, out, _ = run([argv[0], "--in", path, *argv[1:], "--cap", "200"], capsys)
    assert (code, out) == (2, "")


def test_ratio_refused_by_its_cost_estimate_before_any_row(monkeypatch, capsys):
    def no_row(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(moments, "_row_psi_phi_functions", no_row)
    start = time.perf_counter()
    argv = ["ratio", "--case", "dense", "--m", "2", "--n", "1000000", "--p", "1/2"]
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("capacity: exact overlap sum at n=1000000, m=2 estimated past 10 s")
    assert err.endswith(" s on a 2-core box)\n")


def test_ratio_past_the_old_round_caps_is_exact(capsys):
    # n = 128, m = 16 was refused by the old n <= 64, m <= 8 caps
    argv = ["ratio", "--case", "dense", "--m", "16", "--n", "128", "--p", "1/2"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    ratio = F(json.loads(out)["ratio"])
    log_ratio = moments.second_moment_ratio(
        "bernoulli_parity_dense", n=128, m=16, p=F(1, 2), exact=False
    ).ratio
    assert ratio > 1 and abs(float(ratio) - log_ratio) <= 1e-9 * float(ratio)


def test_output_past_the_int_digit_limit_exits_3(capsys):
    # str(int) refuses past sys.get_int_max_str_digits(); this escaped as ValueError
    argv = ["ratio", "--case", "dense", "--m", "8", "--n", "64", "--p", "1/99999999999999999999"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    limit = sys.get_int_max_str_digits()
    assert re.fullmatch(
        rf"capacity: a (\d+)-digit integer in the output passes "
        rf"sys.get_int_max_str_digits\(\) = {limit}\n", err
    )
    assert int(re.match(r"capacity: a (\d+)", err).group(1)) > limit


def test_lclt_stirling_binom_past_float_range_exits_3(capsys):
    # 2**n overflowed a double at n = 1024 and escaped as OverflowError
    n = locallimits.STIRLING_SIZE_CAP
    argv = ["lclt", "--kind", "stirling_binom", "--points", "511", "--sizes"]
    code, out, err = run([*argv, str(n + 1)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("capacity:") and "Traceback" not in err
    code, out, _ = run([*argv, str(n)], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith(f"stirling_binom,{n},511,")


def test_disc_non_utf8_file_exit_2(tmp_path, capsys):
    # decoding used to escape read_matrix as UnicodeDecodeError
    path = tmp_path / "bin.mat"
    path.write_bytes(b"1 2\n\xff\xfe 1\n")
    code, out, err = run(["disc", "--in", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "hyp_tail", "--sizes", "10"],
        ["--kind", "hyp_tail", "--sizes", "10", "--ksucc", "3"],
        ["--kind", "demoivre", "--sizes", "x"],
        ["--kind", "demoivre", "--sizes", "10,"],
        ["--kind", "demoivre", "--sizes", "10", "--points", "1.5"],
        ["--kind", "demoivre", "--sizes", "0"],
        ["--kind", "stirling_binom", "--sizes", "0"],
        ["--kind", "cramer_tail", "--sizes", "0"],
    ],
)
def test_lclt_bad_arguments_exit_2(args, capsys):
    code, out, err = run(["lclt", *args], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["phase", "--m", "2", "--p", "1/2", "--r", "1", "--n-start", "4", "--n-stop", "8",
         "--n-stride", "0", "--trials", "1", "--seed", "0"],
        ["ratio", "--case", "dense", "--m", "1", "--n", "0", "--p", "1/2"],
        ["ratio", "--case", "dense", "--m", "0", "--n", "4", "--p", "1/2"],
        ["moments", "--case", "poisson-fixed", "--m", "1", "--n", "-2", "--w", "0"],
        ["ratio", "--case", "poisson-fixed", "--m", "1", "--n", "2", "--w", "0", "--band", "2"],
        ["lclt", "--kind", "stirling_binom", "--sizes", "-2"],
        ["stein", "verify-identity", "--case", "poisson", "--w", "0", "--beta", "3/4", "--band", "3"],
        ["stein", "scan-bounds", "--case", "poisson", "--w-list", "2,,3"],
    ],
)
def test_argv_that_raised_exits_2(argv, capsys):
    # each of these escaped as ValueError or ZeroDivisionError with a traceback
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [b"{", b"\xff", b"[1, 2]", b'{"w": "2", "a": [], "b": []}', b'{"w": 2, "a": 5, "b": null}'],
)
def test_stein_spec_file_not_a_spec_exits_2(content, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    argv = ["stein", "verify-inverse", "--w", "2", "--t", "1", "--spec", "file", "--file", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:")
