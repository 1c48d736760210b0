"""Byte-identity pins: outputs recorded before the block-drawing kernel.

Every value here was produced by the pure-Python scalar SplitMix64 draws
(one `next64` per output, the probe drawing all 512 tries before testing
any).  Drawing in numpy blocks and stopping the probe at its first hit must
not change a single byte of what the CLI prints.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from randisc import cli, ensembles, moments, solver


def run(argv, capsys):
    code = cli.dispatch(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


GEN_SHA256 = {
    ("bernoulli", "1/2", "7", "none"): "c38409874d3346b569b16a284d1e71f892cd4566893b5bef8fea6389c1fa912a",
    ("bernoulli", "1/3", "8", "none"): "a6ca1e334120a9deaf5f8e757d5a888a028583cfcc0ce0b276e71c0a0a316c52",
    # rate 5/2: the entry table's total is 116 bits, so draws take two words
    ("poisson", "5/2", "9", "none"): "490c197f8f9f638331ef8dd912b70753bbc18833e12c173af9e87cd30d953d9e",
    ("bernoulli", "1/2", "10", "even"): "99fed685ec71b27c2d8999317eb0ab6d86c29614411130ed6b0030531e9ed9e8",
    ("poisson", "5/2", "11", "even"): "412fb3dbd54d2e012ad5e2273f0206e15a4406212cd3df5301b02e54ad1ea5ff",
}


@pytest.mark.parametrize("key", sorted(GEN_SHA256))
def test_gen_output_pinned(key, capsys):
    ensemble, p, seed, parity = key
    out = run(
        ["gen", "--ensemble", ensemble, "--m", "6", "--n", "32", "--p", p,
         "--seed", seed, "--parity", parity],
        capsys,
    )
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[key]


# Bernoulli(1/2) samples; the probe finds the first two at tries 118 and 133
# (past the first few chunks), and misses the last two, whose witnesses come
# from the full meet-in-the-middle scan.
_PROBE_ROWS = [
    "110000011001101011001001",
    "010110101000000101100100",
    "100111111000111110111001",
    "011100010001011000111110",
    "001111111110110010001100",
    "100001111010110101011011",
]
_SCAN_BALANCED_ROWS = [
    "01011011001010011001",
    "01100101001011001011",
    "01000100001000110100",
    "01111100011100001100",
    "01100101010010100111",
    "00011100010001111010",
]
_SCAN_PLAIN_ROWS = [
    "10100001100110101110",
    "00001100111100100111",
    "11100100010110101000",
    "10100011010000001111",
    "10100000010001001111",
    "10001000100110111101",
]

MITM_WITNESSES = [
    (_PROBE_ROWS, True, "-+---+-+++--+--++-++-++-"),
    (_PROBE_ROWS, False, "-+--++--+-+++++----+-+-+"),
    (_SCAN_BALANCED_ROWS, True, "++++++++-----++-----"),
    (_SCAN_PLAIN_ROWS, False, "++++++-++-+--+-+-+--"),
]


@pytest.mark.parametrize("rows,balanced,witness", MITM_WITNESSES)
def test_disc_mitm_witness_pinned(rows, balanced, witness, tmp_path, capsys):
    path = str(tmp_path / "a.mat")
    ensembles.write_matrix(
        path, ensembles.IntMatrix.from_rows([[int(c) for c in row] for row in rows])
    )
    argv = ["disc", "--in", path, "--method", "mitm", "--r", "1"]
    out = run(argv + (["--balanced"] if balanced else []), capsys)
    assert out == json.dumps({"feasible": True, "r": 1, "witness": witness}) + "\n"


# Full scans past the exhaustive cap, recorded before the two prefix trees
# replaced the scan over left rows.  The n = 32 matrix is trial 3 at n = 32
# in the first round of the phase_edge benchmark's trial set (seed 20240808),
# one the probe misses, so its witness comes from the full scan.
FULL_SCANS = [
    ("32", "8840976512429012943", ["disc", "--method", "mitm", "--balanced", "--r", "1"],
     {"feasible": True, "r": 1, "witness": "+++++++++++---+-+---++--+-------"}),
    ("30", "5", ["zcount", "--r", "1"], {"r": 1, "count": 1901342}),
]


@pytest.mark.parametrize("n,seed,argv,want", FULL_SCANS)
def test_full_scan_output_pinned(n, seed, argv, want, tmp_path, capsys):
    path = str(tmp_path / "a.mat")
    run(["gen", "--ensemble", "bernoulli", "--m", "6", "--n", n, "--p", "1/2",
         "--seed", seed, "--out", path], capsys)
    if argv[0] == "disc":
        A = ensembles.read_matrix(path)
        assert solver._probe(A, 1, True, solver._int64_matrix(A)) is None
    assert run(argv + ["--in", path], capsys) == json.dumps(want) + "\n"


PHASE_CSVS = [
    (
        # the phase_rich benchmark configuration
        ["--m", "4", "--p", "1/2", "--r", "1", "--n-start", "24", "--n-stop", "32",
         "--trials", "4", "--parity", "even", "--seed", "7"],
        "n,trials,successes,p_hat,wilson_lo,wilson_hi\n"
        "24,4,4,1.000000,0.510109,1.000000\n"
        "28,4,4,1.000000,0.510109,1.000000\n"
        "32,4,4,1.000000,0.510109,1.000000\n",
    ),
    (
        ["--m", "6", "--p", "1/2", "--r", "0", "--n-start", "8", "--n-stop", "20",
         "--trials", "12", "--parity", "even", "--seed", "3"],
        "n,trials,successes,p_hat,wilson_lo,wilson_hi\n"
        "8,12,8,0.666667,0.390622,0.861880\n"
        "12,12,10,0.833333,0.551969,0.953035\n"
        "16,12,12,1.000000,0.757506,1.000000\n"
        "20,12,12,1.000000,0.757506,1.000000\n",
    ),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("flags,csv", PHASE_CSVS)
def test_phase_csv_pinned(flags, csv, threads, capsys):
    assert run(["phase"] + flags + ["--threads", threads], capsys) == csv


# Moment outputs recorded before phi was read off the pair label law: the
# triple Fraction loop (Poisson) and the hypergeometric sum (Bernoulli).
MOMENT_FLAGS = {
    "dense": ["--case", "dense", "--p", "1/3"],
    "bernoulli-fixed": ["--case", "bernoulli-fixed", "--w", "4"],
    "poisson-fixed": ["--case", "poisson-fixed", "--w", "4", "--band", "2"],
}
MOMENT_SHA256 = {
    ("dense", "ratio"): "7120af4c48c832250960bd14e8489203a42c3a55da012321fd51e0861b8eed22",
    ("dense", "moments"): "8564ef38ce971af5c29e7ddb4c18b8bd88f0fd6974e205f798b703b3f069830a",
    ("bernoulli-fixed", "ratio"): "1345ca94c9593f6cbf72f4b020ec31c9d859a5a0ce34f1c74225861e8be21e89",
    ("bernoulli-fixed", "moments"): "f7c5ef2551c1b097fa924e8665e8f798824a71f0897f50057d52c6b6b3bcef45",
    ("poisson-fixed", "ratio"): "c7250308403302f332fcd0e9c7db8d8d15e75d481d0f20ff5903ffb26143ea14",
    ("poisson-fixed", "moments"): "dc74655262a313c7c19ab3d20c00b28633eafc87eb718a7b290875ae6d405956",
}


@pytest.mark.parametrize("key", sorted(MOMENT_SHA256))
def test_moment_output_pinned(key, capsys):
    case, cmd = key
    check = ["--check"] if cmd == "moments" else []
    out = run([cmd, *MOMENT_FLAGS[case], "--m", "2", "--n", "32", *check], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == MOMENT_SHA256[key]


def test_log_mode_moment_report_pinned():
    # n = 128 is past the exact cap; the phi grid stays exact, the ratio and
    # the first moment are floats
    rep = moments.moment_report(
        "poisson_fixed_weight", n=128, m=4, w=4, band_radius=2, exact=False
    )
    text = json.dumps({
        "psi": str(rep.psi),
        "phi": [[str(b), str(v)] for b, v in sorted(rep.phi_at.items())],
        "log_first_moment": rep.first_moment.log_value,
        "ratio": rep.ratio,
    })
    assert rep.psi == Fraction(7, 8)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c900031e03256568a0185be0079eac025c260db68e1c15d12efb0f58d490f1b4"
    )


# lclt and stein scan-bounds outputs recorded before the CLI read each kind's
# parameters from locallimits.APPROX_PARAMS and left the beta = 1/2 reference
# fit to stein.fit_g2_bound; poisson_tail re-recorded once its grid stopped
# repeating per --sizes entry (the old output with the repeated rows dropped).
LCLT_FLAGS = {
    "demoivre": ["--sizes", "16,32,64", "--points", "8,10", "--p", "1/2"],
    "stirling_binom": ["--sizes", "16,32,64", "--points", "4,8"],
    "cramer_tail": ["--sizes", "16,32,64", "--points", "4,8", "--p", "1/3"],
    "hyp_tail": ["--sizes", "8,16", "--points", "2,4", "--ksucc", "20", "--npop", "64"],
    # no size parameter: --sizes is parsed but the grid is taken once
    "poisson_tail": ["--sizes", "1,2", "--points", "0,3", "--p", "5/2"],
    "edgeworth_lazy": ["--sizes", "4,8,16", "--points", "0,1", "--p", "1/3"],
}
LCLT_SHA256 = {
    "demoivre": "166240cf7fc431e4f602791530318771e26fd7b4e0b3ae6be0d232ff1ad67dd2",
    "stirling_binom": "27cec4afd42fe5e1bf41e7ab1eaf1be2846a381f8e3b373a42a37798c908cfef",
    "cramer_tail": "7a2b70d2d84624b940af6689f4384bdca73b95060de6a5ee33fbcd16b2477ea8",
    "hyp_tail": "0dcf443bb3eb6b9bfdfbd12aaec14ef80938952f7a23ec3a6b901fed2ef3ed0b",
    "poisson_tail": "4c3cb2fea8c695b269da20e2a7b60cc26f538b3deee5ce3466ad9d74a0f76ca9",
    "edgeworth_lazy": "f4f9ec3ff71a84325382a7f69bb8eaec8d525fa4893654cfe62578e9b52875ba",
}


@pytest.mark.parametrize("kind", sorted(LCLT_SHA256))
def test_lclt_output_pinned(kind, capsys):
    out = run(["lclt", "--kind", kind, *LCLT_FLAGS[kind]], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == LCLT_SHA256[kind]


SCAN_BOUNDS_SHA256 = {
    "bernoulli": "6eb6d471703dfadbb14a428447e2c20726356c26c1f1368f9a80006e763319b4",
    "poisson": "82c2baef69368e9a7250d182f0d6bdd7bd8f3ad43e9d87a357d1cdc255ecf005",
}


@pytest.mark.parametrize("case", sorted(SCAN_BOUNDS_SHA256))
def test_scan_bounds_output_pinned(case, capsys):
    out = run(["stein", "scan-bounds", "--case", case, "--w-list", "8,16,32"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_BOUNDS_SHA256[case]


# stein verify-inverse and verify-identity outputs recorded before the pair
# identity and the band inverse moved to integer rows over one denominator
SPEC_FILE = '{"w": 5, "a": ["5", "7/2", "3", "2", "1/3", "0"], "b": ["0", "1/2", "1", "5/3", "4", "9"]}'
STEIN_PINS = {
    "inverse-binomial": (
        ["verify-inverse", "--w", "12", "--t", "6"],
        '{"w": 12, "t": 6, "max_delta": "793/3072", "l1_delta": "793/1536", "bound": "1/3", '
        '"inverse_residual": "0/1"}',
    ),
    "inverse-hypergeometric": (
        ["verify-inverse", "--w", "6", "--n", "16", "--t", "3", "--spec", "hypergeometric"],
        '{"w": 6, "t": 3, "max_delta": "29/715", "l1_delta": "58/715", "bound": "1/15", '
        '"inverse_residual": "0/1"}',
    ),
    "inverse-file": (
        ["verify-inverse", "--w", "5", "--t", "2", "--spec", "file", "--file", "SPEC"],
        '{"w": 5, "t": 2, "max_delta": "386/1275", "l1_delta": "772/1275", "bound": "1/3", '
        '"inverse_residual": "0/1"}',
    ),
    "identity-poisson": (
        ["verify-identity", "--case", "poisson", "--w", "4", "--beta", "2/3", "--band", "2"],
        '{"case": "poisson", "w": 4, "beta": "2/3", "band": 2, "lhs": "-55/4536", "rhs": "-109/4536", '
        '"residual": "1/84", "band_term": "1/84", "corrected_residual": "0/1"}',
    ),
    "identity-bernoulli": (
        ["verify-identity", "--case", "bernoulli", "--w", "6", "--n", "12", "--beta", "2/3"],
        '{"case": "bernoulli", "w": 6, "beta": "2/3", "band": 0, "lhs": "-41/5775", "rhs": "-41/5775", '
        '"residual": "0/1", "band_term": "0/1", "corrected_residual": "0/1"}',
    ),
}


@pytest.mark.parametrize("key", sorted(STEIN_PINS))
def test_stein_verify_output_pinned(key, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SPEC_FILE)
    argv, want = STEIN_PINS[key]
    argv = [str(spec) if v == "SPEC" else v for v in argv]
    assert run(["stein", *argv], capsys) == want + "\n"
