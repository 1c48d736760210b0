"""Output pins: each CLI command here prints the bytes it printed when it was
recorded, and exits with the recorded code.

A row gives the argv, the expected stdout and the exit code; every row must
also finish within LIMIT_S seconds, the bound that guards the slow paths
earlier changes made fast (the w17 scan once took 4-21 s).  The stdout is
None (not checked), a sha256 of the whole stdout, or the text itself with its
final newline dropped.  An argv token that names a file in INPUTS is built in
the working directory before the row runs, once per run of this module; a recipe is
a `gen` argv, the file's text, or (seed, m, n, hi) for an m x n matrix of
`random.Random(seed).randint(0, hi)` entries drawn row by row.

Run against the source tree or an installed package; this file needs only
pytest and randisc.
"""

import hashlib
import random
import re
import time
from collections import namedtuple
from pathlib import Path

import pytest

from randisc import cli


def _rows(*rows):
    return f"{len(rows)} {len(rows[0].split())}\n" + "".join(" ".join(r.split()) + "\n" for r in rows)


def _bits(*rows):
    return _rows(*(" ".join(r) for r in rows))


INPUTS = {
    "m.txt": "gen --ensemble bernoulli --m 4 --n 32 --p 1/2 --parity even --seed 3",
    "z.txt": "gen --ensemble bernoulli --m 6 --n 30 --p 1/2 --seed 5",
    "j22.txt": "gen --ensemble bernoulli --m 6 --n 22 --p 1/2 --seed 1",
    "b12.txt": "gen --ensemble bernoulli --m 12 --n 18 --p 1/2 --seed 2",
    "t20.txt": "gen --ensemble bernoulli --m 20 --n 20 --p 1/2 --seed 5",
    "b28.txt": "gen --ensemble bernoulli --m 12 --n 28 --p 1/2 --seed 3",
    "p10.txt": "gen --ensemble poisson --m 10 --n 28 --p 3 --seed 4",
    "p20.txt": "gen --ensemble poisson --m 10 --n 22 --p 20 --seed 1",
    "b18.txt": "gen --ensemble bernoulli --m 3 --n 18 --p 1/2 --seed 2",
    # trial 3 at n = 32 in the first round of the phase_edge benchmark's trial
    # set (seed 20240808): the probe misses it, so its witness is the full scan's
    "f32.txt": "gen --ensemble bernoulli --m 6 --n 32 --p 1/2 --seed 8840976512429012943",
    "b17.txt": _rows("1 1 0 1 0 0 1 1 1 0 1 0 1 1 0 0 1", "0 1 1 0 1 1 0 0 1 1 0 1 0 1 1 0 1"),
    "w141.txt": _rows("1 " * 141),
    "w17.txt": (17, 10, 12, 100),
    "t20k.txt": (8, 20000, 8, 1),
    # Bernoulli(1/2) samples: the probe finds the first two at tries 118 and
    # 133, counted from 0 (past several read-ahead refills), and misses the
    # last two, whose witnesses come from the full scan
    "probe.txt": _bits("110000011001101011001001", "010110101000000101100100", "100111111000111110111001",
                       "011100010001011000111110", "001111111110110010001100", "100001111010110101011011"),
    "scanb.txt": _bits("01011011001010011001", "01100101001011001011", "01000100001000110100",
                       "01111100011100001100", "01100101010010100111", "00011100010001111010"),
    "scanp.txt": _bits("10100001100110101110", "00001100111100100111", "11100100010110101000",
                       "10100011010000001111", "10100000010001001111", "10001000100110111101"),
    "b2.txt": _rows("3 1"),
    "b4.txt": _rows("3 1 1 1"),
    # the first row is 4 on 19 columns and 1 on the last, so |u . row| >= 3
    # for every u: the optimum lies above the parity floor, and the
    # exhaustive search stops only after every block
    "floor20.txt": _rows("4 " * 19 + "1", "0 0 1 1 0 0 1 1 0 0 1 1 1 0 0 0 1 0 0 0"),
    "spec.json": '{"w": 5, "a": ["5", "7/2", "3", "2", "1/3", "0"], "b": ["0", "1/2", "1", "5/3", "4", "9"]}',
    # arrays nested 1,000 deep, a RecursionError in Python 3.11's json module
    # (3.12 reads the list, which is refused), and an integer past Python's
    # 4,300-digit int-to-str limit, a ValueError
    "deep.json": "[" * 1000 + "]" * 1000,
    "bigint.json": '{"w": ' + "1" * 4301 + ', "a": [], "b": []}',
}

Pin = namedtuple("Pin", "argv out code", defaults=(0,))
LIMIT_S = 60
_CSV = "n,trials,successes,p_hat,wilson_lo,wilson_hi\n"
PINS = [
    # sampling; rate 5/2 entry tables total 116 bits, so draws take two words
    Pin("gen --ensemble bernoulli --m 6 --n 32 --p 1/2 --seed 7 --parity none",
        "c38409874d3346b569b16a284d1e71f892cd4566893b5bef8fea6389c1fa912a"),
    Pin("gen --ensemble bernoulli --m 6 --n 32 --p 1/3 --seed 8 --parity none",
        "a6ca1e334120a9deaf5f8e757d5a888a028583cfcc0ce0b276e71c0a0a316c52"),
    Pin("gen --ensemble poisson --m 6 --n 32 --p 5/2 --seed 9 --parity none",
        "490c197f8f9f638331ef8dd912b70753bbc18833e12c173af9e87cd30d953d9e"),
    Pin("gen --ensemble bernoulli --m 6 --n 32 --p 1/2 --seed 10 --parity even",
        "99fed685ec71b27c2d8999317eb0ab6d86c29614411130ed6b0030531e9ed9e8"),
    Pin("gen --ensemble poisson --m 6 --n 32 --p 5/2 --seed 11 --parity even",
        "412fb3dbd54d2e012ad5e2273f0206e15a4406212cd3df5301b02e54ad1ea5ff"),
    Pin("gen --ensemble poisson --m 2 --n 8 --p 3 --parity even --seed 1", "2 8\n3 2 0 2 3 4 2 4\n1 2 2 3 3 3 7 7"),
    Pin("gen --ensemble poisson --m 6 --n 32 --p 16 --parity even --seed 5",
        "ebb5d2d3a8bf71dc7dfb18ade51a5030839b014d0ef3ecd052c2c628a003fad3"),
    Pin("gen --ensemble bernoulli --m 2 --n 400 --p 1/3 --seed 9",
        "ab60650b78e779acf07cd893fbdb517b58c91e8150ff0418aee1af5e3ca4e19a"),
    Pin("gen --ensemble poisson --m 2 --n 400 --p 5/2 --seed 9",
        "e8d6f7bccdf7425fdc800f89b189e6d85cafede83c92fd670d5d498daebf316c"),
    Pin("gen --ensemble poisson --m 1 --n 2 --p 1e400 --seed 1", None, 3),
    # solvers
    Pin("disc --in m.txt --method mitm --balanced --r 1",
        '{"feasible": true, "r": 1, "witness": "+----++-+++-+--+-++---+--+++-++-"}'),
    Pin("disc --in m.txt --method mitm --r 1", '{"feasible": true, "r": 1, "witness": "+---+++++-+++-+--+--+-+---+++++-"}'),
    Pin("disc --in probe.txt --method mitm --r 1 --balanced",
        '{"feasible": true, "r": 1, "witness": "-+---+-+++--+--++-++-++-"}'),
    Pin("disc --in probe.txt --method mitm --r 1", '{"feasible": true, "r": 1, "witness": "-+--++--+-+++++----+-+-+"}'),
    Pin("disc --in scanb.txt --method mitm --r 1 --balanced",
        '{"feasible": true, "r": 1, "witness": "++++++++-----++-----"}'),
    Pin("disc --in scanp.txt --method mitm --r 1", '{"feasible": true, "r": 1, "witness": "++++++-++-+--+-+-+--"}'),
    Pin("disc --in f32.txt --method mitm --balanced --r 1",
        '{"feasible": true, "r": 1, "witness": "+++++++++++---+-+---++--+-------"}'),
    Pin("zcount --in z.txt --r 1", '{"r": 1, "count": 1901342}'),
    Pin("disc --in z.txt --method mitm --balanced --r 0", '{"feasible": false, "r": 0, "witness": null}'),
    Pin("zcount --in z.txt --r -1", None, 2),
    Pin("zcount --in j22.txt --r 1", '{"r": 1, "count": 19164}'),
    Pin("zcount --in b12.txt --r 1", '{"r": 1, "count": 22}'),
    Pin("disc --in t20.txt --method mitm --balanced --r 1", '{"feasible": false, "r": 1, "witness": null}'),
    Pin("disc --in t20.txt --method mitm --balanced --r 2", '{"feasible": true, "r": 2, "witness": "+-++-+--+++---+-+-+-"}'),
    Pin("zcount --in b28.txt --r 1", '{"r": 1, "count": 388}'),
    Pin("zcount --in p10.txt --r 2", '{"r": 2, "count": 6}'),
    Pin("disc --in p10.txt --method mitm --balanced --r 2",
        '{"feasible": true, "r": 2, "witness": "+-++++-++-+--++++-++--------"}'),
    Pin("zcount --in p20.txt --r 100", '{"r": 100, "count": 705432}'),
    Pin("disc --in w17.txt --method mitm --balanced --r 59", '{"feasible": false, "r": 59, "witness": null}'),
    Pin("disc --in w17.txt --method mitm --balanced --r 60", '{"feasible": true, "r": 60, "witness": "-+---+-+++-+"}'),
    Pin("disc --in t20k.txt --method mitm --balanced --r 1", '{"feasible": false, "r": 1, "witness": null}'),
    Pin("disc --in w141.txt --method mitm --r 0", None, 3),
    Pin("disc --in b17.txt --method brute", '{"value": 0, "witness": "++++++++-+-----+-", "count": null}'),
    Pin("disc --in b18.txt --method brute --balanced", '{"value": 1, "witness": "+++++++-+--+------", "count": null}'),
    Pin("disc --in b2.txt --method brute", '{"value": 2, "witness": "+-", "count": null}'),
    Pin("disc --in b4.txt --method brute --balanced", '{"value": 2, "witness": "++--", "count": null}'),
    Pin("disc --in floor20.txt --method brute", '{"value": 3, "witness": "++++++++++----------", "count": null}'),
    Pin("disc --in floor20.txt --method brute --balanced", '{"value": 3, "witness": "++++++++++----------", "count": null}'),
    # phase scans print the same CSV at any thread count; the first is the
    # phase_rich benchmark's configuration
    *(Pin(f"phase --m 4 --p 1/2 --r 1 --seed 7 --trials 4 --n-start 24 --n-stop 32 --parity even --threads {t}",
          _CSV + "24,4,4,1.000000,0.510109,1.000000\n28,4,4,1.000000,0.510109,1.000000\n"
          "32,4,4,1.000000,0.510109,1.000000") for t in "12"),
    *(Pin(f"phase --m 6 --p 1/2 --r 0 --n-start 8 --n-stop 20 --trials 12 --parity even --seed 3 --threads {t}",
          _CSV + "8,12,8,0.666667,0.390622,0.861880\n12,12,10,0.833333,0.551969,0.953035\n"
          "16,12,12,1.000000,0.757506,1.000000\n20,12,12,1.000000,0.757506,1.000000") for t in "12"),
    Pin("phase --m 4 --p 1/2 --r 1 --n-start 8 --n-stop 16 --trials 20 --parity even --threads 2 --seed 1",
        _CSV + "8,20,19,0.950000,0.763869,0.991119\n12,20,20,1.000000,0.838875,1.000000\n"
        "16,20,20,1.000000,0.838875,1.000000"),
    Pin("phase --ensemble poisson --m 4 --p 16 --r 1 --n-start 8 --n-stop 16 --trials 20 --parity even --threads 2 "
        "--seed 1", _CSV + "8,20,0,0.000000,0.000000,0.161125\n12,20,1,0.050000,0.008881,0.236131\n"
        "16,20,0,0.000000,0.000000,0.161125"),
    Pin("phase --m 4 --p 1/2 --r 1 --n-start 8 --n-stop 8 --trials 2 --seed -1", None, 2),
    # second moments
    Pin("ratio --case dense --p 1/3 --m 2 --n 32", "7120af4c48c832250960bd14e8489203a42c3a55da012321fd51e0861b8eed22"),
    Pin("moments --case dense --p 1/3 --m 2 --n 32 --check",
        "8564ef38ce971af5c29e7ddb4c18b8bd88f0fd6974e205f798b703b3f069830a"),
    Pin("ratio --case bernoulli-fixed --w 4 --m 2 --n 32", "1345ca94c9593f6cbf72f4b020ec31c9d859a5a0ce34f1c74225861e8be21e89"),
    Pin("moments --case bernoulli-fixed --w 4 --m 2 --n 32 --check",
        "f7c5ef2551c1b097fa924e8665e8f798824a71f0897f50057d52c6b6b3bcef45"),
    Pin("ratio --case poisson-fixed --w 4 --band 2 --m 2 --n 32",
        "c7250308403302f332fcd0e9c7db8d8d15e75d481d0f20ff5903ffb26143ea14"),
    Pin("moments --case poisson-fixed --m 2 --n 32 --w 4 --band 2 --check",
        "dc74655262a313c7c19ab3d20c00b28633eafc87eb718a7b290875ae6d405956"),
    # the band sum at an odd weight (band {-1, 1}), at w = n/2 (the widest
    # Bernoulli laws), and with four band members and four targets
    Pin("ratio --case poisson-fixed --w 5 --band 1 --m 2 --n 32",
        "d88b0c828416378938b7490e027a9d50b7a367ffe77129efb433e59ef5f3bd83"),
    Pin("ratio --case bernoulli-fixed --w 16 --m 2 --n 32", "d9de5e85985c930d08c00aaedd81d0c0347cb63f73df20a73bbc4a788c073c2b"),
    Pin("moments --case poisson-fixed --w 9 --band 3 --m 2 --n 40 --check",
        "2339959e2c72db4e120c7515810577b2638a87bb632f877bcc8f768056922387"),
    Pin("moments --case dense --m 2 --n 32 --p 1/2 --check", "5058fa2cda770b2671a43001d59c0f90470c8c43fe82fb9a0142ed1d72077f4b"),
    Pin("ratio --case bernoulli-fixed --m 2 --n 16 --w 4", "421072913efb58f293b990fe7c85be75fe95f2f52192b3dad771fe68f2f7c8e7"),
    Pin("ratio --case dense --m 16 --n 128 --p 1/2", "55a9b2d13ce53d942b6c4cccaf47ef087815626f9f34f7e9d7de8041d964b67b"),
    Pin("ratio --case dense --m 8 --n 64 --p 1/99999999999999999999", None, 3),
    # local limits; poisson_tail has no size parameter, so its grid is taken once
    Pin("lclt --kind demoivre --sizes 16,32,64 --points 8,10 --p 1/2",
        "166240cf7fc431e4f602791530318771e26fd7b4e0b3ae6be0d232ff1ad67dd2"),
    Pin("lclt --kind stirling_binom --sizes 16,32,64 --points 4,8",
        "27cec4afd42fe5e1bf41e7ab1eaf1be2846a381f8e3b373a42a37798c908cfef"),
    Pin("lclt --kind stirling_binom --sizes 1024 --points 512", None, 3),
    Pin("lclt --kind cramer_tail --sizes 16,32,64 --points 4,8 --p 1/3",
        "7a2b70d2d84624b940af6689f4384bdca73b95060de6a5ee33fbcd16b2477ea8"),
    Pin("lclt --kind hyp_tail --sizes 8,16 --points 2,4 --ksucc 20 --npop 64",
        "0dcf443bb3eb6b9bfdfbd12aaec14ef80938952f7a23ec3a6b901fed2ef3ed0b"),
    Pin("lclt --kind poisson_tail --sizes 1,2 --points 0,3 --p 5/2",
        "4c3cb2fea8c695b269da20e2a7b60cc26f538b3deee5ce3466ad9d74a0f76ca9"),
    Pin("lclt --kind edgeworth_lazy --sizes 4,8,16 --points 0,1 --p 1/3",
        "f4f9ec3ff71a84325382a7f69bb8eaec8d525fa4893654cfe62578e9b52875ba"),
    Pin("lclt --kind edgeworth_lazy --sizes 1024,2048,4096 --points 0 --p 1/10",
        "a3b4a2b007736b6ee53361a036df473c9fabc8e2386ef87ccf35893137fcede9"),
    # Stein pairs
    Pin("stein scan-bounds --case bernoulli --w-list 8,16,32",
        "6eb6d471703dfadbb14a428447e2c20726356c26c1f1368f9a80006e763319b4"),
    Pin("stein scan-bounds --case poisson --w-list 8,16,32",
        "82c2baef69368e9a7250d182f0d6bdd7bd8f3ad43e9d87a357d1cdc255ecf005"),
    Pin("stein scan-bounds --case bernoulli --w-list 8,16", "293c071023254af210369f794f6c5154f6b13990abc94414a34b562fd5b53e7e"),
    Pin("stein verify-inverse --w 12 --t 6",
        '{"w": 12, "t": 6, "max_delta": "793/3072", "l1_delta": "793/1536", "bound": "1/3", "inverse_residual": "0/1"}'),
    Pin("stein verify-inverse --w 6 --n 16 --t 3 --spec hypergeometric",
        '{"w": 6, "t": 3, "max_delta": "29/715", "l1_delta": "58/715", "bound": "1/15", "inverse_residual": "0/1"}'),
    Pin("stein verify-inverse --w 5 --t 2 --spec file --file spec.json",
        '{"w": 5, "t": 2, "max_delta": "386/1275", "l1_delta": "772/1275", "bound": "1/3", "inverse_residual": "0/1"}'),
    Pin("stein verify-inverse --w 2 --t 1 --spec file --file deep.json", None, 2),
    Pin("stein verify-inverse --w 2 --t 1 --spec file --file bigint.json", None, 2),
    Pin("stein verify-identity --case poisson --w 4 --beta 2/3 --band 2",
        '{"case": "poisson", "w": 4, "beta": "2/3", "band": 2, "lhs": "-55/4536", "rhs": "-109/4536", '
        '"residual": "1/84", "band_term": "1/84", "corrected_residual": "0/1"}'),
    Pin("stein verify-identity --case bernoulli --w 6 --n 12 --beta 2/3",
        '{"case": "bernoulli", "w": 6, "beta": "2/3", "band": 0, "lhs": "-41/5775", "rhs": "-41/5775", '
        '"residual": "0/1", "band_term": "0/1", "corrected_residual": "0/1"}'),
]


def make_input(name):
    """Write INPUTS[name] to `name` in the working directory."""
    recipe = INPUTS[name]
    if isinstance(recipe, tuple):
        seed, m, n, hi = recipe
        g = random.Random(seed)
        recipe = _rows(*(" ".join(str(g.randint(0, hi)) for _ in range(n)) for _ in range(m)))
    if recipe.startswith("gen "):
        assert cli.dispatch([*recipe.split(), "--out", name]) == 0
    else:
        Path(name).write_text(recipe)


def pinned(argv):
    """The stdout that a text row pins for `argv`, final newline included."""
    return next(pin.out for pin in PINS if pin.argv == argv) + "\n"


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.argv)
def test_cli_output_pinned(pin, input_dir, monkeypatch, capsys):
    monkeypatch.chdir(input_dir)
    argv = pin.argv.split()
    for name in INPUTS.keys() & set(argv):
        if not Path(name).exists():
            make_input(name)
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.dispatch(argv) == pin.code
    assert time.perf_counter() - start < LIMIT_S
    out = capsys.readouterr().out
    if pin.out is not None and re.fullmatch("[0-9a-f]{64}", pin.out):
        assert hashlib.sha256(out.encode()).hexdigest() == pin.out
    elif pin.out is not None:
        assert out == pin.out + "\n"
