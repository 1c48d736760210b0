"""Property test of the CLI exit-code contract: for any argv, exit 0 (done),
2 (user or parameter error), 3 (capacity) or 4 (invariant violation), and
never an escaping exception or a traceback on stderr.

Inputs stay small (n <= 12 in phase scans and generated matrices, lazy-walk
and scan sizes <= 64), so no case starts a large meet-in-the-middle scan or
a large exact pmf.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randisc import cli, locallimits

EXIT_CODES = {0, 2, 3, 4}

ints = st.integers(-2, 12).map(str)
int_text = st.one_of(ints, st.sampled_from(["x", "", "1.5", "-0", "99999999999999999999"]))
rationals = st.sampled_from(
    ["1/2", "1/3", "1/16", "3/4", "5/2", "0", "1", "2", "-1/3", "1/0", "0.25", "x", "", "nan"]
)
int_lists = st.sampled_from(["4", "4,8", "8,16,32", "10,20,40", "0", "-2", "x", "", "2,,3", "1,2,3", "64"])
seeds = st.sampled_from(["0", "7", "-1", str(2**64), "x"])

# matrix files: a header and rows of tokens, some of them malformed
tokens = st.sampled_from(
    [b"0", b"1", b"2", b"3", b"7", b"-1", b"x", b"", b"\xff", b"1.5", b"4611686018427387904"]
)
headers = st.one_of(
    st.tuples(st.integers(-1, 5), st.integers(-1, 9)).map(lambda mn: b"%d %d" % mn),
    st.sampled_from([b"", b"x y", b"2", b"\xff\xfe 1"]),
)
rows = st.lists(st.lists(tokens, max_size=8).map(b" ".join), max_size=5)
garbled = st.tuples(headers, rows).map(lambda hr: b"\n".join([hr[0], *hr[1]]) + b"\n")


def _matrix_text(rows):
    lines = [f"{len(rows)} {len(rows[0])}"] + [" ".join(map(str, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


well_formed = st.tuples(st.integers(1, 4), st.integers(1, 10)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(0, 3), min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0]
    )
).map(_matrix_text)
matrix_bytes = st.one_of(well_formed, garbled)
spec_bytes = st.sampled_from(
    [
        b'{"w": 2, "a": ["2", "1", "0"], "b": ["0", "1", "2"]}',
        b'{"w": 2, "a": ["1", "2", "0"], "b": ["0", "1", "2"]}',
        b'{"w": 3, "a": ["3", "2", "1", "0"], "b": ["0", "1/2", "1", "x"]}',
        b'{"w": "2", "a": [], "b": []}',
        b'{"w": 2, "a": 5, "b": null}',
        b'{"a": []}',
        b"[1, 2]",
        b"{",
        b"\xff",
    ]
)


@st.composite
def _flags(draw, options):
    """argv fragments: each flag in order, present nine times in ten when
    the subcommand requires it and every other time when it is optional."""
    argv = []
    for flag, value, required in options:
        if draw(st.integers(0, 9)) < (9 if required else 5):
            v = draw(value)
            argv += [flag] if v is None else [flag, v]
    return argv


def _switch():
    return st.just(None)


SUBCOMMANDS = {
    "gen": [
        ("--ensemble", st.sampled_from(["bernoulli", "poisson", "x"]), True),
        ("--m", st.integers(-1, 4).map(str), True),
        ("--n", ints, True),
        ("--p", rationals, True),
        ("--seed", seeds, True),
        ("--parity", st.sampled_from(["none", "even", "odd"]), False),
        ("--out", st.sampled_from(["@file", "@dir", "@missing"]), False),
    ],
    "disc": [
        ("--in", st.sampled_from(["@matrix", "@matrix", "@matrix", "@dir", "@missing"]), True),
        ("--method", st.sampled_from(["brute", "mitm", "x"]), False),
        ("--balanced", _switch(), False),
        ("--r", int_text, False),
    ],
    "zcount": [
        ("--in", st.sampled_from(["@matrix", "@matrix", "@matrix", "@dir", "@missing"]), True),
        ("--r", int_text, True),
    ],
    "moments": [
        ("--case", st.sampled_from(["dense", "bernoulli-fixed", "poisson-fixed", "x"]), True),
        ("--m", st.sampled_from(["-1", "0", "1", "2", "4", "9"]), True),
        ("--n", st.one_of(ints, st.just("66")), True),
        ("--p", rationals, False),
        ("--w", st.integers(-1, 8).map(str), False),
        ("--band", st.integers(-1, 3).map(str), False),
        ("--check", _switch(), False),
    ],
    "ratio": [
        ("--case", st.sampled_from(["dense", "bernoulli-fixed", "poisson-fixed"]), True),
        ("--m", st.sampled_from(["-1", "0", "1", "2", "4", "9"]), True),
        ("--n", st.one_of(ints, st.just("66")), True),
        ("--p", rationals, False),
        ("--w", st.integers(-1, 8).map(str), False),
        ("--band", st.integers(-1, 3).map(str), False),
    ],
    "stein verify-inverse": [
        ("--w", st.integers(-1, 10).map(str), True),
        ("--t", st.integers(-1, 10).map(str), True),
        ("--spec", st.sampled_from(["binomial", "hypergeometric", "file"]), False),
        ("--n", st.integers(-1, 20).map(str), False),
        ("--file", st.sampled_from(["@spec", "@matrix", "@dir", "@missing"]), False),
    ],
    "stein verify-identity": [
        ("--case", st.sampled_from(["poisson", "bernoulli"]), True),
        ("--w", st.integers(-1, 10).map(str), True),
        ("--n", st.integers(-2, 20).map(str), False),
        ("--beta", rationals, True),
        ("--band", st.integers(-1, 3).map(str), False),
    ],
    "stein scan-bounds": [
        ("--case", st.sampled_from(["poisson", "bernoulli"]), True),
        ("--w-list", st.sampled_from(["4", "4,8", "8,12,16", "0", "-2", "x", "", "2,,3", "1,2,3"]), True),
        ("--beta", rationals, False),
        ("--n-factor", st.integers(-1, 4).map(str), False),
    ],
    "lclt": [
        ("--kind", st.sampled_from([*locallimits.APPROX_KINDS, "x"]), True),
        ("--sizes", int_lists, True),
        ("--points", st.sampled_from(["0", "1", "0,1,2", "-3", "40", "x", ""]), False),
        ("--p", rationals, False),
        ("--ksucc", st.integers(-1, 12).map(str), False),
        ("--npop", st.integers(-1, 24).map(str), False),
    ],
    "phase": [
        ("--ensemble", st.sampled_from(["bernoulli", "poisson"]), False),
        ("--m", st.integers(-1, 4).map(str), True),
        ("--p", rationals, True),
        ("--r", st.integers(-1, 2).map(str), True),
        ("--n-start", st.integers(-2, 12).map(str), True),
        ("--n-stop", st.integers(-2, 12).map(str), True),
        ("--n-stride", st.integers(-2, 4).map(str), False),
        ("--trials", st.integers(-1, 3).map(str), True),
        ("--parity", st.sampled_from(["none", "even"]), False),
        ("--threads", st.integers(-1, 2).map(str), False),
        ("--seed", seeds, True),
        ("--out", st.sampled_from(["@file", "@dir", "@missing"]), False),
    ],
}


@st.composite
def invocations(draw):
    cmd = draw(st.sampled_from(sorted(SUBCOMMANDS) + ["x", ""]))
    argv = cmd.split() if cmd else []
    if cmd in SUBCOMMANDS:
        argv += draw(_flags(SUBCOMMANDS[cmd]))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--help", "--bogus", "x"])))
    return argv, draw(matrix_bytes), draw(spec_bytes)


def _resolve(argv, files):
    return [files.get(tok, tok) for tok in argv]


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(invocations())
def test_every_argv_exits_with_a_contract_code(case):
    argv, matrix, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "a.mat").write_bytes(matrix)
        (root / "spec.json").write_bytes(spec)
        files = {
            "@matrix": str(root / "a.mat"),
            "@spec": str(root / "spec.json"),
            "@file": str(root / "out.txt"),
            "@dir": tmp,
            "@missing": str(root / "missing" / "x"),
        }
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(_resolve(argv, files))
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
