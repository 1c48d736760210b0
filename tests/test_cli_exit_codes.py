"""Property test of the CLI exit-code contract: for any argv, exit 0 (done),
2 (user or parameter error), 3 (capacity) or 4 (invariant violation), and
never an escaping exception or a traceback on stderr, whether or not stdout
and stderr can be written.

Inputs stay small (n <= 12 in phase scans and generated matrices, lazy-walk
and scan sizes <= 64), so no case starts a large meet-in-the-middle scan or
a large exact pmf.
"""

import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_startup import _ENV

from randisc import cli, locallimits
from randisc.errors import CapacityError, InvariantViolation, ParameterError

EXIT_CODES = {0, 2, 3, 4}
ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

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


# "@notdir" is a path under the matrix file, "@long" a 300-character name
bad_paths = ["@dir", "@missing", "@notdir", "@long"]
in_paths = st.sampled_from(["@matrix", "@matrix", "@matrix", *bad_paths])
out_paths = st.sampled_from(["@file", *bad_paths])


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
        ("--out", out_paths, False),
    ],
    "disc": [
        ("--in", in_paths, True),
        ("--method", st.sampled_from(["brute", "mitm", "x"]), False),
        ("--balanced", _switch(), False),
        ("--r", int_text, False),
    ],
    "zcount": [
        ("--in", in_paths, True),
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
        ("--file", st.sampled_from(["@spec", "@matrix", *bad_paths]), False),
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
        ("--out", out_paths, False),
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


def _resolve(argv, root, matrix, spec):
    """argv with each path token made a path under root, after writing the
    matrix and spec files there."""
    (root / "a.mat").write_bytes(matrix)
    (root / "spec.json").write_bytes(spec)
    files = {
        "@matrix": str(root / "a.mat"),
        "@spec": str(root / "spec.json"),
        "@file": str(root / "out.txt"),
        "@dir": str(root),
        "@missing": str(root / "missing" / "x"),
        "@notdir": str(root / "a.mat" / "x"),
        "@long": str(root / ("x" * 300)),
    }
    return [files.get(tok, tok) for tok in argv]


class _FailingStream(io.StringIO):
    """A stdout or stderr whose every write and flush raises `exc`: a full
    disk or a reader that has gone."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc

    def flush(self):
        raise self.exc


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
        resolved = _resolve(argv, Path(tmp), matrix, spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(resolved)
        assert code in EXIT_CODES, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code:
            # the same failure, reported to a stderr that cannot be written
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(_FailingStream(ENOSPC)):
                assert cli.dispatch(resolved) == code, argv


def test_mitm_on_two_thousand_rows_exits_with_a_contract_code():
    # 2,000 random 0/1 rows of 8 columns: more rows than Python's recursion
    # limit, each one a level of the join
    rng = random.Random(2000)
    rows = [[rng.randint(0, 1) for _ in range(8)] for _ in range(2000)]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "tall.mat")
        Path(path).write_bytes(_matrix_text(rows))
        for flags in (["--r", "1"], ["--balanced", "--r", "2"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(["disc", "--in", path, "--method", "mitm", *flags])
            assert code in (0, 3), (flags, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), flags
            if code == 0 and json.loads(out.getvalue())["feasible"]:
                signs = [1 if c == "+" else -1 for c in json.loads(out.getvalue())["witness"]]
                radius = int(flags[-1])
                assert all(abs(sum(s * v for s, v in zip(signs, row))) <= radius for row in rows)


GOOD_MATRIX = _matrix_text([[1, 0, 1, 1], [0, 1, 1, 0]])
GOOD_SPEC = b'{"w": 2, "a": ["2", "1", "0"], "b": ["0", "1", "2"]}'

# one argv per subcommand that exits 0, so only a bad path or the write to
# stdout can fail it
WRITES_STDOUT = {
    "gen": ["--ensemble", "bernoulli", "--m", "2", "--n", "4", "--p", "1/2", "--seed", "1"],
    "disc": ["--in", "@matrix"],
    "zcount": ["--in", "@matrix", "--r", "0"],
    "moments": ["--case", "dense", "--m", "1", "--n", "4", "--p", "1/2"],
    "ratio": ["--case", "poisson-fixed", "--m", "1", "--n", "4", "--w", "2"],
    "stein verify-inverse": ["--w", "2", "--t", "1", "--spec", "file", "--file", "@spec"],
    "stein verify-identity": ["--case", "poisson", "--w", "4", "--beta", "1/2"],
    "stein scan-bounds": ["--case", "poisson", "--w-list", "4"],
    "lclt": ["--kind", "demoivre", "--sizes", "10"],
    "phase": ["--m", "2", "--p", "1/2", "--r", "1", "--n-start", "4", "--n-stop", "8",
              "--trials", "2", "--seed", "1"],
}


# the library call that does the work of each command with --out
WORK = {"gen": (cli.ensembles, "sample_at_parity"), "phase": (cli, "run_phase_scan")}


def _raises(exc):
    def call(*args, **kwargs):
        raise exc
    return call


@pytest.mark.parametrize("bad", bad_paths)
@pytest.mark.parametrize("cmd", ["disc", "gen", "phase", "stein verify-inverse", "zcount"])
def test_every_path_flag_exits_2_on_a_bad_path(cmd, bad, tmp_path, monkeypatch):
    # each input path of WRITES_STDOUT, or an --out added, made bad; a bad
    # --out is refused before the work
    argv = [bad if tok.startswith("@") else tok for tok in WRITES_STDOUT[cmd]]
    if cmd in WORK:
        argv += ["--out", bad]
        monkeypatch.setattr(*WORK[cmd], _raises(AssertionError("the work ran before --out was checked")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(_resolve(cmd.split() + argv, tmp_path, GOOD_MATRIX, GOOD_SPEC))
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "exc",
    [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))],
    ids=["ENOSPC", "EPIPE"],
)
@pytest.mark.parametrize("cmd", sorted(WRITES_STDOUT))
def test_a_failed_stdout_write_exits_2(cmd, exc, tmp_path):
    assert set(WRITES_STDOUT) == set(SUBCOMMANDS)
    argv = _resolve(cmd.split() + WRITES_STDOUT[cmd], tmp_path, GOOD_MATRIX, GOOD_SPEC)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.dispatch(argv) == 0, err.getvalue()
    assert out.getvalue()
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStream(exc)), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    assert code == 2
    assert err.getvalue() == f"error: {exc.strerror}: stdout\n"


@pytest.mark.parametrize("error, code", [(ParameterError("bad"), 2), (CapacityError("big"), 3)], ids=["exit2", "exit3"])
@pytest.mark.parametrize("cmd", sorted(WORK))
def test_a_failing_run_leaves_its_out_path_as_it_was(cmd, error, code, tmp_path, monkeypatch):
    # the --out check neither truncates an existing file nor leaves a new one
    monkeypatch.setattr(*WORK[cmd], _raises(error))
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_bytes(b"kept\n")
    for path in (old, new):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.dispatch([cmd, *WRITES_STDOUT[cmd], "--out", str(path)]) == code
    assert old.read_bytes() == b"kept\n" and not new.exists()


@pytest.mark.parametrize(
    "error, code, line",
    [
        (ParameterError("bad"), 2, "error: bad\n"),
        (CapacityError("big", estimate="~1 s"), 3, "capacity: big (~1 s)\n"),
        (InvariantViolation("broken"), 4, "invariant violation: broken\n"),
    ],
    ids=["exit2", "exit3", "exit4"],
)
def test_each_error_class_keeps_its_code_when_stderr_fails(error, code, line, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.solver, "count_solutions", _raises(error))
    argv = _resolve(["zcount", *WRITES_STDOUT["zcount"]], tmp_path, GOOD_MATRIX, GOOD_SPEC)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.dispatch(argv) == code
    assert err.getvalue() == line
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(_FailingStream(ENOSPC)):
        assert cli.dispatch(argv) == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout, code",
    [
        (["zcount", "--in", "@matrix", "--r", "-1"], os.devnull, 2),
        (["disc", "--in", "@missing"], os.devnull, 2),
        (["disc", "--in", "@matrix"], "/dev/full", 2),
        (["lclt", "--kind", "stirling_binom", "--sizes", "1024", "--points", "512"], os.devnull, 3),
    ],
    ids=["parameter", "missing", "stdout-full", "capacity"],
)
def test_a_full_stderr_keeps_the_exit_code_in_a_fresh_process(argv, stdout, code, tmp_path):
    argv = _resolve(argv, tmp_path, GOOD_MATRIX, GOOD_SPEC)
    with open(stdout, "w") as out, open("/dev/full", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-m", "randisc.cli", *argv], stdout=out, stderr=err, env=_ENV, timeout=120
        )
    assert proc.returncode == code
