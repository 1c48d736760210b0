"""numpy is loaded at the first sampler or solver call, never at import.

Each test runs a fresh interpreter, the only place where "first use" is
observable: the exact commands must finish without loading numpy, and
threads that make numpy's first use at once must all see a whole numpy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from test_pins import INPUTS, pinned

import randisc
from randisc import cli, locallimits

# the package's own source tree first, so the child imports what this run tests
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(randisc.__file__).resolve().parent.parent)]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
))

# runs one CLI command, then reports on stderr whether numpy was loaded
_DISPATCH = textwrap.dedent("""
    import sys
    from randisc import cli, locallimits
    code = cli.dispatch(sys.argv[1:])
    if "numpy" in sys.modules:
        print("numpy loaded", file=sys.stderr)
    sys.exit(code)
""")


def fresh(script, *argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=_ENV, timeout=120, cwd=cwd,
    )


def test_import_builds_no_numpy_object():
    proc = fresh(textwrap.dedent("""
        import sys
        import randisc
        from randisc import rng, solver
        from randisc.lazy import LazyNumpy
        assert "numpy" not in sys.modules
        assert type(rng.np) is LazyNumpy and type(solver.np) is LazyNumpy
        assert not hasattr(rng, "_U_GOLDEN")
        rng.Stream(1).block(4)
        assert rng.np is sys.modules["numpy"] and type(solver.np) is LazyNumpy
        assert type(rng._U_GOLDEN) is rng.np.uint64
    """))
    assert proc.returncode == 0, proc.stderr


EXACT_COMMANDS = [
    ["stein", "verify-inverse", "--w", "12", "--t", "6"],
    ["stein", "verify-identity", "--case", "poisson", "--w", "4", "--beta", "2/3", "--band", "2"],
    ["stein", "scan-bounds", "--case", "bernoulli", "--w-list", "8,16"],
    ["moments", "--case", "poisson-fixed", "--m", "2", "--n", "32", "--w", "4", "--band", "2", "--check"],
    ["moments", "--case", "dense", "--m", "2", "--n", "32", "--p", "1/2", "--check"],
    ["ratio", "--case", "bernoulli-fixed", "--m", "2", "--n", "16", "--w", "4"],
    ["lclt", "--kind", "hyp_tail", "--sizes", "8,16", "--points", "2,4", "--ksucc", "20", "--npop", "64"],
    ["lclt", "--kind", "poisson_tail", "--sizes", "1,2", "--points", "0,3", "--p", "5/2"],
    ["lclt", "--kind", "demoivre", "--sizes", "16,32,64", "--points", "8,10", "--p", "1/2"],
    ["lclt", "--kind", "stirling_binom", "--sizes", "16,32,64", "--points", "4,8"],
    ["lclt", "--kind", "cramer_tail", "--sizes", "16,32,64", "--points", "4,8", "--p", "1/3"],
    ["lclt", "--kind", "edgeworth_lazy", "--sizes", "4,8,16", "--points", "0,1", "--p", "1/3"],
]


def test_exact_commands_run_every_lclt_kind():
    assert sorted(argv[2] for argv in EXACT_COMMANDS if argv[0] == "lclt") == sorted(locallimits.APPROX)


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_exact_command_never_loads_numpy(argv, capsys):
    proc = fresh(_DISPATCH, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert cli.dispatch(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_gen_and_mitm_print_their_pinned_outputs(tmp_path):
    argv = "gen --ensemble poisson --m 2 --n 8 --p 3 --parity even --seed 1"
    proc = fresh(_DISPATCH, *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == pinned(argv)
    proc = fresh(_DISPATCH, *INPUTS["m.txt"].split(), "--out", "m.txt", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy loaded\n"  # 32 draws a row take one numpy block
    for argv in ("disc --in m.txt --method mitm --balanced --r 1", "disc --in m.txt --method mitm --r 1"):
        proc = fresh(_DISPATCH, *argv.split(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == pinned(argv)


def test_threads_making_the_first_numpy_call_at_once_agree_with_a_serial_run():
    proc = fresh(textwrap.dedent("""
        import sys
        import threading
        from randisc.rng import Stream
        assert "numpy" not in sys.modules
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(8)
        got = [None] * 8
        def first_use(k):
            barrier.wait()
            got[k] = Stream(k).block(4).tolist(), Stream(k).below_many(3, 40)
        threads = [threading.Thread(target=first_use, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        serial = []
        for k in range(8):
            s = Stream(k)
            serial.append(([s.next64() for _ in range(4)], Stream(k).below_many(3, 40)))
        assert got == serial, (got, serial)
    """))
    assert proc.returncode == 0, proc.stderr


def test_phase_pool_threads_making_the_first_numpy_call_match_one_thread():
    proc = fresh(textwrap.dedent("""
        import os
        import sys
        from fractions import Fraction
        os.cpu_count = lambda: 2
        from randisc.phase import PhaseScanConfig, run_phase_scan
        def scan(threads):
            return run_phase_scan(PhaseScanConfig(
                kind="bernoulli", m=4, param=Fraction(1, 2), r=1, n_values=(24, 28, 32),
                trials=6, parity="even", threads=threads, seed=7))
        assert "numpy" not in sys.modules
        two = scan(2)
        assert "numpy" in sys.modules
        assert two == scan(1), two
    """))
    assert proc.returncode == 0, proc.stderr
