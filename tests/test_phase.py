from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randisc import cli, ensembles, phase, solver
from randisc.errors import ParameterError

PARAMS = {"bernoulli": (F(1, 4), F(1, 3), F(1, 2)), "poisson": (F(1, 2), F(1), F(3, 2))}


@st.composite
def scan_configs(draw):
    kind = draw(st.sampled_from(sorted(PARAMS)))
    return phase.PhaseScanConfig(
        kind=kind,
        m=draw(st.integers(1, 3)),
        param=draw(st.sampled_from(PARAMS[kind])),
        r=draw(st.integers(0, 2)),
        n_values=tuple(draw(st.lists(st.sampled_from(range(2, 13, 2)), min_size=1, max_size=3))),
        trials=draw(st.integers(1, 4)),
        parity=draw(st.sampled_from(ensembles.PARITIES)),
        threads=1,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(scan_configs())
def test_rows_equal_at_every_thread_count(cfg):
    rows = phase.run_phase_scan(cfg)
    assert [row[0] for row in rows] == list(cfg.n_values)
    for threads in (2, 3):
        threaded = phase.PhaseScanConfig(**{**cfg.__dict__, "threads": threads})
        assert phase.run_phase_scan(threaded) == rows


@pytest.mark.parametrize("threads", [1, 2])
def test_trial_calls_the_solver_through_its_module(threads, monkeypatch):
    # a wrapper patched onto solver.disc_exists_mitm must see every trial
    calls = []
    original = solver.disc_exists_mitm

    def counting(A, r, *args, **kwargs):
        calls.append(A.n)
        return original(A, r, *args, **kwargs)

    cfg = phase.PhaseScanConfig(
        kind="bernoulli", m=2, param=F(1, 2), r=1, n_values=(4, 8), trials=3,
        parity="even", threads=threads, seed=11,
    )
    expected = phase.run_phase_scan(cfg)
    monkeypatch.setattr(solver, "disc_exists_mitm", counting)
    assert phase.run_phase_scan(cfg) == expected
    assert sorted(calls) == [4, 4, 4, 8, 8, 8]


@pytest.mark.parametrize("threads", [1, 2])
def test_scan_rejects_unknown_parity(threads):
    cfg = phase.PhaseScanConfig(
        kind="bernoulli", m=2, param=F(1, 2), r=1, n_values=(4,), trials=2,
        parity="odd", threads=threads, seed=0,
    )
    with pytest.raises(ParameterError, match="parity"):
        phase.run_phase_scan(cfg)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_2(seed, capsys):
    # as gen refuses it; the scan used to reduce the seed mod 2**64
    with pytest.raises(ParameterError, match="seed"):
        phase.PhaseScanConfig(
            kind="bernoulli", m=2, param=F(1, 2), r=1, n_values=(4,), trials=2,
            parity="even", threads=1, seed=seed,
        )
    argv = ["phase", "--m", "2", "--p", "1/2", "--r", "1", "--n-start", "4", "--n-stop", "4",
            "--trials", "2", "--seed", str(seed)]
    assert cli.dispatch(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


@pytest.mark.parametrize("p,r,parity", [("1/8", 0, "even"), ("1/8", 1, "none")])
def test_phase_past_ten_rows_matches_exhaustive(p, r, parity, monkeypatch, capsys):
    # 20 rows: each trial's outcome, probe hit or full scan, against the
    # exhaustive balanced discrepancy
    outcomes = []
    original = solver.disc_exists_mitm

    def recording(A, radius, *args, **kwargs):
        found = original(A, radius, *args, **kwargs)
        outcomes.append((A, found[0]))
        return found

    monkeypatch.setattr(solver, "disc_exists_mitm", recording)
    argv = ["phase", "--m", "20", "--p", p, "--r", str(r), "--n-start", "8", "--n-stop", "12",
            "--n-stride", "2", "--trials", "10", "--parity", parity, "--threads", "1",
            "--seed", "3"]
    assert cli.dispatch(argv) == 0
    assert len(outcomes) == 30 and 0 < sum(found for _, found in outcomes) < 30
    for A, found in outcomes:
        assert A.m == 20 and found == (solver.disc_exhaustive(A, balanced_only=True).value <= r)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == [
        sum(found for _, found in outcomes[i : i + 10]) for i in (0, 10, 20)
    ]
