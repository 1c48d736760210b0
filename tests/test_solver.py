import gc
import random
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import chain, product

import numpy as np
import pytest

from helpers import (
    balanced_vectors, first_optimal_signs, reference_mitm, reference_prefix_tree, reference_probe,
)
from randisc import ensembles as ens
from randisc import cli, solver
from randisc.errors import CapacityError, ParameterError


def mat(rows):
    return ens.IntMatrix.from_rows(rows)


def eval_inf(A, signs):
    return max(abs(sum(s * a for s, a in zip(signs, A.row(i)))) for i in range(A.m))


def test_zero_matrix():
    res = solver.disc_exhaustive(mat([[0] * 4, [0] * 4]))
    assert res.value == 0
    assert str(res.witness) == "++++"  # lexicographically smallest, u1 = +1


def test_identity_two_by_two():
    assert solver.disc_exhaustive(mat([[1, 0], [0, 1]])).value == 1


def test_one_two_row():
    res = solver.disc_exhaustive(mat([[1, 2]]))
    assert res.value == 1
    assert str(res.witness) == "+-"


def test_balanced_witness_lexicographic():
    res = solver.disc_exhaustive(mat([[0] * 4]), balanced_only=True)
    assert res.value == 0
    assert str(res.witness) == "++--"
    assert res.witness.balanced


# a row sum s on each side of a type's range: the exhaustive blocks hold
# +-s in the smallest signed type, the meet-in-the-middle solver twice a
# sign vector's '+' part, up to 2s, in the smallest unsigned type
_TYPE_EDGES = ((127, 128), (32767, 32768), (2**31 - 1, 2**31))


def test_exhaustive_matches_full_enumeration():
    # fixing u_1 = +1 loses no value (sign symmetry); the next matrices' low
    # columns (all but the first) sum to each side of a type edge
    mats = [ens.sample(ens.EnsembleSpec("bernoulli", 3, 8, F(1, 2), seed)) for seed in range(20)]
    mats += [
        mat([[3, s - 6] + [1] * 6, [2, t - 6] + [1] * 6, [0, 1, 0, 1, 1, 0, 2, 1]])
        for s, t in _TYPE_EDGES
    ]
    # then the largest row sum is a type edge, met by the balanced ++++----
    # while the other rows give it 0: a type one step too narrow for it
    # would wrap its value to 0 and make it the optimum
    mats += [
        mat([[s - 3, 1, 1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 1, 1, 0]])
        for s in chain(*_TYPE_EDGES)
    ]
    for A in mats:
        best = min(
            eval_inf(A, signs)
            for signs in product((1, -1), repeat=8)
        )
        assert solver.disc_exhaustive(A).value == best
        values = [eval_inf(A, signs) for signs in balanced_vectors(8)]
        assert solver.disc_exhaustive(A, balanced_only=True).value == min(values)
        for r in {0, min(values), max(values) - 1}:
            assert solver.count_solutions(A, r, cap=99) == sum(v <= r for v in values)


def test_witness_attains_value():
    for seed in range(10):
        A = ens.sample(ens.EnsembleSpec("poisson", 2, 10, F(1, 2), seed))
        for balanced in (False, True):
            res = solver.disc_exhaustive(A, balanced_only=balanced)
            assert eval_inf(A, res.witness.signs) == res.value
            if balanced:
                assert sum(res.witness.signs) == 0


def test_count_zero_matrix():
    assert solver.count_solutions(mat([[0] * 4, [0] * 4]), 0) == 6


def test_count_all_ones_row():
    assert solver.count_solutions(mat([[1, 1, 1, 1]]), 0) == 6


def test_count_matches_enumeration_oracle():
    for seed in range(15):
        A = ens.sample(ens.EnsembleSpec("bernoulli", 2, 8, F(1, 2), seed))
        for r in (0, 1, 2):
            want = sum(
                1
                for u in balanced_vectors(8)
                if eval_inf(A, u) <= r
            )
            assert solver.count_solutions(A, r) == want


def test_count_monotone_and_matches_disc():
    for seed in range(10):
        A = ens.sample(ens.EnsembleSpec("bernoulli", 3, 10, F(1, 3), seed))
        counts = [solver.count_solutions(A, r) for r in range(5)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        first_pos = next(r for r, c in enumerate(counts) if c > 0)
        assert first_pos == solver.disc_exhaustive(A, balanced_only=True).value


def test_parity_lower_bound():
    for seed in range(25):
        A = ens.sample(ens.EnsembleSpec("bernoulli", 3, 8, F(1, 4), seed))
        if any(sum(A.row(i)) % 2 for i in range(A.m)):
            assert solver.disc_exhaustive(A).value >= 1
            assert solver.count_solutions(A, 0) == 0


def test_exhaustive_search_stops_at_the_parity_floor(monkeypatch):
    # no |u . row_k| is below R_k mod 2, so a 6 x 24 search (2^7 blocks)
    # whose first block meets max_k (R_k mod 2) stops there; a 2 x 18 one
    # whose rows keep every value at 3 or more, above its floor 1, reads
    # both of its blocks
    blocks, inner = [0], solver._exhaustive_blocks

    def counted(*args):
        for block in inner(*args):
            blocks[0] += 1
            yield block

    monkeypatch.setattr(solver, "_exhaustive_blocks", counted)
    A = ens.sample(ens.EnsembleSpec("bernoulli", 6, 24, F(1, 2), 3))
    floor = max(sum(A.row(i)) % 2 for i in range(A.m))
    for balanced in (False, True):
        blocks[0] = 0
        res = solver.disc_exhaustive(A, balanced_only=balanced)
        assert blocks[0] == 1
        assert (res.value, res.witness.signs) == first_optimal_signs(A.rows(), balanced, floor)
    A = mat([[4] * 17 + [1], [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0]])
    for balanced in (False, True):
        blocks[0] = 0
        res = solver.disc_exhaustive(A, balanced_only=balanced)
        assert blocks[0] == 2
        assert res.value == 3
        assert (res.value, res.witness.signs) == first_optimal_signs(A.rows(), balanced)


def test_mitm_trivial_large_radius():
    A = mat([[3, 1, 4, 1], [5, 9, 2, 6]])
    ok, wit = solver.disc_exists_mitm(A, 22, balanced_only=True)
    assert ok and sum(wit.signs) == 0


def test_mitm_all_ones_balanced():
    ok, wit = solver.disc_exists_mitm(mat([[1, 1, 1, 1]]), 0, balanced_only=True)
    assert ok
    assert eval_inf(mat([[1, 1, 1, 1]]), wit.signs) == 0


@pytest.mark.parametrize("balanced", [False, True])
def test_mitm_agrees_with_exhaustive(balanced):
    for seed in range(60):
        A = ens.sample(ens.EnsembleSpec("bernoulli", 3, 16, F(1, 3), seed))
        disc = solver.disc_exhaustive(A, balanced_only=balanced).value
        for r in (0, 1, 2, 3):
            ok, wit = solver.disc_exists_mitm(A, r, balanced_only=balanced)
            assert ok == (disc <= r), (seed, r)
            if wit is not None:
                assert eval_inf(A, wit.signs) <= r
                if balanced:
                    assert sum(wit.signs) == 0


def test_mitm_tuple_fallback_path():
    # ten rows, the old row cap: eleven fields per half, the case that once
    # needed tuple keys; a prefix tree holds only each node's value and where
    # each parent's children start, at any row count
    for seed in range(10):
        A = ens.sample(ens.EnsembleSpec("bernoulli", 10, 10, F(1, 2), seed))
        disc = solver.disc_exhaustive(A, balanced_only=True).value
        for r in (0, 1):
            ok, wit = solver.disc_exists_mitm(A, r, balanced_only=True)
            assert ok == (disc <= r)
            if wit is not None:
                assert eval_inf(A, wit.signs) <= r


def test_mitm_counting_beyond_exhaustive_cap():
    # n = 28 exceeds the exhaustive cap; cross-check the mitm counter on a
    # matrix whose count is known in closed form (zero matrix: C(28,14))
    A = mat([[0] * 28])
    from math import comb

    assert solver.count_solutions(A, 0) == comb(28, 14)


@pytest.mark.parametrize("n", [10, 28])
def test_count_refuses_negative_radius(n):
    # n = 10 is counted by enumeration and n = 28 by meet in the middle;
    # the enumeration branch used to answer 0
    with pytest.raises(ParameterError):
        solver.count_solutions(mat([[1] * n, [0] * n]), -1)


def test_exhaustive_cap_error():
    A = mat([[0] * 28, [0] * 28])
    with pytest.raises(CapacityError):
        solver.disc_exhaustive(A)


def test_mitm_cap_error_carries_estimate():
    # 2^24 sign vectors of 18 bytes per half: past the 256 MiB budget
    A = mat([[0] * 48])
    with pytest.raises(CapacityError) as err:
        solver.disc_exists_mitm(A, 1)
    assert err.value.estimate == "~335 MB peak memory"
    assert str(err.value) == "mitm refused at n=48, m=1: it takes 256 MiB"


def test_balanced_needs_even_n():
    with pytest.raises(ParameterError):
        solver.disc_exhaustive(mat([[1, 0, 1]]), balanced_only=True)
    with pytest.raises(ParameterError):
        solver.count_solutions(mat([[1, 0, 1]]), 1)


def test_solve_result_json():
    # the CLI prints the result object itself: its fields in order, the
    # witness as its sign string
    line = cli._json_line(solver.disc_exhaustive(mat([[1, 2]])))
    assert line == '{"value": 1, "witness": "+-", "count": null}\n'


def test_sign_vector_string_roundtrip():
    sv = solver.SignVector.from_string("+-+-")
    assert str(sv) == "+-+-"
    with pytest.raises(ParameterError):
        solver.SignVector.from_string("+x")
    with pytest.raises(ParameterError):
        solver.SignVector((1, 1), balanced=True)


_WRAP = 2**62  # max entry * n at which int64 sign sums could wrap


def test_int64_overflow_raises_capacity_error():
    # Before the guard, int64 wrap made both solvers answer wrongly:
    # mitm "found" ----+ (first row sums to -2**64) and the exhaustive
    # value came out as -2**63 (true value 0).
    B = _WRAP
    with pytest.raises(CapacityError):
        solver.disc_exists_mitm(mat([[B, B, B, B, 0], [1, 1, 1, 1, 4]]), 0)
    with pytest.raises(CapacityError):  # refused before the probe, which hits here
        solver.disc_exists_mitm(mat([[B, B]]), 0)
    with pytest.raises(CapacityError):
        solver.disc_exhaustive(mat([[B] * 4]))
    with pytest.raises(CapacityError):
        solver.count_solutions(mat([[B // 2] * 2]), 0)


def test_largest_entries_below_the_guard_stay_exact():
    B = (_WRAP - 1) // 5
    A = mat([[B, B, B, B, 0], [1, 1, 1, 1, 4]])
    res = solver.disc_exhaustive(A)
    assert res.value == 4 == eval_inf(A, res.witness.signs)
    assert solver.disc_exists_mitm(A, 3) == (False, None)
    found, wit = solver.disc_exists_mitm(A, 4)
    assert found and eval_inf(A, wit.signs) <= 4


_NEAR_2_58 = 2**58 - 3


def _scan_rows(rng, m, n, huge):
    density = 0.1 if huge else rng.choice((0.2, 0.5))
    rows = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]
    if huge:
        # two entries near 2**58 per row, in columns 0, 1 or 2, 3; they
        # cancel only under opposite signs
        for row in rows:
            pair = rng.choice(((0, 1), (2, 3)) if n >= 4 else ((0, 1),))
            for j in pair[: min(n, 2)]:
                row[j] += _NEAR_2_58
    return rows


def _reference_pair_cases():
    """(rows, r, balanced) cases for the full scan against brute force."""
    rng = random.Random(7)
    cases = []
    for case in range(200):
        m, r, balanced = (1, 6, 10)[case % 3], case % 9 // 3, case % 2 == 0
        n = rng.randrange(2, 13, 2) if balanced else rng.randint(1, 12)
        cases.append((_scan_rows(rng, m, n, huge=case % 5 == 0), r, balanced))
    # then each half of each row sums to one side of a type edge
    for s, t in _TYPE_EDGES:
        rows = [[s - 2, 1, 1, t - 2, 1, 1], [t - 2, 1, 1, s - 2, 1, 1]]
        cases += [(rows, r, balanced) for r in range(3) for balanced in (False, True)]
    # then ten rows with entries up to 100, whose packed half keys need two
    # or more 64-bit words though no single field is wide; the right half
    # repeats the left one up to 2 per entry (odd n adds a 0/1 column), so
    # u = (v, -v) nearly meets every row
    for n in (5, 8, 11, 12):
        rows = []
        for _ in range(10):
            half = [rng.randint(0, 100) for _ in range(n // 2)]
            rows.append(half + [v + rng.randint(0, 2) for v in half] + [rng.randint(0, 1)] * (n % 2))
        cases += [(rows, r, b) for r in (0, 3, 9) for b in (False, True) if not (b and n % 2)]
    # then all-zero columns, so a half's fields can be zero bits wide
    for rows in ([[0, 0, 0, 0, 0, 0]], [[0, 0, 0, 2, 1, 3], [0, 0, 0, 1, 1, 0]],
                 [[0, 1, 0, 0, 2, 0], [0, 3, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0]]):
        cases += [(rows, r, balanced) for r in range(3) for balanced in (False, True)]
    # then 24 and 40 rows, each a level of the join's stack
    for m in (24, 40):
        for n in (6, 9, 12):
            rows = _scan_rows(rng, m, n, huge=False)
            cases += [(rows, r, b) for r in (2, 3, 5) for b in (False, True) if not (b and n % 2)]
    # then plain n = 1 and 2, whose counts fix u_1 and join an empty left
    # half, and odd n, whose other columns split evenly
    for n in (1, 2, 3, 5, 7, 9, 11):
        for m in (1, 6):
            cases += [(_scan_rows(rng, m, n, huge=n == 5), r, False) for r in range(3)]
    # then repeated rows, the last row repeating an earlier one in the second
    # and third plans, which the callers of _scan pass each once
    for n in (4, 6, 7, 10, 12):
        a, b, c = _scan_rows(rng, 3, n, huge=n == 7)
        for rows in ([a, b, a, c], [a, b, b, a], [c, c, b, a, c], [a, a]):
            cases += [(rows, r, bal) for r in range(3) for bal in (False, True) if not (bal and n % 2)]
    return cases


def test_scan_matches_reference_pairs():
    # the full scan, probe bypassed, against brute force over every pair of
    # halves: the count, and the first pair in the documented witness order
    for case, (rows, r, balanced) in enumerate(_reference_pair_cases()):
        mat = ens.IntMatrix.from_rows(rows).to_numpy()
        count, first = reference_mitm(rows, r, balanced)
        assert solver._scan(mat, r, balanced, count=True) == count, case
        assert solver._scan(mat, r, balanced, count=False) == first, case


def test_scan_of_distinct_rows_matches_reference_pairs():
    # each distinct row once, the last row kept last, gives the count and
    # the witness of every row; the probe tests each distinct row once and
    # draws the tries of every row
    cases = [c for c in _reference_pair_cases() if len({*map(tuple, c[0])}) < len(c[0])]
    assert len(cases) > 100 and any(rows[-1] in rows[:-1] for rows, _, _ in cases)
    for case, (rows, r, balanced) in enumerate(cases):
        A = ens.IntMatrix.from_rows(rows)
        distinct = solver._distinct_rows(A)
        assert len(distinct) == len({*map(tuple, rows[:-1])}) + 1 and distinct[-1].tolist() == rows[-1]
        count, first = reference_mitm(rows, r, balanced)
        assert solver._scan(distinct, r, balanced, count=True) == count, case
        assert solver._scan(distinct, r, balanced, count=False) == first, case
        got = solver._probe(A, r, balanced)
        assert (got and got.signs) == reference_probe(rows, r, balanced), case


def test_callers_scan_each_row_once(monkeypatch):
    # a probe miss and a count past the cap both scan the distinct rows
    scanned, scan = [], solver._scan

    def spy(mat, *args, **kwargs):
        scanned.append(mat.tolist())
        return scan(mat, *args, **kwargs)

    monkeypatch.setattr(solver, "_scan", spy)
    monkeypatch.setattr(solver, "_probe", lambda *args: None)
    a, b = [1, 0, 1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0, 1, 1]
    A = mat([a, b, a, b, a])
    assert solver.disc_exists_mitm(A, 1, True) == solver.disc_exists_mitm(mat([a, b, a]), 1, True)
    assert solver.count_solutions(A, 1, cap=0) == reference_mitm([a, b], 1, True)[0]
    assert scanned == [[a, b, a]] * 3


@pytest.mark.parametrize("batch", [1, 7])
def test_count_batches_split_a_depth_anywhere(batch, monkeypatch):
    # at most `batch` units of work a step, so a depth's matched pairs are
    # taken over several steps, a pair's left children may be split between
    # two and a left child with more units goes alone; on every fourth
    # reference case, which holds entries near 2**58, all-zero
    # columns and 24 and 40 rows
    monkeypatch.setattr(solver, "_COUNT_BATCH", batch)
    cases = _reference_pair_cases()[::4]
    assert {24, 40} <= {len(rows) for rows, _, _ in cases}
    for case, (rows, r, balanced) in enumerate(cases):
        mat = ens.IntMatrix.from_rows(rows).to_numpy()
        assert solver._scan(mat, r, balanced, count=True) == reference_mitm(rows, r, balanced)[0], case


def test_count_join_stays_small_with_wide_entries():
    # one row of 30 distinct entries below 10**6: almost every sum is
    # distinct, so a matched pair of imbalance nodes has thousands of
    # children on each side; forming every (left child, right child) product
    # peaked at 359 MiB here, and finding each left child's partners takes
    # about 2 MiB; the reversed row splits the columns differently
    row = random.Random(5).sample(range(1, 10**6), 30)
    tracemalloc.start()
    try:
        count = solver.count_solutions(mat([row]), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert count == solver.count_solutions(mat([row[::-1]]), 1) == 142


def test_prefix_tree_matches_sorted_tuples():
    # one half of a Poisson rate-3 matrix whose packed key (index bits, then
    # each field's digit) needs two 64-bit words, against a tree built from
    # sorted Python tuples, in the narrow type a scan gives it; each level's
    # (starts, values) is read as the oracle's sorted distinct values and
    # keys (parent position * their number + value rank)
    A = ens.sample(ens.EnsembleSpec("poisson", 10, 28, F(3), 4))
    half = [list(row[:14]) for row in A.rows()]
    assert 14 + (14).bit_length() + sum(sum(row).bit_length() for row in half) > 64
    mat = A.to_numpy()
    dtype = np.min_scalar_type(-2 - max(14, *map(sum, half)))
    for balanced in (False, True):
        want_levels, want_rows, want_ends = reference_prefix_tree(half, balanced)
        for with_rows in (False, True):
            levels, rows, ends = solver._prefix_tree(mat[:, :14], balanced, dtype, with_rows)
            got = []
            for starts, values in levels:
                assert values.dtype == dtype
                vals = np.unique(values)
                parent = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
                got.append((vals.tolist(), (parent * len(vals) + np.searchsorted(vals, values)).tolist()))
            assert got == want_levels
            assert ends.tolist() == want_ends
            assert (rows.tolist() if with_rows else rows) == (want_rows if with_rows else None)


def test_scan_counts_a_tall_matrix_in_time_linear_in_its_rows():
    # 20,000 rows of n = 8, each within 1 of 0 under the planted u0 =
    # ++++----, so u0 and -u0 count; a tree build that read every field for
    # every packed key word took 14 s on a 2-core box, quadratic in the rows
    from time import process_time

    rng = random.Random(29)
    u0, rows = (1, 1, 1, 1, -1, -1, -1, -1), []
    while len(rows) < 20000:
        row = [rng.randint(0, 1) for _ in range(8)]
        if abs(sum(s * a for s, a in zip(u0, row))) <= 1:
            rows.append(row)
    distinct = mat(sorted({tuple(row) for row in rows}))
    want = sum(1 for u in balanced_vectors(8) if eval_inf(distinct, u) <= 1)
    assert want >= 2
    A = mat(rows).to_numpy()
    start = process_time()
    assert solver._scan(A, 1, True, count=True) == want
    assert process_time() - start < 8.0


def _repeated_column_rows(rng, m, n):
    # Poisson entries, then columns copied from earlier ones or zeroed, so
    # many sign vectors of a half share one tuple of row sums
    # (the Poisson ensemble takes even n only, so an odd n drops a column)
    spec = ens.EnsembleSpec("poisson", m, n + n % 2, F(rng.choice((1, 2, 3)), 2), rng.getrandbits(32))
    cols = [list(col) for col in zip(*ens.sample(spec).rows())][:n]
    for j in range(n):
        pick = rng.random()
        if pick < 0.3 and j:
            cols[j] = list(cols[rng.randrange(j)])
        elif pick < 0.5:
            cols[j] = [0] * m
    return [list(row) for row in zip(*cols)]


def test_scan_matches_reference_on_shared_half_tuples():
    # a prefix tree's leaf then holds many sign vectors, and the witness must
    # take the smallest of them on each side; m = 1 unbalanced has no prefix
    # field at all, only the last row's range query
    rng = random.Random(11)
    witnesses = 0
    for case in range(120):
        m, r, balanced = (1, 2, 3, 5)[case % 4], case % 3, case % 8 >= 4
        n = rng.randrange(2, 13, 2) if balanced else rng.randint(1, 12)
        rows = _repeated_column_rows(rng, m, n)
        mat = ens.IntMatrix.from_rows(rows).to_numpy()
        count, first = reference_mitm(rows, r, balanced)
        assert solver._scan(mat, r, balanced, count=True) == count, case
        assert solver._scan(mat, r, balanced, count=False) == first, case
        witnesses += first is not None
    assert witnesses >= 30


def test_scan_takes_more_rows_than_the_recursion_limit():
    # the join keeps one stack frame per row, so its depth is not bounded by
    # Python's recursion limit; at r = 0 every balanced u with u_1 = -u_2
    # counts: 2 * C(6, 3)
    rows = [[1, 1, 0, 0, 0, 0, 0, 0]] * 1100
    assert len(rows) > sys.getrecursionlimit()
    mat = ens.IntMatrix.from_rows(rows).to_numpy()
    count, first = reference_mitm(rows, 0, True)
    assert solver._scan(mat, 0, True, count=True) == count == 40
    assert solver._scan(mat, 0, True, count=False) == first


def test_full_scans_leave_no_reference_cycles():
    # a scan that recursed through a nested closure formed a reference cycle,
    # which kept each call's arrays alive until the cyclic collector ran
    A = ens.sample(ens.EnsembleSpec("bernoulli", 6, 28, F(1, 2), 0))
    gc.collect()
    gc.disable()
    try:
        assert solver.disc_exists_mitm(A, 0, balanced_only=True) == (False, None)
        assert solver.count_solutions(A, 1) == 341662
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mitm_count_with_radius_beyond_int64():
    # the radius is clamped to the largest row sum before it meets int64 sums
    A = ens.sample(ens.EnsembleSpec("bernoulli", 2, 28, F(1, 2), 0))
    from math import comb

    assert solver.count_solutions(A, 2**70) == comb(28, 14)


def test_count_with_radius_past_every_row_sum_is_immediate():
    # every balanced u counts once r reaches the largest row sum; the scan
    # used to walk every offset prefix of this 6 x 28 matrix (about 10 s)
    from math import comb
    from time import perf_counter

    A = ens.sample(ens.EnsembleSpec("bernoulli", 6, 28, F(1, 2), 0))
    start = perf_counter()
    assert solver.count_solutions(A, 2**70) == comb(28, 14)
    assert perf_counter() - start < 1.0


def test_count_at_the_largest_row_sum_matches_brute_force():
    # r = max row sum takes the shortcut and r - 1 does not; cap=0 sends the
    # same matrices through the meet-in-the-middle branch
    for seed in range(6):
        for n in (2, 6, 10, 16):
            A = ens.sample(ens.EnsembleSpec("bernoulli", 3, n, F(1, 2), seed))
            top = max(A.row_sums())
            for r in {top, max(top - 1, 0)}:
                want = sum(1 for u in balanced_vectors(n) if eval_inf(A, u) <= r)
                assert solver.count_solutions(A, r) == want, (seed, n, r)
                assert solver.count_solutions(A, r, cap=0) == want, (seed, n, r)


@pytest.mark.parametrize("n", [14, 16, 18, 20, 22])
def test_count_agrees_across_the_join_cutover(n):
    # the default count against the blocks (cap=99) and the join (cap=0) at
    # r = 0-3, and all against brute force over pairs of halves where it is
    # cheap; past BLOCKS_FASTER_PAST_M rows cap=0 still takes the blocks, so
    # the join is also called directly
    for m in (2, 6, 10, 12):
        A = ens.sample(ens.EnsembleSpec("bernoulli", m, n, F(1, 2), 40 + m))
        for r in range(4):
            count = solver.count_solutions(A, r)
            assert count == solver.count_solutions(A, r, cap=99) == solver.count_solutions(A, r, cap=0), (m, r)
            assert count == solver._scan(A.to_numpy(), r, True, count=True), (m, r)
            if n <= 16:
                assert count == reference_mitm([list(row) for row in A.rows()], r, True)[0]


def test_count_past_the_cutover_with_more_than_ten_rows():
    # more than BLOCKS_FASTER_PAST_M rows at n <= 26: the blocks count; past
    # ENUMERATION_CAP the join does, checked with the column halves swapped
    A = ens.sample(ens.EnsembleSpec("bernoulli", 12, 18, F(1, 2), 3))
    assert solver.count_solutions(A, 2) == solver.count_solutions(A, 2, cap=99)
    A = ens.sample(ens.EnsembleSpec("bernoulli", 12, 28, F(1, 2), 3))
    flipped = mat([row[::-1] for row in A.rows()])
    assert solver.count_solutions(A, 1) == solver.count_solutions(flipped, 1) == 388


def test_count_with_a_wide_radius_below_the_cutover_is_fast():
    # ten rows of entries up to 100 at r = 100, by the blocks (the default
    # below the cutover) and by the join
    from time import perf_counter

    rng = random.Random(17)
    A = mat([[rng.randint(0, 100) for _ in range(12)] for _ in range(10)])
    want = sum(1 for u in balanced_vectors(12) if eval_inf(A, u) <= 100)
    for cap in (solver.EXHAUSTIVE_CAP, 0):
        start = perf_counter()
        count = solver.count_solutions(A, 100, cap=cap)
        assert perf_counter() - start < 1.0
        assert count == want
