import gc
import random
from fractions import Fraction as F
from itertools import chain, product

import pytest

from helpers import balanced_vectors, reference_mitm, reference_prefix_tree
from randisc import ensembles as ens
from randisc import solver
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
    # ten rows, the row cap: eleven fields per half, the case that once
    # needed tuple keys; the prefix trees' keys are ranks at any row count
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
    assert str(err.value) == "mitm refused at n=48, m=1: it takes m<=10 and 256 MiB"


def test_balanced_needs_even_n():
    with pytest.raises(ParameterError):
        solver.disc_exhaustive(mat([[1, 0, 1]]), balanced_only=True)
    with pytest.raises(ParameterError):
        solver.count_solutions(mat([[1, 0, 1]]), 1)


def test_solve_result_json():
    res = solver.disc_exhaustive(mat([[1, 2]]))
    assert res.to_json_dict() == {"value": 1, "witness": "+-", "count": None}


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


def test_scan_matches_reference_pairs():
    # the full scan, probe bypassed, against brute force over every pair of
    # halves: the count, and the first pair in the documented witness order
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
    for case, (rows, r, balanced) in enumerate(cases):
        mat = solver._int64_matrix(ens.IntMatrix.from_rows(rows))
        count, first = reference_mitm(rows, r, balanced)
        assert solver._scan(mat, r, balanced, count=True) == count, case
        assert solver._scan(mat, r, balanced, count=False) == first, case


def test_prefix_tree_matches_sorted_tuples():
    # one half of a Poisson rate-3 matrix whose packed key (index bits, then
    # each field's digit) needs two 64-bit words, against a tree built from
    # sorted Python tuples
    A = ens.sample(ens.EnsembleSpec("poisson", 10, 28, F(3), 4))
    half = [list(row[:14]) for row in A.rows()]
    assert 14 + (14).bit_length() + sum(sum(row).bit_length() for row in half) > 64
    mat = solver._int64_matrix(A)
    for balanced in (False, True):
        levels, rows, ends = solver._prefix_tree(mat[:, :14], balanced)
        want_levels, want_rows, want_ends = reference_prefix_tree(half, balanced)
        assert [(v.tolist(), k.tolist()) for v, k in levels] == want_levels
        assert rows.tolist() == want_rows and ends.tolist() == want_ends


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
        mat = solver._int64_matrix(ens.IntMatrix.from_rows(rows))
        count, first = reference_mitm(rows, r, balanced)
        assert solver._scan(mat, r, balanced, count=True) == count, case
        assert solver._scan(mat, r, balanced, count=False) == first, case
        witnesses += first is not None
    assert witnesses >= 30


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
            top = solver.max_abs_row_sum(A)
            for r in {top, max(top - 1, 0)}:
                want = sum(1 for u in balanced_vectors(n) if eval_inf(A, u) <= r)
                assert solver.count_solutions(A, r) == want, (seed, n, r)
                assert solver.count_solutions(A, r, cap=0) == want, (seed, n, r)


@pytest.mark.parametrize("n", [14, 16, 18, 20, 22])
def test_count_agrees_across_the_join_cutover(n):
    # the default count against the blocks (cap=99) and the join (cap=0),
    # and all three against brute force over pairs of halves where it is cheap
    for m in (2, 6, 10):
        A = ens.sample(ens.EnsembleSpec("bernoulli", m, n, F(1, 2), 40 + m))
        count = solver.count_solutions(A, 1)
        assert count == solver.count_solutions(A, 1, cap=99) == solver.count_solutions(A, 1, cap=0)
        if n <= 16:
            assert count == reference_mitm([list(row) for row in A.rows()], 1, True)[0]


def test_count_past_the_cutover_with_more_rows_than_the_join_takes():
    # more than MITM_M_CAP rows at n <= 26: the blocks count, not a refusal
    A = ens.sample(ens.EnsembleSpec("bernoulli", 12, 18, F(1, 2), 3))
    assert solver.count_solutions(A, 2) == solver.count_solutions(A, 2, cap=99)
    with pytest.raises(CapacityError, match="mitm refused at n=28, m=12"):
        solver.count_solutions(ens.sample(ens.EnsembleSpec("bernoulli", 12, 28, F(1, 2), 3)), 1)


def test_count_with_a_wide_radius_below_the_cutover_is_fast():
    # ten rows of entries up to 100 at r = 100: the join walks every row
    # offset in [-100, 100] (about 5 s for this matrix); the blocks do not
    from time import perf_counter

    rng = random.Random(17)
    A = mat([[rng.randint(0, 100) for _ in range(12)] for _ in range(10)])
    start = perf_counter()
    count = solver.count_solutions(A, 100)
    assert perf_counter() - start < 1.0
    assert count == sum(1 for u in balanced_vectors(12) if eval_inf(A, u) <= 100)
