"""The numpy SplitMix64 blocks, the rejection draws and the shuffles' walk,
against the published SplitMix64 vector and the scalar references in
helpers.py."""

import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import RefSplitMix64, reference_probe
from randisc import ensembles, solver
from randisc.rng import MASK64, IntegerTable, Stream

GOLDEN = 0x9E3779B97F4A7C15


def test_published_splitmix64_vector():
    # the first outputs of SplitMix64 seeded with 0 (Vigna's splitmix64.c)
    s = Stream(0)
    assert [s.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert Stream(0).block(3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


# (-3 * GOLDEN) mod 2**64 puts the counter exactly on 0 after three steps
@pytest.mark.parametrize("key", [0, 1, MASK64, (-3 * GOLDEN) & MASK64, 0x0123456789ABCDEF])
@pytest.mark.parametrize("count", [0, 1, 3, 64, 1000])
def test_block_equals_next64_and_leaves_same_state(key, count):
    blocked, scalar, ref = Stream(key), Stream(key), RefSplitMix64(key)
    out = blocked.block(count).tolist()
    assert out == [scalar.next64() for _ in range(count)]
    assert out == [ref.next64() for _ in range(count)]
    assert blocked.next64() == scalar.next64() == ref.next64()


def _bounds():
    out = [1, 2, 3]
    for j in (2, 3, 31, 32, 33, 63, 64, 65, 127, 128):
        out += [2**j - 1, 2**j, 2**j + 1]
    table_total = ensembles._entry_table("poisson", F(5, 2)).total
    assert table_total.bit_length() == 116
    return out + [2**64 + 1, table_total]


@pytest.mark.parametrize("key", [7, MASK64, 20240808])
def test_below_many_equals_sequential_draws(key):
    bounds = _bounds() * 3
    random.Random(key).shuffle(bounds)
    batched, scalar, ref = Stream(key), Stream(key), RefSplitMix64(key)
    for b in bounds:
        draws = batched.below_many(b, 3)
        assert draws == [scalar.below(b) for _ in range(3)]
        assert draws == [ref.below(b) for _ in range(3)]
        assert all(0 <= x < b for x in draws)
    assert batched.next64() == scalar.next64() == ref.next64()


def test_below_many_long_run_refills_exactly():
    # 116-bit draws need two words and reject about a quarter of the time, so
    # the run refills its first block
    total = ensembles._entry_table("poisson", F(5, 2)).total
    batched, ref = Stream(99), RefSplitMix64(99)
    for b in (total, 2**64 + 1, 3):
        assert batched.below_many(b, 400) == [ref.below(b) for _ in range(400)]
    assert batched.next64() == ref.next64()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_bounds()), st.integers(0, 300), st.integers(0, MASK64))
def test_below_many_equals_reference_one_draw_at_a_time(b, count, key):
    batched, ref = Stream(key), RefSplitMix64(key)
    assert batched.below_many(b, count) == [ref.below(b) for _ in range(count)]
    assert batched.next64() == ref.next64()


def _unmix64(y):
    """The inverse of SplitMix64's finalizer."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    y = unshift(y, 31) * pow(0x94D049BB133111EB, -1, 2**64) & MASK64
    y = unshift(y, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64
    return unshift(y, 30)


def test_attempts_at_the_limit_settle_exactly():
    # keys chosen so that one attempt's high word is the largest accepted
    # high word, or one past it: a multi-word tie (2**-64 per attempt at
    # random) is settled by the low words, both ways
    table_total = ensembles._entry_table("poisson", F(5, 2)).total
    settled = set()
    for b in (3, 2**63 + 1, 2**64 + 1, table_total, 2**128):
        k = (b - 1).bit_length()
        words = -(-k // 64)
        last = (b << (64 * words - k)) - 1  # the largest accepted attempt
        top = last >> (64 * (words - 1))
        for high in {top, min(top + 1, MASK64)}:
            for attempt in range(6):
                j = 1 + attempt * words  # the attempt's high word is output j
                key = (_unmix64(high) - j * GOLDEN) & MASK64
                outputs = Stream(key).block(j + words - 1).tolist()[j - 1 :]
                assert outputs[0] == high
                if words > 1 and high == top:
                    settled.add(int("".join(f"{w:016x}" for w in outputs), 16) <= last)
                for count in (attempt + 1, 40):  # a short run and a numpy block
                    s, ref = Stream(key), RefSplitMix64(key)
                    assert s.below_many(b, count) == [ref.below(b) for _ in range(count)]
                    assert s.next64() == ref.next64()
    assert settled == {True, False}


def test_bound_one_takes_no_output():
    s, ref = Stream(5), RefSplitMix64(5)
    assert s.below_many(1, 3) == [0, 0, 0]
    assert s.next64() == ref.next64()


def test_below_rejects_empty_range():
    with pytest.raises(ValueError):
        Stream(1).below(0)
    with pytest.raises(ValueError):
        Stream(1).below_many(0, 3)


def test_shuffle_prefixes_equal_one_at_a_time():
    many, one = Stream(11), Stream(11)
    prefixes = [arr[:4] for arr in islice(many.shuffles(range(9), 4), 25)]
    assert prefixes == [one.shuffle_prefix(9, 4) for _ in range(25)]
    assert many.next64() == one.next64()


def _reference_prefixes(gen, n, w, count):
    out = []
    for _ in range(count):
        perm = list(range(n))
        for i in range(w):
            j = i + gen.below(n - i)
            perm[i], perm[j] = perm[j], perm[i]
        out.append(perm[:w])
    return out


@st.composite
def _shuffles(draw):
    # powers of two: bound 32 has limit 2**64 and accepts every output
    n = draw(st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), st.integers(0, 64)))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 40)), draw(st.integers(0, MASK64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shuffles())
@example((33, 1, 40, 3))  # bound 33 accepts 33/64: the walk runs past its first block
@example((64, 64, 40, 3))
def test_shuffle_prefixes_equal_reference_fisher_yates(case):
    n, w, count, key = case
    fused, one, ref = Stream(key), Stream(key), RefSplitMix64(key)
    want = _reference_prefixes(ref, n, w, count)
    assert [arr[:w] for arr in islice(fused.shuffles(range(n), w), count)] == want
    assert [one.shuffle_prefix(n, w) for _ in range(count)] == want
    assert fused.next64() == one.next64() == ref.next64()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_shuffles())
@example((33, 1, 40, 3))
@example((28, 14, 40, 5))  # two shifts: bounds 28..17 and 16..15
def test_shuffles_generator_equals_reference_over_items(case):
    n, w, count, key = case
    items = [("col", 3 * j + 1) for j in range(n)]
    gen, ref = Stream(key), RefSplitMix64(key)
    got = list(islice(gen.shuffles(items, w), count))
    want = _reference_prefixes(ref, n, w, count)
    assert [arr[:w] for arr in got] == [[items[j] for j in prefix] for prefix in want]
    assert all(sorted(arr) == items for arr in got)  # fresh whole lists
    assert gen.next64() == ref.next64()


def test_shuffle_prefixes_example_refills():
    # the first block holds 1.5 outputs per draw; this run takes more.  The
    # counter moves by GOLDEN per output, and GOLDEN is odd, so it inverts.
    ref = RefSplitMix64(3)
    _reference_prefixes(ref, 33, 1, 40)
    taken = ((ref.state - 3) * pow(GOLDEN, -1, 2**64)) & MASK64
    assert taken > 40 * 3 // 2


def test_shuffle_prefix_longer_than_n_raises():
    with pytest.raises(ValueError):
        next(Stream(1).shuffles(range(3), 4))
    with pytest.raises(ValueError):
        Stream(1).shuffle_prefix(0, 1)


def test_table_draw_many_equals_single_draws():
    table = IntegerTable([3, 0, 5, 1])
    many, one = Stream(12), Stream(12)
    assert table.draw_many(many, 200) == [table.draw(one) for _ in range(200)]
    assert many.next64() == one.next64()


def test_probe_matches_scalar_reference():
    rng = random.Random(4)
    hits = misses = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), 2 * rng.randint(1, 10)
        top = rng.choice([1, 1, 3])
        rows = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
        r, balanced = rng.choice([0, 0, 1, 2]), rng.random() < 0.5
        A = ensembles.IntMatrix.from_rows(rows)
        got = solver._probe(A, r, balanced)
        want = reference_probe(rows, r, balanced)
        assert (got.signs if got else None) == want, (rows, r, balanced)
        hits += want is not None
        misses += want is None
    assert hits > 50 and misses > 50


@pytest.mark.parametrize("n", [24, 28, 32, 36, 40])
def test_probe_matches_scalar_reference_at_phase_sizes(n):
    rng = random.Random(n)
    hits = misses = 0
    for m, r in [(4, 1), (4, 1), (4, 1), (6, 0), (6, 0)]:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        A = ensembles.IntMatrix.from_rows(rows)
        got = solver._probe(A, r, True)
        want = reference_probe(rows, r, True)
        assert (got.signs if got else None) == want, (rows, r)
        hits += want is not None
        misses += want is None
    assert hits and misses


def _edge_probe_cases():
    rng = random.Random(24)

    def bern(m, n):
        return [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]

    cases = []
    for n in (2, 4, 10, 16):
        # entries up to 2**40: scaled 0/1 rows meet r = 2**40 as 0/1 rows
        # meet r = 1, and one small row breaks the scaling
        big = [[v << 40 for v in row] for row in bern(3, n)]
        cases += [(big, 1 << 40), (big, (1 << 40) - 1), (big + [[rng.randint(0, 3) for _ in range(n)]], 1 << 40)]
        cases += [([[rng.randint(0, 1 << 40) for _ in range(n)] for _ in range(2)], r) for r in (1 << 40, 1 << 41)]
    for m in (8, 9, 10):
        cases += [(bern(m, 12), r) for r in (1, 2, 3)]
    zero = [[0] * 10]
    cases += [(zero, 0), (zero + bern(2, 10), 1), (bern(2, 10) + zero * 3, 0)]
    cases += [([[1, 0, 1, 1, 0, 0]], 0), ([[1, 1, 0, 0], [1, 0, 0, 0]], 0)]  # odd row sums
    cases += [([[a, b]], r) for a in (0, 1, 5) for b in (0, 2, 5) for r in (0, 2)]
    for rows in (bern(4, 12), [[rng.randint(0, 9) for _ in range(8)] for _ in range(5)]):
        top = max(map(sum, rows))
        cases += [(rows, top - d) for d in (1, 2, 3) if top - d >= 0]
    return cases


@pytest.mark.parametrize("balanced", [True, False])
def test_probe_matches_scalar_reference_at_the_edges(balanced):
    hits = misses = 0
    for rows, r in _edge_probe_cases():
        A = ensembles.IntMatrix.from_rows(rows)
        got = solver._probe(A, r, balanced)
        want = reference_probe(rows, r, balanced)
        assert (got.signs if got else None) == want, (rows, r)
        hits += want is not None
        misses += want is None
    assert hits > 20 and misses > 10


@pytest.mark.parametrize("balanced", [True, False])
def test_probe_with_an_odd_row_sum_at_radius_0_draws_nothing(balanced, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a try")

    monkeypatch.setattr(Stream, "shuffles", no_draws)
    monkeypatch.setattr(Stream, "block", no_draws)
    A = ensembles.IntMatrix.from_rows([[1, 0, 1, 1], [1, 1, 0, 0]])
    assert solver._probe(A, 0, balanced) is None


def test_probe_finds_a_late_plain_hit():
    # the plain hit is try 387, counted from 0: in the ninth block of
    # outputs read ahead, which holds tries 255 to 510
    rng = random.Random(0)
    rows = [[rng.randint(0, 1) for _ in range(24)] for _ in range(6)]
    A = ensembles.IntMatrix.from_rows(rows)
    assert reference_probe(rows, 1, False, tries=387) is None
    want = reference_probe(rows, 1, False, tries=388)
    assert want is not None
    assert solver._probe(A, 1, False).signs == want


def test_plain_probe_miss_reads_only_its_tries(monkeypatch):
    # an even row sum, so the probe draws, but no plain vector meets r = 0
    reads = []
    block = Stream.block

    def counted(self, count):
        reads.append(count)
        return block(self, count)

    monkeypatch.setattr(Stream, "block", counted)
    A = ensembles.IntMatrix.from_rows([[3, 1, 0, 0, 0, 0, 0, 0]])
    assert solver._probe(A, 0, False) is None
    assert sum(reads) == solver._PROBE_TRIES * 8
