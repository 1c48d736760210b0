"""Exact discrepancy solvers: blocked exhaustive enumeration, solution
counting over balanced sign vectors, and a meet-in-the-middle feasibility
test for wider instances.

Enumeration order is lexicographic with '+' before '-', and the exhaustive
search fixes the first coordinate to +1 (u and -u give the same value), so
the reported witness is the lexicographically smallest optimal vector with
u_1 = +1 on every platform.
"""

from dataclasses import dataclass
from itertools import accumulate, chain
from math import comb

import numpy as np

from .errors import CapacityError, ParameterError
from .ensembles import IntMatrix
from .rng import Stream, derive_key, mix64

MEMORY_BUDGET = 256 << 20  # bytes: every solver refuses a larger fitted peak
# the widest matrix the exhaustive blocks enumerate: 2^(n-1) sign vectors
ENUMERATION_CAP = 26
# count_solutions' default cap, past which it counts by the join; perfbench
# reads it and sets it to 0 in checks.  Bernoulli(1/2), r = 1, ms per count,
# blocks / join (2-core box, median of five matrices, best of three runs):
#   n   m=2        m=6        m=10
#   16  0.7 / 0.6  1.1 / 1.7  1.9 / 6.3
#   18  1.5 / 0.7  3.7 / 2.8  3.3 / 6.8
#   22  2.9 / 1.1  5.1 / 3.6  6.8 / 9.4
#   26  9.4 / 0.8  14 / 5.1   24 / 20
# The join leads past n = 16 at m <= 6 and is at most 2x behind at m = 10.
# It walks every row offset in [-r, r], so a wider radius costs it far
# more: at n = 18, m = 10 it took 0.27 s at r = 2 and 2.5 s at r = 3,
# against 4-5 ms for the blocks
EXHAUSTIVE_CAP = 16
# _Join.descend takes one Python frame per row: at small n the memory budget
# alone would admit files of thousands of rows and a RecursionError
MITM_M_CAP = 10
_BLOCK_BITS = 16
_PROBE_TRIES = 512
_PROBE_CHUNK = 32
# |u . row| <= max entry * n bounds every partial sum, offset and probe
# value; below this the int64 arithmetic cannot wrap
_INT64_SUM_LIMIT = 1 << 62


@dataclass(frozen=True)
class SignVector:
    signs: tuple
    balanced: bool = False

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ParameterError("signs must be +-1")
        if self.balanced and sum(self.signs) != 0:
            raise ParameterError("balanced vector must have zero sum")

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, text, balanced=False):
        if any(ch not in "+-" for ch in text):
            raise ParameterError(f"bad sign string {text!r}")
        return cls(tuple(1 if ch == "+" else -1 for ch in text), balanced)


@dataclass
class SolveResult:
    value: int
    witness: SignVector = None
    count: int = None

    def to_json_dict(self):
        return {
            "value": self.value,
            "witness": str(self.witness) if self.witness else None,
            "count": self.count,
        }


def _signed_sums(c, dtype):
    """u . c_i for every sign vector u and row c_i of the (m, k) int64
    matrix c, as an (m, 2^k) array of dtype, which must hold every such sum:
    column i gives column j the sign -1 iff bit (k-1-j) of i is 1, so
    ascending i is lexicographic with '+' < '-'.  Built in place by doubling
    over the columns in reverse."""
    out = np.empty((c.shape[0], 1 << c.shape[1]), dtype)
    out[:, 0] = c.sum(axis=1)
    h = 1
    for v in c.T[::-1]:
        np.subtract(out[:, :h], 2 * v[:, None], out=out[:, h : 2 * h])
        h *= 2
    return out


def _signs_of_index(idx, k):
    return tuple(1 - 2 * ((idx >> (k - 1 - j)) & 1) for j in range(k))


def _int64_matrix(A):
    """A as an int64 array; CapacityError where int64 sums could wrap."""
    top = max(A.entries, default=0)
    if top * A.n >= _INT64_SUM_LIMIT:
        raise CapacityError(
            f"entries up to {top} at n={A.n} could overflow int64 sums",
            estimate="max entry * n must stay below 2**62",
        )
    return A.to_numpy()


def max_abs_row_sum(A):
    return max(sum(A.row(i)) for i in range(A.m))


def _check_budget(what, n, m, limit, past_limit, est):
    """Refuse `what` past `limit` or a fitted peak of est bytes past MEMORY_BUDGET."""
    if past_limit or est > MEMORY_BUDGET:
        raise CapacityError(
            f"{what} refused at n={n}, m={m}: it takes {limit} and {MEMORY_BUDGET >> 20} MiB",
            estimate=f"~{est / 1e6:.0f} MB peak memory",
        )


def _exhaustive_blocks(mat, balanced_only):
    """Every sign vector with u_1 = +1 for the int64 matrix mat, one block
    per setting of the high n-1-lo_w signs: yields (hi_idx, lo_idx, vals),
    where vals[k] is ||Au||_inf for the low signs with index lo_idx[k]
    (ascending).  lo_idx is None for all low indices; balanced blocks hold
    only the low signs that complete n/2 minus signs and are skipped when
    there are none.

    The low part holds one sign vector per column, (m, 2^lo_w), in the
    smallest signed type that holds +-(largest row sum), which bounds every
    partial sum, so a block is one add, an in-place abs and a max over
    contiguous rows."""
    m, n = mat.shape
    lo_w = min(n - 1, _BLOCK_BITS)
    # fitted to fresh-process peaks at n = 12 to 26 and up to 4,789 rows of
    # int64 blocks: 24 bytes per row and low sign vector (25 covers the input
    # matrix), plus 33 MB.  The narrow blocks stay below it: at int64 the low
    # part, its balanced groups and one block's sums take at most 24 bytes
    # (n = 17, 143 rows: 182 MB against 267 MB; 50 MB with 0/1 entries)
    est = 25.0 * m * 2**lo_w + 33e6
    _check_budget("exhaustive search", n, m, f"n<={ENUMERATION_CAP}", n > ENUMERATION_CAP, est)
    dtype = np.min_scalar_type(-1 - int(mat.sum(axis=1).max()))
    hi_w = n - 1 - lo_w
    lo_part = _signed_sums(mat[:, 1 + hi_w :], dtype)
    hi_part = _signed_sums(mat[:, 1 : 1 + hi_w], dtype)
    hi_part += mat[:, :1]
    if balanced_only:
        # each half's sign sum: 2 * (its '+' signs) - its width
        lo_sum, hi_sum = (_signed_sums(np.ones((1, w), np.int64), np.int64)[0] for w in (lo_w, hi_w))
        groups = [np.flatnonzero(lo_sum == 2 * p - lo_w) for p in range(lo_w + 1)]
        parts = [lo_part.take(idx, axis=1) for idx in groups]  # C order, as lo_part
    for hi_idx in range(1 << hi_w):
        lo_idx, part = None, lo_part
        if balanced_only:
            need = n // 2 - 1 - (int(hi_sum[hi_idx]) + hi_w) // 2  # low '+' signs left
            if not 0 <= need <= lo_w:
                continue
            lo_idx, part = groups[need], parts[need]
        sums = part + hi_part[:, hi_idx, None]
        yield hi_idx, lo_idx, np.abs(sums, out=sums).max(axis=0)


def disc_exhaustive(A: IntMatrix, balanced_only=False) -> SolveResult:
    """Exact discrepancy by enumeration of all sign vectors with u_1 = +1."""
    if balanced_only and A.n % 2:
        raise ParameterError("balanced vectors require even n")
    best_val = best_idx = None
    for hi_idx, lo_idx, vals in _exhaustive_blocks(_int64_matrix(A), balanced_only):
        k = int(vals.argmin())
        if best_val is None or vals[k] < best_val:
            best_val = int(vals[k])
            best_idx = (hi_idx, k if lo_idx is None else int(lo_idx[k]))
    if best_val is None:
        raise ParameterError("no balanced vector exists for this n")
    hi_idx, lo_idx = best_idx
    lo_w = min(A.n - 1, _BLOCK_BITS)
    signs = (1,) + _signs_of_index(hi_idx, A.n - 1 - lo_w) + _signs_of_index(lo_idx, lo_w)
    return SolveResult(best_val, SignVector(signs, balanced_only))


def count_solutions(A: IntMatrix, r, cap=EXHAUSTIVE_CAP) -> int:
    """Exact number of balanced u with ||Au||_inf <= r: by the
    meet-in-the-middle join past `cap` columns, by the exhaustive blocks up
    to it and for files of more than MITM_M_CAP rows that they can take."""
    _check_radius(A, r, True)
    join = A.n > cap and (A.m <= MITM_M_CAP or A.n > ENUMERATION_CAP)
    if join:
        check_mitm_shape(A.n, A.m)
    mat = _int64_matrix(A)
    if r >= max_abs_row_sum(A):
        # no |u . row| exceeds the largest row sum, so every balanced u counts
        return comb(A.n, A.n // 2)
    if join:
        return _scan(mat, r, True, count=True)
    # u_1 = +1 covers half the balanced domain; u <-> -u doubles the count.
    blocks = _exhaustive_blocks(mat, balanced_only=True)
    return 2 * sum(int((vals <= r).sum()) for _, _, vals in blocks)


def disc_exists_mitm(A: IntMatrix, r, balanced_only=False):
    """Feasibility of ||Au||_inf <= r via meet in the middle.

    Returns (feasible, witness or None).  A short deterministic probe of
    random candidate vectors runs first so feasible instances in
    solution-rich regimes exit early; the full scan is the proof of
    infeasibility.

    The full scan matches the per-row sums of the first n//2 columns' sign
    vectors (left) with those of the rest (right).  Each half is a tree of
    its distinct prefixes (see _prefix_tree): the half imbalance first when
    balanced_only, then rows 0..m-1.  Depth first, in lexicographic order,
    it fixes the offsets delta_k = (Au)_k in [-r, r] of rows k < m-1 and
    joins the trees over the (left prefix, right prefix) pairs that meet
    them, skipping a branch with no pair left; the last row is one range
    query per left leaf.  The witness is the first match by: delta, then
    left index, then the right half's last-row sum, then right index; a
    half's index reads its signs as binary with '-' = 1.
    """
    _check_radius(A, r, balanced_only)
    check_mitm_shape(A.n, A.m)
    mat = _int64_matrix(A)
    if r >= max_abs_row_sum(A):
        # any vector lands inside [-r, r] on every row
        signs = tuple(1 if j % 2 == 0 else -1 for j in range(A.n))
        return True, SignVector(signs, balanced_only)
    hit = _probe(A, r, balanced_only, mat)
    if hit is None:
        signs = _scan(mat, r, balanced_only, count=False)
        if signs is None:
            return False, None
        hit = SignVector(signs, balanced_only)
    return True, hit


def check_mitm_shape(n, m):
    """Refuse a meet-in-the-middle run on an n-column, m-row matrix past
    MITM_M_CAP or the memory budget."""
    # a count's peak RSS, fitted on three Bernoulli(1/2) matrices at each
    # n = 36, 38, 40 and m = 1..10, within 6% of each median of three (single
    # matrices spread by up to 20%), and above the peaks at the budget's edge
    # ((44, 8) and (46, 7): 137 and 191 MiB): per sign vector of the larger
    # half, the packed sort keys and their temporaries take 18 bytes until the
    # prefix trees fill up (24m - 144), plus 33 MB for the interpreter; the
    # exponent stops where a float would overflow (n past 2046)
    est = 2.0 ** min((n + 1) // 2, 1023) * max(18, 24 * m - 144) + 33e6
    _check_budget("mitm", n, m, f"m<={MITM_M_CAP}", m > MITM_M_CAP, est)


def _check_radius(A, r, balanced_only):
    """The checks of every solver call with a radius, made before any branch."""
    if r < 0:
        raise ParameterError("radius must be >= 0")
    if balanced_only and A.n % 2:
        raise ParameterError("balanced vectors require even n")


def _probe(A, r, balanced_only, mat):
    """First of _PROBE_TRIES random sign vectors, in draw order, with
    ||Au||_inf <= r; None when every try misses.

    Tries come from one stream seeded by the matrix and are drawn and tested
    _PROBE_CHUNK at a time, so a hit costs only the chunks up to it.
    Balanced tries put +1 on the first n/2 entries of a uniform permutation,
    the others take the low bit of one output per coordinate.
    """
    n = A.n
    key = mix64(A.m)
    for v in A.entries:
        key = mix64(key ^ (v + 0x9E3779B97F4A7C15))
    stream = Stream(derive_key(key, r, int(balanced_only)))
    half = n // 2
    try_of_col = np.repeat(np.arange(_PROBE_CHUNK), half)
    for _ in range(_PROBE_TRIES // _PROBE_CHUNK):
        if balanced_only:
            tries = np.full((_PROBE_CHUNK, n), -1, dtype=np.int8)
            prefixes = stream.shuffle_prefixes(n, half, _PROBE_CHUNK)
            cols = np.fromiter(chain.from_iterable(prefixes), np.intp, _PROBE_CHUNK * half)
            tries[try_of_col, cols] = 1
        else:
            low = (stream.block(_PROBE_CHUNK * n) & np.uint64(1)).astype(np.int8)
            tries = (1 - 2 * low).reshape(_PROBE_CHUNK, n)
        vals = np.abs(tries.astype(np.int64) @ mat.T).max(axis=1)
        hits = np.flatnonzero(vals <= r)
        if hits.size:
            return SignVector(tuple(tries[hits[0]].tolist()), balanced_only)
    return None


def _scan(mat, r, balanced_only, count):
    """The full meet-in-the-middle scan: the number of sign vectors u with
    ||Au||_inf <= r (and zero sum when balanced_only), or the signs of the
    first one in _Join.descend's order (None when there is none)."""
    nl = mat.shape[1] // 2
    root = np.zeros(1, dtype=np.intp)
    found = _Join(mat, r, balanced_only).descend(0, root, root, count)
    if count or found is None:
        return found
    return _signs_of_index(found[0], nl) + _signs_of_index(found[1], mat.shape[1] - nl)


def _subset_sums(entries):
    """The sorted distinct subset sums of a list of nonnegative ints: a set
    of each half's sums, then their sumset, sorted (np.unique hashes, which
    is far slower on a large sumset)."""
    halves = []
    for part in (entries[: len(entries) // 2], entries[len(entries) // 2 :]):
        sums = {0}
        for v in part:
            sums |= {s + v for s in sums}
        halves.append(np.fromiter(sums, np.int64, len(sums)))
    out = np.add.outer(*halves).ravel()
    out.sort()
    return out[np.append(True, out[1:] != out[:-1])]


def _packed_digits(entries, offs, cap):
    """Every sign vector's digits (the sum of each field's '+'-signed
    entries) packed into one nonnegative integer, digit d at bits
    [offs[d + 1], offs[d]), split into words of cap bits, least significant
    first: a list of 2^k-long uint64 arrays, entry i for the sign vector
    with index i.  Built by doubling like _signed_sums; a '-' sign takes its
    entries off every digit at once, borrowing across words where a digit
    spans two."""
    nwords = max(1, -(-offs[0] // cap))
    mask = (1 << cap) - 1

    def split(digits):
        packed = sum(x << off for x, off in zip(digits, offs[1:]))
        return [(packed >> (w * cap)) & mask for w in range(nwords)]

    out = [np.empty(1 << len(entries[0]), np.uint64) for _ in range(nwords)]
    for z, top in zip(out, split([sum(e) for e in entries])):
        z[0] = top
    h = 1
    for column in reversed(list(zip(*entries))):
        borrow = 0
        for w, sub in enumerate(split(column)):
            take, src, dst = sub + borrow, out[w][:h], out[w][h : 2 * h]
            np.subtract(src, take, out=dst)
            if w + 1 < nwords:
                borrow = (src < take).astype(np.uint64)
                dst += borrow << np.uint64(cap)
        h *= 2
    return out


def _sort_words(words, k):
    """Sort the sign vectors by their packed digits (see _packed_digits) in
    one stable LSD sort, in place: each word, least significant first, takes
    k index bits below its digits and is sorted with np.sort.  The index
    bits make every key distinct, so the unstable sorts are stable where it
    matters; a later word's index bits hold the position in the sort before.
    Returns the sorted positions where a new digit tuple starts."""
    index_bits, shift = np.uint64((1 << k) - 1), np.uint64(k)
    pos = None  # between passes: the sign vector at each sorted position
    for w, z in enumerate(words):
        if w:
            z[:] = z[pos]
        z <<= shift
        z |= np.arange(len(z), dtype=np.uint64)
        z.sort()
        if w + 1 < len(words):
            rank = (z & index_bits).view(np.intp)
            pos = rank if pos is None else pos[rank]
    del pos
    # a tuple starts where some word's digits differ from the previous key's:
    # in the sorted last word, where a key passes its neighbour with every
    # index bit set; each word below is read back through the index bits of
    # the word above
    z = words[-1]
    step = z[1:] > (z[:-1] | index_bits)
    for w in range(len(words) - 2, -1, -1):
        z = words[w][(z & index_bits).view(np.intp)]
        step |= (z[1:] ^ z[:-1]) > index_bits
    return np.flatnonzero(np.append(True, step))


def _leaf_fields(words, leaf, k, offs, cap, tops):
    """Each field's digit (at most tops[d]) at each leaf, a sorted position
    where a tuple starts (see _sort_words), and the sign vector there.
    Empties words, top word first, so each is freed once read."""
    index_bits = np.uint64((1 << k) - 1)
    fields = [np.zeros(len(leaf), np.min_scalar_type(top)) for top in tops]
    rows = leaf
    while words:
        w = len(words) - 1
        z = words.pop()[rows]
        rows = (z & index_bits).view(np.intp)
        for field, lo, hi in zip(fields, offs[1:], offs):
            a, b = max(lo, w * cap), min(hi, (w + 1) * cap)
            if a < b:
                piece = z >> np.uint64(k + a - w * cap)
                piece &= np.uint64((1 << (b - a)) - 1)
                field <<= b - a
                field |= piece
    return fields, rows


def _prefix_tree(cols, balanced_only):
    """One half's fields (its sign sum when balanced_only, then each row's
    sum) as a tree of distinct prefixes, from one sort of its sign vectors
    (see _sort_words).  Returns (levels, rows, ends): levels[d] = (vals,
    keys) holds field d's sorted distinct values and each node's key parent
    id * |vals| + value rank, ascending, so a key's position is the node's
    id, keys stay ranks and parent p's children hold [p |vals|, (p + 1)
    |vals|).  Leaf i, a distinct full tuple, has smallest sign vector
    rows[i] and multiplicity ends[i + 1] - ends[i]."""
    k = cols.shape[1]
    entries = [[1] * k] * balanced_only + cols.tolist()
    tops = [sum(e) for e in entries]
    # field d's digit, the sum of its '+'-signed entries, takes key bits
    # [offs[d + 1], offs[d]), the first field most significant
    offs = list(accumulate([0] + [top.bit_length() for top in tops[::-1]]))[::-1]
    cap = 64 - k  # digit bits per word, above the index bits
    words = _packed_digits(entries, offs, cap)
    leaf = _sort_words(words, k)
    fields, rows = _leaf_fields(words, leaf, k, offs, cap, tops)
    levels, new = [], leaf == 0  # leaves that start a node; the root: leaf 0
    for e, top in zip(entries, tops):
        field = fields.pop(0)  # freed after its level
        start = new.copy()
        start[1:] |= field[1:] != field[:-1]
        child = np.flatnonzero(start)
        key, digit = new[child].astype(np.intp), field[child]
        del child  # the keys are built in place, to keep the peak down
        np.cumsum(key, out=key)  # the parent's id + 1
        key -= 1
        vals = _subset_sums(e)
        key *= len(vals)
        # ranks in field's own type, as uint64 against int64 compares in float64
        key += np.searchsorted(vals.astype(field.dtype), digit)
        new = start
        levels.append((2 * vals - top, key))
    return levels, rows, np.append(leaf, 1 << k)


class _Join:
    """Both halves' prefix trees (see _prefix_tree), joined depth first over
    matched (left prefix, right prefix) pairs."""

    def __init__(self, mat, r, balanced_only):
        nl = mat.shape[1] // 2
        self.left, self.lrows, self.lends = _prefix_tree(mat[:, :nl], balanced_only)
        self.right, self.rrows, self.rends = _prefix_tree(mat[:, nl:], balanced_only)
        # the imbalance meets with offset 0, every row with offsets in [-r, r]
        self.radii = [0] * balanced_only + [r] * mat.shape[0]

    def descend(self, depth, left, right, count):
        """Match the children of left prefixes `left` with those of their
        partners `right` over every completion of delta in product order.
        Returns the number of meeting (left, right) sign vector pairs, or the
        first pair: first delta, then smallest left index, then smallest
        last-row value, then smallest right index (None when there is none)."""
        vals, keys = self.left[depth]
        rvals, rkeys = self.right[depth]
        first = np.searchsorted(keys, left * len(vals))
        size = np.searchsorted(keys, (left + 1) * len(vals)) - first
        child = np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())
        col = vals[keys[child] % len(vals)]
        base = np.repeat(right, size) * len(rvals)
        rad = self.radii[depth]
        if depth == len(self.radii) - 1:
            # the last row: each left leaf meets a range of right leaves
            a = np.searchsorted(rkeys, base + np.searchsorted(rvals, -rad - col, side="left"))
            b = np.searchsorted(rkeys, base + np.searchsorted(rvals, rad - col, side="right"))
            if count:
                lmult = self.lends[child + 1] - self.lends[child]
                return int((lmult * (self.rends[b] - self.rends[a])).sum())
            k = np.where(a < b, self.lrows[child], np.iinfo(np.intp).max).argmin()
            return (int(self.lrows[child[k]]), int(self.rrows[a[k]])) if a[k] < b[k] else None
        # a meeting right value v gives delta = v + col, which bounds the range
        lo = max(-rad, int(rvals[0] + col.min()))
        hi = min(rad, int(rvals[-1] + col.max()))
        total = 0
        for delta in range(lo, hi + 1):
            sub_left, sub_right = self._match(depth, child, base, delta - col)
            if not sub_left.size:
                continue
            sub = self.descend(depth + 1, sub_left, sub_right, count)
            if count:
                total += sub
            elif sub is not None:
                return sub
        return total if count else None

    def _match(self, depth, child, base, want):
        """The left children that have a right partner (parent key `base`,
        field value `want`), and its id; apart from descend so that its
        temporaries are freed before the recursion goes deeper."""
        vals, keys = self.right[depth]
        rank = np.minimum(np.searchsorted(vals, want), len(vals) - 1)
        key = base + rank
        pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        hit = np.flatnonzero((vals[rank] == want) & (keys[pos] == key))
        return child[hit], pos[hit]
