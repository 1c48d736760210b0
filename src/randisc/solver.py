"""Exact discrepancy solvers: blocked exhaustive enumeration, solution
counting over balanced sign vectors, and a meet-in-the-middle feasibility
test for wider instances.

Enumeration order is lexicographic with '+' before '-', and the exhaustive
search fixes the first coordinate to +1 (u and -u give the same value), so
the reported witness is the lexicographically smallest optimal vector with
u_1 = +1 on every platform.
"""

from dataclasses import dataclass
from itertools import accumulate, compress, islice
from math import comb
from operator import itemgetter

from . import costs
from .errors import CapacityError, ParameterError
from .ensembles import IntMatrix
from .lazy import LazyNumpy
from .rng import Stream, derive_key, mix64

np = LazyNumpy(globals())

# count_solutions' default cap, past which it counts by the join; perfbench
# reads it and sets it to 0 in checks.  Bernoulli(1/2) at seed 1, ms per
# count, blocks / join (2-core box, process time, best of three; the
# blocks at cap=costs.ENUMERATION_CAP, every count equal):
#   n   r   m=10         m=12         m=20         m=50
#   22  3   1.9 / 26.0   2.0 / 32.7   2.3 / 53.5   4.2 / 81.7
#   26  1   8.6 / 2.4    9.2 / 2.7    12.5 / 3.8   30.7 / 6.3
#   26  2   8.5 / 27.1   9.1 / 34.5   12.5 / 44.4  31.3 / 54.6
#   26  3   8.3 / 130    9.4 / 184    12.7 / 316   30.9 / 496
# The join leads at r = 1 and trails 14-25x at r = 3 from n = 22 on.  The
# route reads rows alone: it sends every m <= 10 count past the cap to the
# join, r = 3 included, and every m > 10 count up to the enumeration cap to
# the blocks, r = 1 included
EXHAUSTIVE_CAP = 16
BLOCKS_FASTER_PAST_M = 10  # count_solutions counts more rows by the blocks, to the enumeration cap
_BLOCK_BITS = 16
_PROBE_TRIES = 512
# the most units of work one count step takes (see _count_join): one per
# left child for its search, and above the last depth one per pair it can
# keep.  A step's and a frame's arrays take about 180 bytes a unit: the
# join's own peak over its built trees (tracemalloc) at 2^10 / 2^12 / 2^15 /
# 2^18 / 2^20 was 0.3 / 0.9 / 5.8 / 37 / 118 MiB for a balanced r = 2 count
# of Bernoulli(1/2) at m = 10, n = 30, and 0.2 / 0.7 / 4.4 / 29 / 95 MiB at
# m = 10, n = 42, r = 1.  Time is about flat from 2^15 to 2^18 and up to 4x
# worse below (ms, process time, 2-core box, two runs, at 2^10 / 2^12 /
# 2^15 / 2^18): solve_count's five seed-1 counts 22-25 / 10 / 9-10 / 8-9;
# that m = 10, n = 30 count 982-1020 / 391-424 / 232-289 / 298-302; Poisson
# rate 16, m = 6, n = 28, r = 1: 14 / 7-11 / 3.5-3.7 / 3.8-4.6
_COUNT_BATCH = 1 << 15
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


def _signed_sums(c, dtype):
    """u . c_i for every sign vector u and row c_i of the (m, k) int64
    matrix c, as an (m, 2^k) array of dtype, which must hold every such sum:
    column i gives column j the sign -1 iff bit (k-1-j) of i is 1, so
    ascending i is lexicographic with '+' < '-'.  Built in place by doubling
    over the columns in reverse, all in dtype: twice a column may wrap in
    it, but every sum fits, so the wrapped subtraction is exact."""
    out = np.empty((c.shape[0], 1 << c.shape[1]), dtype)
    out[:, 0] = c.sum(axis=1)
    h = 1
    for v in (2 * c.T[::-1]).astype(dtype):
        np.subtract(out[:, :h], v[:, None], out=out[:, h : 2 * h])
        h *= 2
    return out


def _signs_of_index(idx, k):
    return tuple(1 - 2 * ((idx >> (k - 1 - j)) & 1) for j in range(k))


def _check_int64_sums(A):
    """CapacityError where int64 sums of A's entries could wrap."""
    top = max(A.entries, default=0)
    if top * A.n >= _INT64_SUM_LIMIT:
        raise CapacityError(
            f"entries up to {top} at n={A.n} could overflow int64 sums",
            estimate="max entry * n must stay below 2**62",
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
    costs.check_budget("exhaustive search", n, m, costs.blocks_peak(m, lo_w), costs.ENUMERATION_CAP)
    dtype = np.min_scalar_type(-1 - int(mat.sum(axis=1).max()))
    hi_w = n - 1 - lo_w
    lo_part = _signed_sums(mat[:, 1 + hi_w :], dtype)
    hi_part = _signed_sums(mat[:, 1 : 1 + hi_w], dtype)
    hi_part += mat[:, :1]
    if balanced_only:
        # each half's sign sum: 2 * (its '+' signs) - its width
        lo_sum, hi_sum = (_signed_sums(np.ones((1, w), np.int64), np.int64)[0] for w in (lo_w, hi_w))
        groups = {}  # low '+' count -> (low indices, their low part), built on first use
    for hi_idx in range(1 << hi_w):
        lo_idx, part = None, lo_part
        if balanced_only:
            need = n // 2 - 1 - (int(hi_sum[hi_idx]) + hi_w) // 2  # low '+' signs left
            if not 0 <= need <= lo_w:
                continue
            if need not in groups:
                idx = np.flatnonzero(lo_sum == 2 * need - lo_w)
                groups[need] = idx, lo_part.take(idx, axis=1)  # C order, as lo_part
            lo_idx, part = groups[need]
        sums = part + hi_part[:, hi_idx, None]
        yield hi_idx, lo_idx, np.abs(sums, out=sums).max(axis=0)


def disc_exhaustive(A: IntMatrix, balanced_only=False) -> SolveResult:
    """Exact discrepancy by enumeration of the sign vectors with u_1 = +1,
    block by block in lexicographic order.  |u . row_k| = R_k (mod 2) for
    the row sum R_k, so no value is below the parity floor max_k (R_k mod
    2): the search stops at the first block that meets it, since a later
    vector could only tie and a tie keeps the earlier one."""
    if balanced_only and A.n % 2:
        raise ParameterError("balanced vectors require even n")
    _check_int64_sums(A)
    mat = A.to_numpy()
    floor = int((mat.sum(axis=1) % 2).max())
    best_val = best_idx = None
    for hi_idx, lo_idx, vals in _exhaustive_blocks(mat, balanced_only):
        k = int(vals.argmin())
        if best_val is None or vals[k] < best_val:
            best_val = int(vals[k])
            best_idx = (hi_idx, k if lo_idx is None else int(lo_idx[k]))
            if best_val == floor:
                break
    if best_val is None:
        raise ParameterError("no balanced vector exists for this n")
    hi_idx, lo_idx = best_idx
    lo_w = min(A.n - 1, _BLOCK_BITS)
    signs = (1,) + _signs_of_index(hi_idx, A.n - 1 - lo_w) + _signs_of_index(lo_idx, lo_w)
    return SolveResult(best_val, SignVector(signs, balanced_only))


def count_solutions(A: IntMatrix, r, cap=EXHAUSTIVE_CAP) -> int:
    """Exact number of balanced u with ||Au||_inf <= r: by the
    meet-in-the-middle count join (see _count_join) past `cap` columns, by
    the exhaustive blocks up to it, and up to costs.ENUMERATION_CAP for files
    of more than BLOCKS_FASTER_PAST_M rows, where the blocks are faster at
    r >= 2.  Both fix u_1 = +1, count half the domain and double: u and -u
    count together."""
    _check_radius(A, r, True)
    join = A.n > cap and (A.m <= BLOCKS_FASTER_PAST_M or A.n > costs.ENUMERATION_CAP)
    if join:
        costs.check_mitm(A.n, A.m)
    _check_int64_sums(A)
    if r >= max(A.row_sums()):
        # no |u . row| exceeds the largest row sum, so every balanced u counts
        return comb(A.n, A.n // 2)
    if join:
        return _scan(_distinct_rows(A), r, True, count=True)
    # u_1 = +1 covers half the balanced domain; u <-> -u doubles the count.
    blocks = _exhaustive_blocks(A.to_numpy(), balanced_only=True)
    return 2 * sum(int((vals <= r).sum()) for _, _, vals in blocks)


def disc_exists_mitm(A: IntMatrix, r, balanced_only=False):
    """Feasibility of ||Au||_inf <= r via meet in the middle.

    Returns (feasible, witness or None).  A short deterministic probe of
    random candidate vectors runs first (_probe) so feasible instances in
    solution-rich regimes exit early: each try is tested on packed integer
    row sums, so it stops at the try that hits.  The full scan is the proof
    of infeasibility.

    The full scan matches the per-row sums of the first n//2 columns' sign
    vectors (left) with those of the rest (right).  Each half is a tree of
    its distinct prefixes (see _prefix_tree): the half imbalance first when
    balanced_only, then rows 0..m-1.  At each depth a left prefix's
    partners among its right node's children form one run of them,
    ascending in the offset delta_k = (Au)_k, found by the expansion step
    that counts share (see _expand).  Depth first, in lexicographic order
    of the offsets in [-r, r] of rows k < m-1, the join walks these runs
    together on a stack of one frame per row, visiting only offsets that
    some pair meets; the last row's witness is read off the runs.  The
    witness is the first match by: delta, then left index, then the right
    half's last-row sum, then right index; a half's index reads its signs
    as binary with '-' = 1.  A count needs no order, so count_solutions
    joins the same trees breadth first instead (see _count_join).
    """
    _check_radius(A, r, balanced_only)
    costs.check_mitm(A.n, A.m)
    _check_int64_sums(A)
    if r >= max(A.row_sums()):
        # any vector lands inside [-r, r] on every row
        signs = tuple(1 if j % 2 == 0 else -1 for j in range(A.n))
        return True, SignVector(signs, balanced_only)
    hit = _probe(A, r, balanced_only)
    if hit is None:
        # only a probe miss reads the int64 array
        signs = _scan(_distinct_rows(A), r, balanced_only, count=False)
        if signs is None:
            return False, None
        hit = SignVector(signs, balanced_only)
    return True, hit


def _check_radius(A, r, balanced_only):
    """The checks of every solver call with a radius, made before any branch."""
    if r < 0:
        raise ParameterError("radius must be >= 0")
    if balanced_only and A.n % 2:
        raise ParameterError("balanced vectors require even n")


def _distinct_rows(A):
    """A's int64 array with repeats of rows 0..m-2 dropped (first
    occurrences, in order) and the last row kept last.  A repeat adds no
    constraint, and its offset equals its first occurrence's, so the scan's
    witness order (delta over rows 0..m-2, then the left index, then the last
    row's value) picks the same vector."""
    rows = A.rows()
    return np.array([*dict.fromkeys(rows[:-1]), rows[-1]], dtype=np.int64)


def _probe(A, r, balanced_only):
    """First of _PROBE_TRIES random sign vectors, in draw order, with
    ||Au||_inf <= r; None when every try misses.

    Tries come from one stream seeded by the matrix.  A balanced try puts
    +1 on the first n/2 entries of a uniform permutation (Stream.shuffles);
    a plain try puts +1 where the low bit of one output per coordinate is
    0, its outputs read ahead in blocks of 1, 2, 4, ... tries, the last cut
    to _PROBE_TRIES in all.  Each try is tested with a few int operations,
    so the probe stops at the try that hits.

    Column c is one int: row k's entry in a field of B bits at n + k B, and
    1 << c below them, so a try's '+' columns sum to every row's '+' sum S_k
    and the try's signs.  |2 S_k - R_k| <= r for the row sum R_k is
    lo_k <= S_k <= hi_k, with lo_k = ceil((R_k - r)/2) and hi_k =
    floor((R_k + r)/2) clamped to [0, R_k], which S_k never leaves.  A
    field starts at S_k - lo_k + G with G = 2^(B-1) > every R_k, so it
    stays in [0, 2G), and its top (guard) bit tells S_k >= lo_k; once all
    are set, taking hi_k - lo_k + 1 off each field borrows from none, and a
    guard bit left set tells S_k > hi_k.
    """
    key = mix64(A.m)
    for v in A.entries:
        key = mix64(key ^ (v + 0x9E3779B97F4A7C15))
    stream = Stream(derive_key(key, r, int(balanced_only)))
    n, rows = A.n, list(dict.fromkeys(A.rows()))  # a repeated row tests nothing new
    sums = [sum(row) for row in rows]
    lo = [max(0, (s - r + 1) // 2) for s in sums]
    hi = [min(s, (s + r) // 2) for s in sums]
    if any(a > b for a, b in zip(lo, hi)):
        return None  # r = 0 and an odd row sum: no try can hit
    width = max(sums).bit_length() + 1
    guard = 1 << (width - 1)
    offs = range(n, n + len(rows) * width, width)
    cols = [1 << c for c in range(n)]
    for row, off in zip(rows, offs):
        cols = [col | v << off for col, v in zip(cols, row)]
    guards = sum(guard << off for off in offs)
    base = sum((guard - a) << off for a, off in zip(lo, offs))
    span = sum((b - a + 1) << off for a, b, off in zip(lo, hi, offs))
    if balanced_only:
        tries = map(itemgetter(slice(0, n // 2)), stream.shuffles(cols, n // 2))
    else:
        # block k holds 2^k tries, the last only the tries still needed
        one, blocks = np.uint64(1), range(_PROBE_TRIES.bit_length())
        sizes = (min(1 << k, _PROBE_TRIES + 1 - (1 << k)) for k in blocks)
        flags = ((stream.block(n * t) & one == 0).tobytes() for t in sizes)
        tries = (compress(cols, f[i : i + n]) for f in flags for i in range(0, len(f), n))
    for t in islice(tries, _PROBE_TRIES):
        s = sum(t, base)
        if (s & guards) == guards and not (s - span) & guards:
            return SignVector(tuple(1 if s >> c & 1 else -1 for c in range(n)), balanced_only)
    return None


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
        # the digits' bit ranges are disjoint, so each is or-ed into the
        # words it spans, cap bits at a time
        words = [0] * nwords
        for x, off in zip(digits, offs[1:]):
            w, shift = divmod(off, cap)
            x <<= shift
            while x:
                words[w] |= x & mask
                x >>= cap
                w += 1
        return words

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
    one stable LSD sort: each word, least significant first, takes k index
    bits below its digits and is sorted with np.sort.  The index bits make
    every key distinct, so the unstable sorts are stable where it matters; a
    later word's index bits hold the position in the sort before.  Leaves
    each word in the final order (word 0's index bits: the sign vector) and
    returns the sorted positions where a new digit tuple starts."""
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
    # index bit set; each word below is put in the final order through the
    # index bits of the word above
    z = words[-1]
    step = z[1:] > (z[:-1] | index_bits)
    for w in range(len(words) - 2, -1, -1):
        z = words[w] = words[w][(z & index_bits).view(np.intp)]
        step |= (z[1:] ^ z[:-1]) > index_bits
    return np.flatnonzero(np.append(True, step))


def _digit(words, lo, hi, k, cap, top):
    """Bits [lo, hi) of the packed digits, a digit at most top, in the
    smallest type that holds top: a piece from each word that holds some of
    them (words as _sort_words leaves them, taken at some positions)."""
    digit = np.zeros(len(words[0]), np.min_scalar_type(top))
    for w in range(lo // cap, -(-hi // cap)):
        a, b = max(lo, w * cap), min(hi, w * cap + cap)
        piece = (words[w] >> np.uint64(k + a - w * cap)).astype(digit.dtype)
        piece &= (1 << (b - a)) - 1
        digit |= piece << (a - lo)
    return digit


def _prefix_tree(cols, balanced_only, dtype, with_rows=False):
    """One half's fields (its sign sum when balanced_only, then each row's
    sum) as a tree of distinct prefixes, from one sort of its sign vectors
    (see _sort_words): each field's digit is read once from the sorted
    words at the leaves.  Returns (levels, rows, ends): levels[d] =
    (starts, values), where node i has field d's signed sum values[i] in
    dtype and parent p's children are the nodes [starts[p], starts[p + 1]),
    ascending in value.  Leaf i, a distinct full tuple, has multiplicity
    ends[i + 1] - ends[i] and, with_rows, smallest sign vector rows[i];
    rows is None otherwise."""
    k = cols.shape[1]
    entries = [[1] * k] * balanced_only + cols.tolist()
    tops = [sum(e) for e in entries]
    # field d's digit, the sum of its '+'-signed entries, takes key bits
    # [offs[d + 1], offs[d]), the first field most significant
    offs = list(accumulate([0] + [top.bit_length() for top in tops[::-1]]))[::-1]
    cap = 64 - k  # digit bits per word, above the index bits
    words = _packed_digits(entries, offs, cap)
    leaf = _sort_words(words, k)
    for w in range(len(words)):
        words[w] = words[w][leaf]  # each freed once taken at the leaves
    rows = (words[0] & np.uint64((1 << k) - 1)).view(np.intp) if with_rows else None
    # last field first, so each pops off the end of the list in O(1)
    fields = [_digit(words, lo, hi, k, cap, top) for top, lo, hi in zip(tops, offs[1:], offs)][::-1]
    del words  # the narrow fields take less, and each is freed after its level
    levels, new = [], leaf == 0  # leaves that start a node; the root: leaf 0
    for top in tops:
        field = fields.pop()
        start = new.copy()
        start[1:] |= field[1:] != field[:-1]
        child = np.flatnonzero(start)
        digit = field[child].astype(dtype)
        levels.append((np.append(np.flatnonzero(new[child]), len(child)), digit - (top - digit)))
        new = start
    return levels, rows, np.append(leaf, 1 << k)


def _scan(mat, r, balanced_only, count):
    """The full meet-in-the-middle scan: the number of sign vectors u with
    ||Au||_inf <= r (and zero sum when balanced_only), or the signs of the
    first one, by: delta in product order, then smallest left index, then
    smallest last-row value, then smallest right index (None when there is
    none).  Both halves' prefix trees (see _prefix_tree) are joined over
    matched (left node, right node) pairs, one depth per field, each pair
    expanded by the one step _expand.

    A count fixes u_1 = +1 and joins the other n - 1 columns, each depth's
    window shifted by column 0's part, then doubles: u <-> -u pairs off
    every counted vector, balanced or not (see _count_join).  The witness
    halves are the first n//2 columns and the rest, walked depth first on a
    stack of one frame per depth: a frame holds a depth's left children and
    each one's partner run [a, b), and the heads a at the smallest offset
    delta descend together."""
    n, fixed = mat.shape[1], int(count)
    nl = fixed + (n - fixed) // 2
    # the pair's imbalance meets -u_1 (0 for a witness), and row k's offset
    # meets [-r, r] less u_1's part; windows[d] = (lowest, highest)
    shift = (fixed * mat[:, 0]).tolist()
    windows = [(-fixed, -fixed)] * balanced_only + [(-r - c, r - c) for c in shift]
    cols = mat[:, fixed:]
    # every value sum lies within bound of 0, so the windows clip to bound + 1
    bound = int(cols.sum(axis=1).max(initial=cols.shape[1]))
    windows = [(max(low, -bound - 1), min(high, bound + 1)) for low, high in windows]
    if any(low > high for low, high in windows):
        return 0 if count else None  # column 0 alone takes some row past r
    dtype = np.min_scalar_type(-2 - bound)
    ltree, lrows, lends = _prefix_tree(cols[:, : nl - fixed], balanced_only, dtype, not count)
    rtree, rrows, rends = _prefix_tree(cols[:, nl - fixed :], balanced_only, dtype, not count)
    if count:
        return 2 * _count_join(ltree, lends, rtree, rends, windows)
    del lends, rends
    stack = []
    left = right = np.zeros(1, dtype=np.intp)
    while True:
        # the children of left nodes `left` and each one's partner run among
        # its pair's (`right`) children, ascending in value v and so in
        # offset delta = v + col
        depth = len(stack)
        lfirst, lsize = _ranges(ltree[depth][0], left)
        rfirst, rsize = _ranges(rtree[depth][0], right)
        child, col, a, b = _expand(ltree[depth], rtree[depth], windows[depth], lfirst, lsize, rfirst, rsize)
        if depth < len(windows) - 1:
            stack.append((child, col, a, b))
        else:
            k = np.where(a < b, lrows[child], np.iinfo(np.intp).max).argmin()
            if a[k] < b[k]:
                lsigns = _signs_of_index(int(lrows[child[k]]), nl)
                return lsigns + _signs_of_index(int(rrows[a[k]]), n - nl)
        # frames with no run left pop; the top one's runs walk together, in
        # ascending delta: the children whose head meets them at the
        # smallest delta descend with it, then only those heads advance
        while stack and not (live := np.flatnonzero(stack[-1][2] < stack[-1][3])).size:
            stack.pop()
        if not stack:
            return None
        child, col, a, b = stack[-1] = tuple(x[live] for x in stack[-1])
        delta = rtree[len(stack) - 1][1][a] + col
        hit = np.flatnonzero(delta == delta.min())
        del delta, live
        left, right = child[hit], a[hit]
        a[hit] += 1


def _children(first, size):
    """Every index in the ranges [first[i], first[i] + size[i]), in order."""
    return np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())


def _ranges(starts, nodes):
    """The child ranges (first, size) of `nodes` in a level with `starts`."""
    first = starts[nodes]
    return first, starts[nodes + 1] - first


def _expand(llevel, rlevel, window, lfirst, lsize, rfirst, rsize):
    """The expansion step of both joins at one depth (its levels and
    window): for pairs whose left children are the ranges [lfirst[i],
    lfirst[i] + lsize[i]) and right children [rfirst[i], rfirst[i] +
    rsize[i]), returns every left child in order, its value and its partner
    run [a, b): the right children of its pair whose value sum with it meets
    the window.  A range ascends in value, so the partners are one run, and
    _cut finds both ends; a node's children are distinct values of one
    parity, so the upper end lies within (high - low) // 2 + 1 of the lower,
    r + 1 at a row."""
    (_, lvals), (_, rvals) = llevel, rlevel
    left = _children(lfirst, lsize)
    first, size = np.repeat(rfirst, lsize), np.repeat(rsize, lsize)
    width, end = int(size.max(initial=0)), first + size
    del size
    value = lvals[left]
    low, high = window
    a = _cut(rvals, first, end, value, low - 1, width)
    return left, value, a, _cut(rvals, a, end, value, high, min(width, (high - low) // 2 + 1))


def _count_join(ltree, lends, rtree, rends, windows):
    """The number of (left, right) pairs of sign vectors whose field sums
    meet every window, from the halves' prefix trees and leaf ends (see
    _prefix_tree): breadth first over matched (left node, right node) pairs,
    in no offset order.

    A frame holds matched pairs of one depth and the ranges of their
    children.  A step takes the top frame's next left children, each with
    its pair's right range: at least one, and at most _COUNT_BATCH units of
    work in all (see frame), and expands them (see _expand).  The runs'
    pairs make the next frame, or at the last depth each left multiplicity
    times its run's right multiplicity is added to the total.  So no step or
    frame outgrows _COUNT_BATCH units or one left child's, and the join
    holds at most one frame per depth."""
    lmult, last = np.diff(lends), len(windows) - 1
    # a run holds at most `most` right children (see _expand); rends[i]
    # counts the right sign vectors before leaf i
    most = [(high - low) // 2 + 1 for low, high in windows]

    def frame(depth, left, right):
        # the pairs' children at depth, and the running units of work of
        # their left children: one for its search, and above the last depth
        # one for each pair its run can keep
        lfirst, lsize = _ranges(ltree[depth][0], left)
        rfirst, rsize = _ranges(rtree[depth][0], right)
        unit = np.ones_like(rsize) if depth == last else 1 + np.minimum(rsize, most[depth])
        ends = np.zeros(len(left) + 1, np.intp)
        np.cumsum(lsize * unit, out=ends[1:])
        return [depth, lfirst, lsize, rfirst, rsize, unit, ends, 0, 0]

    total, root = 0, np.zeros(1, np.intp)
    frames = [frame(0, root, root)]
    while frames:
        # the step starts at left child j of pair p and ends before left
        # child k of pair q, at least one later
        top = frames[-1]
        depth, lfirst, lsize, rfirst, rsize, unit, ends, p, j = top
        at = ends[p] + j * unit[p] + _COUNT_BATCH
        q = int(np.searchsorted(ends, at, "right")) - 1
        k = 0 if q == len(lsize) else int((at - ends[q]) // unit[q])
        if (q, k) <= (p, j):
            q, k = (p, j + 1) if j + 1 < lsize[p] else (p + 1, 0)
        if q < len(lsize):
            top[-2:] = q, k
        else:
            frames.pop()
        part = slice(p, q + (k > 0))
        first, size = lfirst[part].copy(), lsize[part].copy()
        if k:
            size[-1] = k
        first[0] += j
        size[0] -= j
        left, _, a, b = _expand(ltree[depth], rtree[depth], windows[depth], first, size, rfirst[part], rsize[part])
        del first, size
        if depth == last:
            total += int(np.dot(lmult[left], rends[b] - rends[a]))
            continue
        b -= a
        left = np.repeat(left, b)
        if left.size:
            frames.append(frame(depth + 1, left, _children(a, b)))
    return total


def _cut(vals, first, end, add, limit, width):
    """For each i, the first j in [first[i], end[i]) with vals[j] + add[i] >
    limit, or end[i], where it lies at most width past first[i] and each
    range ascends in vals: a bisection of every range at once, stepping
    2^b, ..., 2, 1 past the last index known to be at or below limit.  A
    left and a right value at one depth sum to at most the bound of _scan,
    so a step that reads past a range's end (clipped to vals) cannot
    overflow."""
    pos = first - 1
    for b in reversed(range(width.bit_length())):
        at = pos + (1 << b)
        ok = at < end
        ok &= vals.take(at, mode="clip") + add <= limit
        pos += ok << b
    return pos + 1
