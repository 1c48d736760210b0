"""Exact discrepancy solvers: blocked exhaustive enumeration, solution
counting over balanced sign vectors, and a meet-in-the-middle feasibility
test for wider instances.

Enumeration order is lexicographic with '+' before '-', and the exhaustive
search fixes the first coordinate to +1 (u and -u give the same value), so
the reported witness is the lexicographically smallest optimal vector with
u_1 = +1 on every platform.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

import numpy as np

from .errors import CapacityError, ParameterError
from .ensembles import IntMatrix
from .rng import Stream, derive_key, mix64

EXHAUSTIVE_CAP = 26
MITM_N_CAP = 40
MITM_M_CAP = 10
_BLOCK_BITS = 16
_PROBE_TRIES = 512
_PROBE_CHUNK = 32
# |u . row| <= max entry * n bounds every partial sum, packed key field and
# probe value; below this the int64 arithmetic cannot wrap
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


@lru_cache(maxsize=64)
def _sign_table(k):
    """All sign assignments of width k: row i has column j = +1 iff bit
    (k-1-j) of i is 0, so ascending i is lexicographic with '+' < '-'.
    Returns (signs int8 array, count of -1 entries per row)."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int64)
    idx = np.arange(1 << k, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8), bits.sum(axis=1)


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


def disc_exhaustive(A: IntMatrix, balanced_only=False, cap=EXHAUSTIVE_CAP) -> SolveResult:
    """Exact discrepancy by enumeration of all sign vectors with u_1 = +1."""
    n, m = A.n, A.m
    if n > cap:
        raise CapacityError(f"exhaustive search capped at n={cap}, got n={n}")
    if balanced_only and n % 2:
        raise ParameterError("balanced vectors require even n")
    mat = _int64_matrix(A)
    lo_w = min(n - 1, _BLOCK_BITS)
    hi_w = n - 1 - lo_w
    lo_signs, lo_neg = _sign_table(lo_w)
    hi_signs, hi_neg = _sign_table(hi_w)
    lo_part = lo_signs.astype(np.int64) @ mat[:, 1 + hi_w :].T  # (2^lo, m)
    col1 = mat[:, 0]
    need_neg = n // 2 if balanced_only else None

    best_val = None
    best_idx = None
    big = np.iinfo(np.int64).max
    for hi_idx in range(1 << hi_w):
        base = col1 + (hi_signs[hi_idx].astype(np.int64) @ mat[:, 1 : 1 + hi_w].T)
        vals = np.abs(base[None, :] + lo_part).max(axis=1)
        if balanced_only:
            mask = lo_neg == (need_neg - hi_neg[hi_idx])
            if not mask.any():
                continue
            vals = np.where(mask, vals, big)
        k = int(vals.argmin())
        v = int(vals[k])
        if best_val is None or v < best_val:
            best_val = v
            best_idx = (hi_idx, k)
    if best_val is None:
        raise ParameterError("no balanced vector exists for this n")
    hi_idx, lo_idx = best_idx
    signs = (1,) + _signs_of_index(hi_idx, hi_w) + _signs_of_index(lo_idx, lo_w)
    return SolveResult(best_val, SignVector(signs, balanced_only))


def count_solutions(A: IntMatrix, r, cap=EXHAUSTIVE_CAP, mitm_caps=None) -> int:
    """Exact number of balanced u with ||Au||_inf <= r."""
    n = A.n
    if n % 2:
        raise ParameterError("balanced vectors require even n")
    if n <= cap:
        return _count_exhaustive(A, r)
    return _mitm(A, r, balanced_only=True, caps=mitm_caps, count=True)[2]


def _count_exhaustive(A, r):
    # u_1 = +1 covers half the balanced domain; u <-> -u doubles the count.
    n = A.n
    mat = _int64_matrix(A)
    lo_w = min(n - 1, _BLOCK_BITS)
    hi_w = n - 1 - lo_w
    lo_signs, lo_neg = _sign_table(lo_w)
    hi_signs, hi_neg = _sign_table(hi_w)
    lo_part = lo_signs.astype(np.int64) @ mat[:, 1 + hi_w :].T
    col1 = mat[:, 0]
    total = 0
    for hi_idx in range(1 << hi_w):
        base = col1 + (hi_signs[hi_idx].astype(np.int64) @ mat[:, 1 : 1 + hi_w].T)
        vals = np.abs(base[None, :] + lo_part).max(axis=1)
        mask = lo_neg == (n // 2 - hi_neg[hi_idx])
        total += int((mask & (vals <= r)).sum())
    return 2 * total


def disc_exists_mitm(A: IntMatrix, r, balanced_only=False, caps=None):
    """Feasibility of ||Au||_inf <= r via meet in the middle.

    Returns (feasible, witness or None).  Column halves are enumerated
    separately; left signatures (per-row partial sums, plus the half
    imbalance when balanced_only) are indexed sorted, and right signatures
    are matched by per-coordinate range queries.  A short deterministic
    probe of random candidate vectors runs first so feasible instances in
    solution-rich regimes exit early; the full scan is the proof of
    infeasibility.
    """
    found, witness, _ = _mitm(A, r, balanced_only, caps=caps, count=False)
    return found, witness


def _mitm_budget_check(A, caps):
    n_cap, m_cap = caps if caps else (MITM_N_CAP, MITM_M_CAP)
    if A.n > n_cap or A.m > m_cap:
        half = (A.n + 1) // 2
        est = (1 << half) * (A.m + 2) * 8 * 2
        raise CapacityError(
            f"mitm capped at n<={n_cap}, m<={m_cap} (got {A.n}x{A.m})",
            estimate=f"~{est / 1e6:.0f} MB of signatures",
        )


def _half_sums(mat, cols):
    k = len(cols)
    signs, neg = _sign_table(k)
    sums = signs.astype(np.int64) @ mat[:, cols].T  # (2^k, m)
    imb = k - 2 * neg
    return sums, imb


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


def _mitm(A, r, balanced_only, caps=None, count=False):
    n, m = A.n, A.m
    if r < 0:
        raise ParameterError("radius must be >= 0")
    if balanced_only and n % 2:
        raise ParameterError("balanced vectors require even n")
    _mitm_budget_check(A, caps)
    mat = _int64_matrix(A)

    if not count:
        if r >= max_abs_row_sum(A):
            # any vector lands inside [-r, r] on every row
            signs = tuple(1 if j % 2 == 0 else -1 for j in range(n))
            return True, SignVector(signs, balanced_only), None
        hit = _probe(A, r, balanced_only, mat)
        if hit is not None:
            return True, hit, None

    nl = n // 2
    left_cols, right_cols = list(range(nl)), list(range(nl, n))
    ls, li = _half_sums(mat, left_cols)
    rs, ri = _half_sums(mat, right_cols)

    # field width for packed signatures; falls back to tuple keys when the
    # packed key would not fit 63 bits
    bound = int(max(np.abs(ls).max(initial=0), np.abs(rs).max(initial=0))) + r + 1
    bound = max(bound, max(nl, n - nl) + 1)
    bits = int(2 * bound).bit_length() + 1
    fields = m + (1 if balanced_only else 0)
    if fields * bits <= 63:
        return _mitm_packed(ls, li, rs, ri, r, balanced_only, bound, bits, count, n)
    return _mitm_tuples(ls, li, rs, ri, r, balanced_only, count, n)


def _pack_right(rs, ri, balanced_only, bound, bits):
    key = np.zeros(rs.shape[0], dtype=np.int64)
    if balanced_only:
        key = ri.astype(np.int64) + bound
    for i in range(rs.shape[1]):
        key = (key << bits) | (rs[:, i] + bound)
    return key


def _mitm_packed(ls, li, rs, ri, r, balanced_only, bound, bits, count, n):
    m = ls.shape[1]
    right_key = _pack_right(rs, ri, balanced_only, bound, bits)
    order = np.argsort(right_key, kind="stable")
    right_sorted = right_key[order]

    # high fields: imbalance (exact) and coordinates 0..m-2 (offset delta);
    # the last coordinate is the low field and is matched by range
    base = np.zeros(ls.shape[0], dtype=np.int64)
    if balanced_only:
        base = (-li).astype(np.int64) + bound
    total = 0
    first_hit = None
    for delta in product(range(-r, r + 1), repeat=m - 1):
        key = base.copy()
        for i in range(m - 1):
            key = (key << bits) | (delta[i] - ls[:, i] + bound)
        lo = (key << bits) | (-r - ls[:, m - 1] + bound)
        hi = (key << bits) | (r - ls[:, m - 1] + bound)
        a = np.searchsorted(right_sorted, lo, side="left")
        b = np.searchsorted(right_sorted, hi, side="right")
        if count:
            total += int((b - a).sum())
        else:
            hits = np.nonzero(a < b)[0]
            if hits.size:
                lidx = int(hits[0])
                ridx = int(order[a[lidx]])
                first_hit = (lidx, ridx)
                break
    if count:
        return total > 0, None, total
    if first_hit is None:
        return False, None, 0
    lidx, ridx = first_hit
    nl = n // 2
    signs = _signs_of_index(lidx, nl) + _signs_of_index(ridx, n - nl)
    return True, SignVector(signs, balanced_only), None


def _mitm_tuples(ls, li, rs, ri, r, balanced_only, count, n):
    m = ls.shape[1]
    work = ls.shape[0] * (2 * r + 1) ** m
    if work > 5 * 10**7:
        raise CapacityError(
            "tuple-key mitm fallback too large",
            estimate=f"~{work:.2e} box lookups",
        )
    index = {}
    for j in range(rs.shape[0]):
        key = (int(ri[j]),) if balanced_only else ()
        key = key + tuple(int(v) for v in rs[j])
        index.setdefault(key, []).append(j)
    total = 0
    for i in range(ls.shape[0]):
        head = (-int(li[i]),) if balanced_only else ()
        lrow = tuple(int(v) for v in ls[i])
        for delta in product(range(-r, r + 1), repeat=m):
            key = head + tuple(delta[t] - lrow[t] for t in range(m))
            js = index.get(key)
            if not js:
                continue
            if count:
                total += len(js)
            else:
                nl = n // 2
                signs = _signs_of_index(i, nl) + _signs_of_index(js[0], n - nl)
                return True, SignVector(signs, balanced_only), None
    return total > 0, None, total
