"""Deterministic counter-based random streams.

Everything random in this package draws from SplitMix64 streams.  A stream's
state is one 64-bit counter advanced by the golden-ratio increment, and its
k-th output is mix64(key + k * golden), so child streams are split off by
hashing (key, index) pairs, substreams do not depend on evaluation order or
thread count, and a run of outputs is one numpy uint64 block.  numpy is
imported at the first such block (see lazy.py), so a process that draws only
short runs, as the exact Stein checks do, never loads it.  Integer draws
are exact rejection samples, masked out of a block when the bound is fixed
(Stream.below_many) and walked with the Fisher-Yates swaps they drive when
it varies (Stream.shuffles); so a sample from integer weights (a_0, ..., a_k)
hits index i with probability exactly a_i / sum(a).
"""

from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate

from .lazy import LazyNumpy

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def _build_scalars(numpy):
    """The numpy uint64 scalars of the block arithmetic, built once, when
    numpy loads: building them per call costs more than a small block."""
    global _U_GOLDEN, _U_M1, _U_M2, _U27, _U30, _U31
    _U_GOLDEN, _U_M1, _U_M2, _U27, _U30, _U31 = map(numpy.uint64, (_GOLDEN, _M1, _M2, 27, 30, 31))


np = LazyNumpy(globals(), _build_scalars)

# up to this many outputs, mix64 on Python ints beats one numpy block
_SMALL_RUN = 12


def _mix64_block(z):
    """mix64 on a uint64 array, in place; array arithmetic wraps mod 2**64."""
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z


@lru_cache(maxsize=1024)
def _plan(b):
    """(words, shift, limit) of a rejection draw below b: an attempt joins
    `words` outputs and is accepted when below limit = b << shift."""
    if b < 1:
        raise ValueError("below() requires n >= 1")
    k = (b - 1).bit_length()
    words = (k + 63) >> 6
    shift = (words << 6) - k
    return words, shift, b << shift


@lru_cache(maxsize=256)
def _fisher_yates_plans(n, w):
    """(i, shift, n - i) of each draw below n - i of a w-entry Fisher-Yates
    prefix that takes an output: all but a final bound of 1."""
    plans = (_plan(n - i) for i in range(w))  # ValueError when w > n
    return tuple((i, shift, n - i) for i, (words, shift, _) in enumerate(plans) if words)


def _peek(state, skip, count):
    """Outputs skip+1 .. skip+count after the counter `state`, as a uint64 array."""
    z = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(state)
    return _mix64_block(z)


def _join(words):
    """The int whose 64-bit words, high first, are `words`."""
    return reduce(lambda x, word: x << 64 | word, words)


def derive_key(key: int, *path: int) -> int:
    """Derive a child stream key from a master key and an index path."""
    h = key & MASK64
    for idx in path:
        h = mix64(h + _GOLDEN)
        h = mix64(h ^ (idx & MASK64))
    return h


class Stream:
    """SplitMix64 generator with exact integer helpers."""

    __slots__ = ("_state",)

    def __init__(self, key: int):
        self._state = key & MASK64

    def next64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return mix64(self._state)

    def block(self, count: int):
        """The next `count` outputs as a uint64 array; same as `count` next64()."""
        out = _peek(self._state, 0, count)
        self._state = (self._state + count * _GOLDEN) & MASK64
        return out

    def below_many(self, b: int, count: int) -> list:
        """`count` uniform integers on [0, b), exact via rejection.

        An attempt joins ceil(k/64) outputs, high word first, keeps their top
        k bits (k = bit length of b - 1) and is accepted when below b.  Each
        attempt stands on its own outputs, so the draws and the end state are
        those of `count` below(b) calls.  A block holds the attempts that the
        draws still needed take on average (need * 2^k / b, rounded down); a
        numpy block accepts by the high word, settles a tie with the limit's
        exactly and joins only the accepted attempts into ints."""
        words, shift, limit = _plan(b)
        if not words:
            return [0] * count
        out, taken = [], 0
        while len(out) < count:
            need = count - len(out)
            size = words * ((need << (words << 6)) // limit)  # need * 2^k / b attempts
            if size > _SMALL_RUN:
                z = _peek(self._state, taken, size)
                high = z[::words]
                top = (limit - 1) >> ((words - 1) << 6)  # the largest accepted high word
                ok = high <= top
                if words > 1:  # a tie with the limit's high word: 2^-64 per attempt
                    for i in (high == top).nonzero()[0].tolist():
                        ok[i] = _join(z[i * words : (i + 1) * words].tolist()) < limit
                hits = ok.nonzero()[0][:need]
                size = words * (int(hits[-1]) + 1) if len(hits) == need else size
                if words == 1:
                    out += (z[hits] >> shift).tolist()
                else:  # each accepted attempt's words as one big-endian bytes object
                    rows = z.reshape(-1, words)[hits].astype(">u8").view(f"V{words << 3}")
                    out += [int.from_bytes(x, "big") >> shift for x in rows.ravel().tolist()]
            else:
                z = [mix64(self._state + (taken + j) * _GOLDEN) for j in range(1, size + 1)]
                for i in range(0, size, words):
                    x = z[i] if words == 1 else _join(z[i : i + words])
                    if x < limit:
                        out.append(x >> shift)
                        if len(out) == count:
                            size = i + words
                            break
            taken += size
        self._state = (self._state + taken * _GOLDEN) & MASK64
        return out

    def below(self, n: int) -> int:
        """Uniform integer on [0, n), exact via rejection."""
        return self.below_many(n, 1)[0]

    def shuffles(self, items, w: int):
        """Endless uniform shuffles of `items`, drawn one after another by
        Fisher-Yates with the draws of below(n - i), n = len(items): yields a
        fresh list of the items after each shuffle's first w swaps, so its
        first w entries are a uniform w-prefix.

        The outputs are read ahead of the state at the first shuffle, so the
        stream takes no other draw until the last shuffle is read; before each
        yield the state moves past that shuffle's outputs, to where one draw
        at a time leaves it.  Each block is shifted once per distinct shift
        (at most two when w <= n/2) and a draw tests x >> shift < b."""
        items = list(items)
        plans = _fisher_yates_plans(len(items), w)
        tops = {shift: [] for _, shift, _ in plans}  # the read outputs' tops, per shift
        draws = [(i, tops[shift], b) for i, shift, b in plans]
        start, have = self._state, 0  # outputs read ahead of start
        dropped = pos = 0  # outputs dropped from the tops; the next one's place
        while True:
            arr = items[:]
            first = pos
            try:
                for i, top, b in draws:
                    x = top[pos]
                    pos += 1
                    while x >= b:
                        x = top[pos]
                        pos += 1
                    j = i + x
                    arr[i], arr[j] = arr[j], arr[i]
            except IndexError:
                # keep this shuffle's outputs, read as many again (at first
                # 1.5 per draw) and run the shuffle again from its start
                more = max(have, len(plans) * 3 // 2)
                z = _peek(start, have, more)
                for shift, top in tops.items():
                    del top[:first]
                    top += (z >> np.uint64(shift)).tolist()
                have += more
                dropped += first
                pos = 0
                continue
            self._state = (start + (dropped + pos) * _GOLDEN) & MASK64
            yield arr

    def shuffle_prefix(self, n: int, w: int) -> list:
        """First w entries of a uniform permutation of range(n) (Fisher-Yates)."""
        return next(self.shuffles(range(n), w))[:w]


class IntegerTable:
    """Inversion sampler over nonnegative integer weights; draws are exact."""

    __slots__ = ("cum", "total")

    def __init__(self, weights):
        if not weights or min(weights) < 0:
            raise ValueError("weights must be nonempty and nonnegative")
        self.cum = list(accumulate(weights))
        self.total = self.cum[-1]
        if self.total <= 0:
            raise ValueError("total weight must be positive")

    def draw_many(self, stream: Stream, count: int) -> list:
        cum = self.cum
        return [bisect_right(cum, x) for x in stream.below_many(self.total, count)]

    def draw(self, stream: Stream) -> int:
        return bisect_right(self.cum, stream.below(self.total))
