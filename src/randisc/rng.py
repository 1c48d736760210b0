"""Deterministic counter-based random streams.

Everything random in this package draws from SplitMix64 streams.  A stream's
state is one 64-bit counter advanced by the golden-ratio increment, and its
k-th output is mix64(key + k * golden), so child streams can be split off by
hashing (key, index) pairs, per-row and per-trial substreams are reproducible
regardless of evaluation order or thread count, and a run of outputs can be
computed at once as a numpy uint64 block.  Integer draws use rejection
sampling, which makes every discrete draw *exact*: a sample from rational
weights (a_0, ..., a_k) hits index i with probability exactly a_i / sum(a).
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np

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


# numpy scalars built once: building them per call costs more than a small block
_U_GOLDEN, _U_M1, _U_M2 = (np.uint64(v) for v in (_GOLDEN, _M1, _M2))
_U27, _U30, _U31 = (np.uint64(v) for v in (27, 30, 31))
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
    # x < b << shift tests the top k bits of x against b
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


def _ahead(state, skip, count):
    """_peek as a list of ints; short runs skip numpy, which costs more there."""
    if count > _SMALL_RUN:
        return _peek(state, skip, count).tolist()
    z = state + skip * _GOLDEN
    return [mix64(z + k * _GOLDEN) for k in range(1, count + 1)]


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

    def below_many(self, bounds) -> list:
        """Uniform integers on [0, b) for each b in the sequence `bounds`.

        Exact via rejection, walking the outputs in stream order: an attempt
        at bound b joins ceil(k/64) outputs, high word first, keeps their top
        k bits (k = bit length of b - 1) and is accepted when below b.  So a
        bound of 1 takes no output, and each draw takes the outputs one
        below(b) call would take; the state ends where those calls leave it.
        """
        out = []
        outputs = []
        have = pos = 0
        plans = {}
        for b in bounds:
            plan = plans.get(b)
            if plan is None:
                plan = plans[b] = _plan(b)
            words, shift, limit = plan
            while True:
                end = pos + words
                if end > have:
                    # about 1.5 attempts per draw left; each refill at
                    # least doubles the total
                    need = (len(bounds) - len(out)) * words * 3 // 2
                    more = max(end - have, have, need)
                    outputs += _ahead(self._state, have, more)
                    have += more
                if words == 1:
                    x = outputs[pos]
                else:
                    x = 0
                    for word in outputs[pos:end]:
                        x = (x << 64) | word
                pos = end
                if x < limit:
                    break
            out.append(x >> shift)
        self._state = (self._state + pos * _GOLDEN) & MASK64
        return out

    def below(self, n: int) -> int:
        """Uniform integer on [0, n), exact via rejection."""
        return self.below_many((n,))[0]

    def shuffles(self, items, w: int):
        """Endless uniform shuffles of `items`, drawn one after another by
        Fisher-Yates with the draws of below(n - i), n = len(items): yields a
        fresh list of the items after each shuffle's first w swaps, so its
        first w entries are a uniform w-prefix.

        The outputs are read ahead of the state at the first shuffle, and the
        state moves past each shuffle's outputs before it is yielded, so it
        is where the shuffles' below() draws one at a time leave it; the
        stream takes no other draw until the last shuffle is read.  A draw
        below b = n - i tests the top k bits of an output, x >> shift < b,
        which is below_many's test x < b << shift: numpy shifts each block of
        outputs once per distinct shift (at most two when w <= n/2), so the
        walk compares small ints."""
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
        if not weights or any(v < 0 for v in weights):
            raise ValueError("weights must be nonempty and nonnegative")
        self.cum = list(accumulate(weights))
        self.total = self.cum[-1]
        if self.total <= 0:
            raise ValueError("total weight must be positive")

    def draw_many(self, stream: Stream, count: int) -> list:
        cum = self.cum
        return [bisect_right(cum, x) for x in stream.below_many([self.total] * count)]

    def draw(self, stream: Stream) -> int:
        return self.draw_many(stream, 1)[0]
