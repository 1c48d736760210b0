"""Reference checks that share no code with randisc: plain Python integers
and Fractions over the matrices, specs and parameters the workloads feed in."""

from fractions import Fraction
from itertools import combinations
from math import comb


def _rows(A):
    return [A.entries[i * A.n : (i + 1) * A.n] for i in range(A.m)]


def max_row(A, signs):
    """||Au||_inf in Python integers."""
    return max(abs(sum(s * a for s, a in zip(signs, row))) for row in _rows(A))


def witness_ok(A, signs, r):
    """u is a balanced sign vector of length n with ||Au||_inf <= r."""
    return (
        len(signs) == A.n
        and all(s in (-1, 1) for s in signs)
        and sum(signs) == 0
        and max_row(A, signs) <= r
    )


def brute_count(A, r):
    """Number of balanced u with ||Au||_inf <= r, by enumerating the +1 sets."""
    rows = _rows(A)
    totals = [sum(row) for row in rows]
    count = 0
    for plus in combinations(range(A.n), A.n // 2):
        count += all(abs(2 * sum(row[j] for j in plus) - tot) <= r for row, tot in zip(rows, totals))
    return count


def stationary(a, b):
    """mu_s proportional to prod_{i<=s} a_{i-1}/b_i, normalised."""
    raw = [Fraction(1)]
    for s in range(1, len(a)):
        raw.append(raw[-1] * a[s - 1] / b[s])
    total = sum(raw)
    return [v / total for v in raw]


def stein_image_ok(a, b, t, f, mu):
    """T f(s) = a_s f(s+1) - b_s f(s) equals 1{s=t} - mu_t for s = 0..w."""
    w = len(a) - 1
    return all(
        (a[s] * f[s + 1] if s < w else 0) - b[s] * f[s] == (s == t) - mu[t]
        for s in range(w + 1)
    )


def walk_center(r, p):
    """P(R(r, p) = 0) = sum_x C(r, x)^2 p^(2x) (1-p)^(2r-2x): the walk is the
    difference of two independent Binomial(r, p) counts."""
    a, b = p.numerator, p.denominator
    num = sum(comb(r, x) ** 2 * a ** (2 * x) * (b - a) ** (2 * (r - x)) for x in range(r + 1))
    return Fraction(num, b ** (2 * r))
