"""Exact integer arithmetic the benchmark does itself, so that its answer
checks and its corpus never rely on the package under test."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def presentation_matrix(adj: list[list[int]]) -> list[list[int]]:
    """``I - A^t`` for an adjacency count matrix ``A``."""
    n = len(adj)
    return [[(i == j) - adj[j][i] for j in range(n)] for i in range(n)]


def b_vectors(adj: list[list[int]]) -> list[list[int]]:
    """Row i of A minus e_i for a vertex that emits an edge; zero for a sink."""
    out = []
    for i, row in enumerate(adj):
        if any(row):
            b = row[:]
            b[i] -= 1
            out.append(b)
        else:
            out.append([0] * len(row))
    return out


def bareiss_det(mat: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), or over Q when ``p`` is 0."""
    if p:
        mat = [[x % p for x in r] for r in rows]
    else:
        mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        piv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                if p:
                    f = f * pow(piv, -1, p) % p
                    mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
                else:
                    f = f / piv
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def parse_scalar(text: str, p: int):
    """A report's field element (``a`` or ``a/b``) as a Fraction or a residue."""
    x = Fraction(text)
    if p == 0:
        return x
    return x.numerator % p * pow(x.denominator, -1, p) % p


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int, budget: int) -> int | None:
    """A nontrivial factor of composite ``n`` by Pollard-Brent rho, or None."""
    for c in range(1, 6):
        y, r, q, g, steps = 2, 1, 1, 1, 0
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r
            r *= 2
        if g == 1:
            return None
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def trial_division_steps(n: int, small: int = 10**5, budget: int = 10**5) -> int | None:
    """How far trial division must run to factor ``n``, or None if unknown.

    Trial division that divides out each factor as found, stopping once the
    divisor passes the square root of what is left, must reach the second
    largest prime factor and the square root of the largest.  Returns that
    bound when Pollard-Brent (within ``budget`` steps per split) completes
    the factorization, and None when it does not, which means at least two
    prime factors are far beyond ``small``.
    """
    primes = []
    m = n
    p = 2
    while p < small and p * p <= m:
        while m % p == 0:
            primes.append(p)
            m //= p
        p += 1 if p == 2 else 2
    stack = [m] if m > 1 else []
    while stack:
        x = stack.pop()
        if x < p * p or is_probable_prime(x):
            primes.append(x)
            continue
        f = _brent_factor(x, budget)
        if f is None:
            return None
        stack += [f, x // f]
    primes.sort()
    if not primes:
        return 1
    second = primes[-2] if len(primes) > 1 else 1
    return max(second, isqrt(primes[-1]))
