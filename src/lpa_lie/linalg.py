"""Exact linear algebra over the prime subfields and over the integers.

Everything here is computed with arbitrary-precision integers, ``Fraction``
rationals, or residues modulo a prime; no floating point is ever involved.
One elimination routine, the Smith normal form over Z with unimodular
certificates U, V, backs everything else.  It runs on M alone and logs each
row and column operation that diagonalises it; U and V are those logs, and
a verdict replays them only on the vectors it reads.  A decomposition keeps,
per target b, c = U b, V ĉ (ĉ is c with its entries off the unit factors
zeroed) and V e_i for each nonzero non-unit factor d_i with c_i nonzero, so
the solve at one more characteristic costs O(n k) for k such factors, with
no replay of either log.  Each step
divides with the nearest-integer quotient, so a stage takes few Euclid
rounds; column steps wait until the row steps have cleared the pivot's
column, so U's multipliers stay small; a round that leaves remainders
takes its next pivot from the pivot's column or row, not the whole block,
and finds it in the same pass that writes those remainders; and a stage
whose pivot is a unit ends in one pass that rewrites each row only where
the pivot row is nonzero: K0 of purely infinite simple graphs of 80, 120
and 160 vertices (edge density 0.3, multiplicities up to 6) took
0.076-0.088, 0.47-0.49 and 2.07-2.20 s, and that of a 300-vertex acyclic
graph with one sink 0.010 s, on a 2-core host under Python 3.11.7.  It serves

* linear solving and rank over Q or GF(p), read off the certificate of the
  integer matrix (``SmithDecomposition.solve`` and ``rank``), and
* cokernel presentations of square integer matrices (invariant factors and
  the class of the all-ones vector), with element order and p-divisibility.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, isqrt, lcm

__all__ = [
    "is_prime",
    "FieldSpec",
    "SmithDecomposition",
    "smith_normal_form",
    "K0Presentation",
    "cokernel",
    "class_order",
    "is_p_divisible",
]


# Strong probable-prime tests to these bases decide primality of every n
# below _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin, deterministic below 3.3e24.

    Below ``_MR_BOUND`` the strong tests to the first 13 prime bases are
    exact.  Above it this is the Baillie-PSW test (a strong test to base 2
    and a strong Lucas test), for which no composite that passes is known.
    """
    if not isinstance(n, int):
        raise TypeError(f"is_prime needs an int, got {n!r}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _odd_part(m: int) -> tuple[int, int]:
    """``(d, s)`` with d odd and ``m = d 2^s``, for ``m > 0``."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of odd ``n > a`` to base ``a``."""
    d, s = _odd_part(n - 1)
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd ``n > 0``."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd ``n`` with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D) / 4.  Writing n + 1 = d 2^s, n passes when U_d = 0 or
    V_{d 2^r} = 0 (mod n) for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D / n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    # left-to-right binary ladder for U_k, V_k and Q^k, starting at k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# An integer as a user types it: an optional sign, then ASCII digits.  int()
# also takes underscores ("1_0") and any Unicode decimal digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
# int() converts at most this many digits (sys.set_int_max_str_digits' default)
_DIGIT_LIMIT = 4300


class _DigitLimitError(ValueError):
    """A typed integer of more than ``_DIGIT_LIMIT`` digits; the message quotes its first 20 characters."""


def _parse_integer(text: str) -> int:
    """``text`` as an integer by the rule of ``_INTEGER``; ``ValueError`` otherwise.

    >>> _parse_integer("9" * 4301)
    Traceback (most recent call last):
    lpa_lie.linalg._DigitLimitError: '99999999999999999999...' has more than 4300 digits
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"expected an integer, got {text!r}")
    if len(text) - (text[0] in "+-") > _DIGIT_LIMIT:
        raise _DigitLimitError(f"{repr(text[:20] + '...')} has more than {_DIGIT_LIMIT} digits")
    return int(text)


@dataclass(frozen=True)
class FieldSpec:
    """The prime subfield to compute over: Q for 0, GF(p) for a prime p.

    Its elements are ``Fraction``s over Q and ``int`` residues in ``[0, p)``
    over GF(p); ``coerce`` and ``parse`` return them in that form.
    """

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if not isinstance(c, int) or isinstance(c, bool) or (c != 0 and not is_prime(c)):
            raise ValueError(f"characteristic must be 0 or a prime, got {c!r}")

    @property
    def name(self) -> str:
        return "Q" if self.characteristic == 0 else f"GF({self.characteristic})"

    def zero(self):
        return self.coerce(0)

    def coerce(self, value):
        """Map an int or Fraction into this field; a residue maps to itself."""
        p = self.characteristic
        if isinstance(value, bool):
            raise TypeError("booleans are not field scalars")
        if isinstance(value, int):
            return Fraction(value) if p == 0 else value % p
        if isinstance(value, Fraction):
            if p == 0:
                return value
            if value.denominator % p == 0:
                raise ValueError(f"denominator of {value} vanishes in GF({p})")
            return value.numerator * pow(value.denominator, -1, p) % p
        raise TypeError(f"cannot coerce {type(value).__name__} into {self.name}")

    def parse(self, text: str):
        """Parse ``a`` or ``a/b`` (an optional sign on a, ASCII digits) as an element of this field.

        a and b are read by ``_parse_integer``, which quotes 20 characters of one that is too long.
        """
        a, _, b = text.strip().partition("/")
        try:
            if not re.fullmatch(rf"{_INTEGER.pattern}(/[0-9]+)?", text.strip()):
                raise ValueError("expected an integer a or a fraction a/b")
            if b and not b.strip("0"):
                raise ValueError("the denominator is zero")
            return self.coerce(Fraction(_parse_integer(a), _parse_integer(b or "1")))
        except _DigitLimitError as exc:
            raise ValueError(f"cannot parse an element of {self.name}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"cannot parse {text!r} as an element of {self.name}: {exc}") from None


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


# An entry (i, k, q) of an elimination log is the elementary operation
# "line i -= q * line k", or swaps lines i and k when q is None.  The sign
# flip of column k is (k, k, 2), since col k - 2 col k = -col k.


def _replay_rows(log, vec: list[int]) -> list[int]:
    """``U @ vec`` over Z for the product U of the row operations in ``log``."""
    for i, k, q in log:
        if q is None:
            vec[i], vec[k] = vec[k], vec[i]
        else:
            vec[i] -= q * vec[k]
    return vec


def _replay_units(log, n: int):
    """``log`` replayed on each unit vector e_0, ..., e_{n-1} of Z^n, in order."""
    return (_replay_rows(log, [int(i == j) for i in range(n)]) for j in range(n))


@dataclass(frozen=True)
class SmithDecomposition:
    """Certificate ``u @ original @ v == d`` with ``u``, ``v`` unimodular.

    ``d`` is diagonal with non-negative entries, zeros last, and each nonzero
    entry dividing the next.  Only the shape, the diagonal and the two
    elimination logs are stored: ``u`` is the product of the row operations
    in ``row_log`` and ``v`` that of the column operations in ``col_log``.
    ``u`` and ``v`` are built on first use by replaying a log on each unit
    vector; ``solve`` and ``K0Presentation.of`` replay the logs on the
    vectors they read instead, so a verdict never builds ``u`` or ``v``.
    The column log is reversed once, and per target b a decomposition keeps
    ``c = u @ b``, ``v @ ĉ`` (c with its entries off the unit factors
    zeroed) and ``v @ e_i`` for each nonzero non-unit factor d_i with c_i
    nonzero, each replayed over Z on first use.  Solvability is read off c
    and the diagonal, and a solution is ``v @ ĉ`` plus ``y_i v @ e_i``
    summed over those factors, so the unit class and the solve at every
    characteristic read one ``u @ (1, ..., 1)``, and one more
    characteristic costs O(n k) for k such factors, with no replay.
    The four fields, not the kept images, are the identity:
    ``smith_normal_form`` is deterministic, so two of its decompositions are
    equal exactly when they decompose the same matrix, which is when their
    ``u``, ``d`` and ``v`` agree.
    """

    shape: tuple[int, int]
    diagonal: tuple[int, ...]
    row_log: tuple[tuple[int, int, int | None], ...]
    col_log: tuple[tuple[int, int, int | None], ...]
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _back_images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _image(self, b: tuple[int, ...]) -> tuple[int, ...]:
        """``u @ b`` over Z, replayed on the first call for ``b`` and kept."""
        c = self._images.get(b)
        if c is None:
            c = self._images[b] = tuple(_replay_rows(self.row_log, list(b)))
        return c

    @cached_property
    def u(self) -> tuple[tuple[int, ...], ...]:
        # column j of U is U e_j
        return tuple(zip(*_replay_units(self.row_log, self.shape[0])))

    @cached_property
    def d(self) -> tuple[tuple[int, ...], ...]:
        rows, cols = self.shape
        return tuple(
            tuple(self.diagonal[i] if i == j else 0 for j in range(cols)) for i in range(rows)
        )

    @cached_property
    def v(self) -> tuple[tuple[int, ...], ...]:
        # "col j -= q * col k" on V is "row j -= q * row k" on its transpose,
        # so row j of V is the column log replayed on e_j
        return tuple(map(tuple, _replay_units(self.col_log, self.shape[1])))

    @cached_property
    def _back_log(self) -> tuple[tuple[int, int, int | None], ...]:
        # v multiplies the column operations' matrices in log order, so they
        # act on y last to first; "col j -= q * col k" acts as "row k -= q * row j"
        return tuple((k, j, q) for j, k, q in reversed(self.col_log))

    @cached_property
    def _nonunit_factors(self) -> tuple[tuple[int, int], ...]:
        """``(i, d_i)`` for each factor other than 1, a zero for each row past the diagonal."""
        padded = chain(self.diagonal, repeat(0, self.shape[0] - len(self.diagonal)))
        return tuple((i, a) for i, a in enumerate(padded) if a != 1)

    def _back_image(self, b: tuple[int, ...]):
        """``(v @ ĉ, terms)`` for the target ``b``, replayed on the first call for ``b`` and kept.

        With ``c = u @ b``, ĉ is c with every entry off a unit factor zeroed,
        and ``terms`` holds ``(c_i, d_i, v @ e_i)`` for each nonzero
        non-unit factor d_i with c_i nonzero.  ``v @ y`` is a combination of
        these vectors whatever y_i = c_i / d_i a field gives.
        """
        kept = self._back_images.get(b)
        if kept is None:
            c, cols = self._image(b), self.shape[1]
            units = [ci if a == 1 else 0 for ci, a in zip(c, self.diagonal)]
            units += [0] * (cols - len(units))
            terms = []
            for i, a in self._nonunit_factors:
                if a and c[i]:
                    e = [0] * cols
                    e[i] = 1
                    terms.append((c[i], a, tuple(_replay_rows(self._back_log, e))))
            kept = self._back_images[b] = (
                tuple(_replay_rows(self._back_log, units)),
                tuple(terms),
            )
        return kept

    def rank(self, field: FieldSpec) -> int:
        """Rank of the original matrix over ``field``: the factors nonzero there."""
        p = field.characteristic
        return sum(1 for a in self.diagonal if (a % p if p else a))

    def solve(self, target, field: FieldSpec):
        """Coefficients x with ``original @ x == target`` over ``field``, or None.

        With ``c = u @ target`` and ``x = v @ y`` the system reads
        ``d_i y_i = c_i``, so it is solvable exactly when ``c_i`` vanishes in
        the field wherever ``d_i`` does, rows past the diagonal included.
        Free coordinates of y are set to zero.  So ``2x = 1`` is solvable
        over Q and not over GF(2):

        >>> smith_normal_form([[2]]).solve([1], FieldSpec(0))
        [Fraction(1, 2)]
        >>> smith_normal_form([[2]]).solve([1], FieldSpec(2)) is None
        True
        """
        p = field.characteristic
        b = tuple(target)
        scale = 1
        if not set(map(type, b)) <= {int}:  # plain ints are integer targets at every p
            b = [field.coerce(x) for x in b]
            if not p:
                # over the common denominator the target is an integer vector
                scale = lcm(*(x.denominator for x in b))
                b = [x.numerator * (scale // x.denominator) for x in b]
            b = tuple(b)
        rows = self.shape[0]
        if len(b) != rows:
            raise ValueError(
                f"dimension mismatch: target of length {len(b)}, matrix with {rows} rows"
            )
        c = self._image(b)
        if p:
            if any(c[i] % p for i, a in self._nonunit_factors if not a % p):
                return None
        elif any(c[i] for i, a in self._nonunit_factors if not a):
            return None
        units, terms = self._back_image(b)
        if p:
            # y_i = c_i / d_i; a factor that vanishes mod p leaves y_i free, set to zero
            x = list(units)
            for ci, a, col in terms:
                if a % p:
                    yi = ci * pow(a, -1, p) % p
                    x = [xj + yi * vj for xj, vj in zip(x, col)]
            return [xj % p for xj in x]
        # every nonzero factor divides the last one, so y_i = c_i / d_i
        # is an integer over the common denominator top * scale
        top = next((a for a in reversed(self.diagonal) if a), 1)
        x = [top * vj for vj in units]
        for ci, a, col in terms:
            yi = ci * (top // a)
            x = [xj + yi * vj for xj, vj in zip(x, col)]
        return [Fraction(xj, top * scale) for xj in x]


def _first_least_abs(xs) -> int | None:
    """The index of the first entry of least nonzero absolute value in ``xs``."""
    best = pos = None
    for k, x in enumerate(xs):
        if x:
            x = -x if x < 0 else x
            if best is None or x < best:
                if x == 1:
                    return k  # nothing later can beat it
                best, pos = x, k
    return pos


def smith_normal_form(mat) -> SmithDecomposition:
    """Smith normal form of an integer matrix with transformation certificates.

    The first pivot of each stage, and the one after a fold, is the entry of
    least nonzero absolute value in the block still to be diagonalised
    (ties broken in row-major order), which bounds entry growth and makes
    the output deterministic.  Each entry ``a`` is reduced by ``q * pivot``
    with the nearest-integer quotient ``q = (2 * a + pivot) // (2 * pivot)``,
    so its remainder is at most ``|pivot| / 2``; negating M negates every
    remainder and keeps every ``q``, so M and -M take the same operations.
    A round runs its row steps first, which keeps U's multipliers small.
    If they leave remainders, the next pivot is the first least of the
    pivot's column; once that column is clear the column steps run, each
    rewriting the pivot row alone, and if they leave remainders the next
    pivot is the first least of that row.  Each round finds that pivot in
    the pass that writes the remainders, keeping the first least |x| and
    its line as it goes, so no round scans the column or row again.  Such a
    remainder is nonzero and at most half the last pivot, so the pivot
    itself is never the least, and the block scan after a fold finds
    nothing larger than the pivot, which it takes again on a tie and which
    then leaves a remainder in its row; so the pivots of a stage shrink
    until a round leaves no remainder and no entry the pivot does not
    divide, and every stage ends.  A round whose pivot is 1 or -1 ends its
    stage at once: each quotient is ``x * pivot`` and leaves no remainder,
    so one pass drops column t from each row below, logs its row step and
    subtracts the pivot row from it in place at the pivot row's nonzero
    entries only (at any density this measured no slower than a full-width
    rewrite), and the column steps are logged off row t; only a larger
    pivot is scanned for a row it does not divide.  The elimination runs
    on a copy of the block and logs each row and column operation with its
    indices in M; the certificates ``u`` and ``v`` are those logs, replayed
    only when read.  Only swaps, adding an integer multiple of one
    row/column to another, and column negations are used, so both are
    unimodular.
    """
    rows = len(mat)
    if rows == 0 or len(mat[0]) == 0:
        raise ValueError("smith_normal_form expects a non-empty matrix")
    cols = len(mat[0])
    w: list[list[int]] = []
    for row in mat:
        if len(row) != cols:
            raise ValueError("matrix rows must all have the same length")
        exact = set(map(type, row)) <= {int}  # a row of plain ints skips the entry rule
        if not exact and not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
            raise ValueError("matrix entries must be integers")
        w.append(list(row))
    row_log: list[tuple[int, int, int | None]] = []
    col_log: list[tuple[int, int, int | None]] = []
    pivots: list[int] = []

    # w is the block of M from row and column t on; its entry (i, j) is M's (t + i, t + j)
    t = 0
    while (k := _first_least_abs(chain.from_iterable(w))) is not None:
        pi, pj = divmod(k, len(w[0]))
        while True:  # the Euclid rounds of stage t
            if pi:
                w[0], w[pi] = w[pi], w[0]
                row_log.append((t, t + pi, None))
            if pj:
                for r in w:
                    r[0], r[pj] = r[pj], r[0]
                col_log.append((t, t + pj, None))
            w0 = w[0]
            pivot = w0[0]
            if pivot == 1 or pivot == -1:
                break
            twice = 2 * pivot
            least = 0  # the first least |remainder| so far; its line is the next pivot's
            for i in range(1, len(w)):
                wi = w[i]
                x = wi[0]
                if x:
                    q = (2 * x + pivot) // twice
                    if q:
                        w[i] = wi = [a - q * b for a, b in zip(wi, w0)]
                        row_log.append((t + i, t, q))
                        x = wi[0]
                    if x:
                        x = -x if x < 0 else x
                        if not least or x < least:
                            least, pi = x, i
            if least:
                pj = 0  # the remainders sit in column t
                continue
            # column t is clear below the pivot, so a column step changes row t alone
            for j in range(1, len(w0)):
                x = w0[j]
                if x:
                    q = (2 * x + pivot) // twice
                    if q:
                        w0[j] = x = x - q * pivot
                        col_log.append((t + j, t, q))
                    if x:
                        x = -x if x < 0 else x
                        if not least or x < least:
                            least, pj = x, j
            if not least:
                break
            pi = 0
        if pivot == 1 or pivot == -1:
            # one pass ends the stage; the pivot row is taken at its support only
            support = [(j, b) for j, b in enumerate(w0[1:]) if b]
            for i in range(1, len(w)):
                wi = w[i]
                x = wi[0]
                del wi[0]
                if x:
                    q = x * pivot
                    row_log.append((t + i, t, q))
                    for j, b in support:
                        wi[j] -= q * b
            col_log += [(t + 1 + j, t, b * pivot) for j, b in support]
        elif (offender := next(
            (i for i in range(1, len(w)) if any(x % pivot for x in w[i])), None
        )) is not None:
            # fold the offending row into row t; the block is scanned afresh
            w[0] = [x + y for x, y in zip(w0, w[offender])]
            row_log.append((t, t + offender, -1))
            continue
        else:
            for r in w:
                del r[0]
        pivots.append(pivot)
        del w[0]
        t += 1

    for k, a in enumerate(pivots):
        if a < 0:
            col_log.append((k, k, 2))
    diagonal = tuple(abs(a) for a in pivots) + (0,) * (min(rows, cols) - len(pivots))
    return SmithDecomposition((rows, cols), diagonal, tuple(row_log), tuple(col_log))


# ---------------------------------------------------------------------------
# Cokernel presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class K0Presentation:
    """Cokernel of a square integer matrix, with the class of (1, ..., 1).

    ``invariant_factors`` is the full Smith diagonal (1s retained, 0s meaning
    free summands); ``unit_class`` is U @ (1, ..., 1)^t with coordinate i
    reduced modulo the i-th factor whenever that factor is positive.
    """

    invariant_factors: tuple[int, ...]
    unit_class: tuple[int, ...]

    @property
    def nontrivial_factors(self) -> tuple[int, ...]:
        return tuple(a for a in self.invariant_factors if a != 1)

    def group_description(self) -> str:
        parts = [f"Z_{a}" for a in self.nontrivial_factors if a > 0]
        parts += ["Z"] * self.invariant_factors.count(0)
        return " x ".join(parts) if parts else "trivial"

    @classmethod
    def of(cls, dec: SmithDecomposition) -> K0Presentation:
        """Read the presentation off the Smith form of a square matrix."""
        rows, cols = dec.shape
        if rows != cols:
            # a taller form's diagonal misses the free summands of its extra rows
            raise ValueError(f"a cokernel presentation needs a square matrix, not {rows} x {cols}")
        alphas = dec.diagonal
        unit = dec._image((1,) * rows)
        return cls(alphas, tuple(y % a if a > 0 else y for y, a in zip(unit, alphas)))


def cokernel(mat) -> K0Presentation:
    """Invariant factors of Z^m / Im(mat) and the class of the ones vector."""
    return K0Presentation.of(smith_normal_form(mat))


def class_order(pres: K0Presentation) -> int | None:
    """Order of the unit class in the cokernel; ``None`` means infinite."""
    order = 1
    for a, y in zip(pres.invariant_factors, pres.unit_class):
        if a == 0:
            if y != 0:
                return None
        else:
            order = lcm(order, a // gcd(a, y))
    return order


def is_p_divisible(pres: K0Presentation, p: int) -> bool:
    """Whether the unit class equals p times some element of the cokernel.

    Coordinate-wise: ``p * x = y (mod a)`` is solvable iff gcd(p, a) divides
    y; a free coordinate has a = 0, and gcd(p, 0) = p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _p_divisible(pres, p)


def _p_divisible(pres: K0Presentation, p: int) -> bool:
    """``is_p_divisible`` for a p already known to be prime."""
    return all(y % gcd(p, a) == 0 for a, y in zip(pres.invariant_factors, pres.unit_class))
