"""Exact integer-matrix spectral invariants and word growth in groups.

Matrices are tuples of tuples of Python ints so that characteristic
polynomials, inverses and powers stay exact; eigenvalue moduli go through a
square-free split followed by ``np.roots`` on each square-free factor.
Also the number checks for config values: ``is_int``, ``is_real``, ``as_ints``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

IntMatrix = tuple[tuple[int, ...], ...]


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exact matrix arithmetic
# ---------------------------------------------------------------------------

def is_int(value) -> bool:
    """An integer number (8 or 8.0), not a bool or a string."""
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )


def is_real(value) -> bool:
    """A number that converts to a finite float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an integer beyond the float range
        return False


def as_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; every entry must pass ``is_int``."""
    values = list(values)
    if not all(is_int(c) for c in values):
        raise AlgebraError(f"{what} must be integers, got {values!r}")
    return tuple(int(c) for c in values)


def as_matrix(rows) -> IntMatrix:
    mat = tuple(as_ints(row, "matrix entries") for row in rows)
    k = len(mat)
    if k == 0 or k > 6 or any(len(r) != k for r in mat):
        raise AlgebraError("need a square integer matrix of size at most 6")
    return mat


def identity_matrix(k: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    k = len(a)
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k))
        for i in range(k)
    )


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[j] * int(v[j]) for j in range(len(row))) for row in a)


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    if n < 0:
        return mat_pow(mat_inverse(a), -n)
    result = identity_matrix(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def determinant(a: IntMatrix) -> int:
    """Fraction-free (Bareiss) determinant."""
    k = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if m[i][i] == 0:
            for r in range(i + 1, k):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[k - 1][k - 1]


def _minor(a: IntMatrix, i: int, j: int) -> IntMatrix:
    return tuple(
        tuple(a[r][c] for c in range(len(a)) if c != j)
        for r in range(len(a))
        if r != i
    )


def mat_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (adjugate over det = +-1)."""
    det = determinant(a)
    if det not in (1, -1):
        raise AlgebraError(f"matrix is not unimodular (det {det})")
    k = len(a)
    if k == 1:
        return ((det,),)
    adj = tuple(
        tuple((-1) ** (i + j) * determinant(_minor(a, j, i)) for j in range(k))
        for i in range(k)
    )
    return tuple(tuple(det * e for e in row) for row in adj)


def mat_transpose(a: IntMatrix) -> IntMatrix:
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a)))


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# Exact polynomials (coefficient lists, highest degree first)
# ---------------------------------------------------------------------------

def charpoly(a: IntMatrix) -> list[int]:
    """Monic characteristic polynomial via the Faddeev-LeVerrier recursion."""
    k = len(a)
    coeffs = [1]
    m = identity_matrix(k)
    for i in range(1, k + 1):
        m = mat_mul(a, m)
        t = trace(m)
        if t % i != 0:
            raise AlgebraError("Faddeev-LeVerrier division not exact")
        c = -(t // i)
        coeffs.append(c)
        m = tuple(
            tuple(m[r][s] + (c if r == s else 0) for s in range(k)) for r in range(k)
        )
    return coeffs


def poly_deriv(p: list) -> list:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])] or [0]


def poly_divmod(p: list, q: list):
    """Division over the rationals; exact Fractions throughout."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    if all(c == 0 for c in q):
        raise ZeroDivisionError("polynomial division by zero")
    out = []
    while len(p) >= len(q) and any(c != 0 for c in p):
        factor = p[0] / q[0]
        out.append(factor)
        for i, c in enumerate(q):
            p[i] -= factor * c
        p.pop(0)
    return out or [Fraction(0)], p or [Fraction(0)]


def poly_div_exact_int(p: list[int], q: list[int]) -> list[int] | None:
    """Quotient if q divides p exactly over the integers, else None."""
    quo, rem = poly_divmod(p, q)
    if any(c != 0 for c in rem):
        return None
    if any(c.denominator != 1 for c in quo):
        return None
    return [int(c) for c in quo]


def _poly_gcd(p: list, q: list) -> list:
    """Monic gcd over the rationals, returned as primitive integer coeffs."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while any(c != 0 for c in b):
        _, r = poly_divmod(a, b)
        while len(r) > 1 and r[0] == 0:
            r.pop(0)
        a, b = b, r if any(c != 0 for c in r) else [Fraction(0)]
    lead = a[0]
    monic = [c / lead for c in a]
    denom = math.lcm(*(c.denominator for c in monic))
    ints = [int(c * denom) for c in monic]
    g = math.gcd(*(abs(c) for c in ints)) or 1
    return [c // g for c in ints]


def squarefree_factors(p: list[int]) -> list[tuple[list[int], int]]:
    """p = prod f_i^i with f_i square-free and pairwise coprime."""
    factors = []
    a = list(p)
    i = 1
    while len(a) > 1:
        g = _poly_gcd(a, poly_deriv(a))
        if len(g) == 1:
            factors.append((a, i))
            break
        b = poly_div_exact_int(a, g)
        c = _poly_gcd(b, g)
        f = poly_div_exact_int(b, c)
        if f is None or b is None:
            raise AlgebraError("square-free decomposition failed")
        if len(f) > 1:
            factors.append((f, i))
        a = g
        i += 1
    return factors


# ---------------------------------------------------------------------------
# Spectral invariants
# ---------------------------------------------------------------------------

def eigen_moduli(m: IntMatrix) -> list[float]:
    """Sorted moduli of all complex eigenvalues, with multiplicity."""
    moduli = []
    for factor, mult in squarefree_factors(charpoly(as_matrix(m))):
        moduli.extend(float(abs(root)) for root in np.roots(factor) for _ in range(mult))
    return sorted(moduli)


def s_value(m: IntMatrix) -> float:
    """Maximal |log| of an eigenvalue modulus; hyperbolic iff positive."""
    return max(abs(math.log(r)) for r in eigen_moduli(m))


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial."""
    p = [1] + [0] * (d - 1) + [-1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            q = poly_div_exact_int(p, list(cyclotomic(e)))
            if q is None:
                raise AlgebraError("cyclotomic recursion failed")
            p = q
    return tuple(p)


def _euler_phi(d: int) -> int:
    return len(cyclotomic(d)) - 1


def is_periodic(m: IntMatrix) -> tuple[bool, int | None]:
    """Whether some power of the matrix is the identity, and its order.

    Trial-divides the characteristic polynomial by cyclotomic polynomials;
    a direct power check then also catches non-semisimple unipotent parts.
    """
    m = as_matrix(m)
    if determinant(m) not in (1, -1):
        raise AlgebraError("periodicity test expects a unimodular matrix")
    k = len(m)
    p = charpoly(m)
    orders = []
    d = 1
    while _candidates_remaining(d, k):
        if _euler_phi(d) <= k:
            while True:
                q = poly_div_exact_int(p, list(cyclotomic(d)))
                if q is None:
                    break
                p = q
                orders.append(d)
                if len(p) == 1:
                    break
        if len(p) == 1:
            break
        d += 1
    if len(p) > 1:
        return (False, None)
    order = math.lcm(*orders) if orders else 1
    if mat_pow(m, order) == identity_matrix(k):
        return (True, order)
    return (False, None)


def _candidates_remaining(d: int, k: int) -> bool:
    # phi(d) > k for all d > 2 k^2 + 1 comfortably; small bound for k <= 6
    return d <= 4 * k * k + 2


def a_block(i_mat: IntMatrix) -> tuple[IntMatrix, int, int]:
    """Split a 3x3 action in the basis ([dtheta], [dq1], [dq2]).

    Returns the 2x2 base block together with the two shear integers; raises
    when the fiber class line is not fixed, since such an automorphism is not
    realized by any contactomorphism of the contact-element space.
    """
    i_mat = as_matrix(i_mat)
    if len(i_mat) != 3:
        raise AlgebraError("block extraction needs a 3x3 matrix")
    col0 = tuple(i_mat[r][0] for r in range(3))
    if col0 != (1, 0, 0):
        raise AlgebraError("not representable by a contactomorphism: fiber class moves")
    block = ((i_mat[1][1], i_mat[1][2]), (i_mat[2][1], i_mat[2][2]))
    return block, i_mat[0][1], i_mat[0][2]


# ---------------------------------------------------------------------------
# Growth rates
# ---------------------------------------------------------------------------

def line_fit(xs, ys) -> tuple[float, float]:
    """Least-squares (slope, intercept) of 2 or more (x, y) pairs, from centred sums."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise AlgebraError(f"line fit needs 2 or more (x, y) pairs, got {x.shape} and {y.shape}")
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float((dx * (y - y_mean)).sum() / (dx * dx).sum())
    return slope, float(y_mean - slope * x_mean)


def growth_slope(log_values: Sequence[float], tail: float = 0.5) -> float:
    """Least-squares slope over the trailing part of a series."""
    n = len(log_values)
    start = min(n - 2, int(n * (1.0 - tail)))
    return line_fit(np.arange(start, n), log_values[start:])[0]


def length_growth_rate(*series: Sequence[int]) -> float:
    """Largest exponential growth rate among length series: the tail slope
    of their logs, floored at 0; a series of fewer than three lengths
    counts as 0."""
    # math.log takes the arbitrary-precision lengths directly.
    slopes = [growth_slope([math.log(x) for x in s]) for s in series if len(s) >= 3]
    return max([0.0, *slopes])


def abelian_lengths(m: IntMatrix, gamma: Sequence[int], n_steps: int, cap=math.inf) -> list[int]:
    """L1 word lengths of gamma, m gamma, ..., m^n_steps gamma (exact); stops
    after the first length past cap (the length of gamma is not tested)."""
    v = tuple(int(c) for c in gamma)
    if not any(v):
        raise AlgebraError("trivial class")
    lengths = [sum(abs(c) for c in v)]
    for _ in range(n_steps):
        v = mat_vec(m, v)
        lengths.append(sum(abs(c) for c in v))
        if lengths[-1] > cap:
            break
    return lengths


# ---------------------------------------------------------------------------
# Free groups
# ---------------------------------------------------------------------------

GroupWord = tuple[int, ...]  # signed generator indices, 1-based


def parse_word(text: str) -> GroupWord:
    """Letters a..z are generators, capitals their inverses."""
    if not isinstance(text, str):
        raise AlgebraError(f"a word must be a string, got {text!r}")
    out = []
    for ch in text:
        if ch.islower():
            out.append(ord(ch) - ord("a") + 1)
        elif ch.isupper():
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise AlgebraError(f"bad word character {ch!r}")
    return tuple(out)


def word_str(w: GroupWord) -> str:
    return "".join(
        chr(ord("a") + g - 1) if g > 0 else chr(ord("A") - g - 1) for g in w
    )


# The free-group kernel holds a word as bytes: generator g (at most 128) is code
# 2(g-1) and its inverse 2(g-1)+1, so inverting a letter flips bit 0 (_FLIP).
_FLIP = bytes(c ^ 1 for c in range(256))


def _encode(w: Sequence[int]) -> bytes:
    try:
        return bytes(2 * g - 2 if g > 0 else -2 * g - 1 for g in w)
    except ValueError:
        raise AlgebraError("generators must be 1..128 or their inverses") from None


def _decode(word: bytes) -> GroupWord:
    return tuple((c // 2 + 1) * (1 - 2 * (c & 1)) for c in word)


def _reduce(word: bytes, letters: bytes = b"") -> bytes:
    """Delete cancelling pairs over the letters (default: the word's) until none
    is left: by confluence, the word a per-letter stack gives. For the image of
    a reduced word under an automorphism, bounded cancellation keeps the rounds few."""
    pairs = [bytes((c, c ^ 1)) for c in set(letters or word)]
    while True:
        size = len(word)
        for pair in pairs:
            word = word.replace(pair, b"")
        if len(word) == size:
            return word


def _cyclic(word: bytes) -> bytes:
    """Trim matching first/last letters off a freely reduced word."""
    k = 0
    while 2 * k + 1 < len(word) and word[k] ^ 1 == word[-1 - k]:
        k += 1
    return word[k : len(word) - k]


def free_reduce(w: Sequence[int]) -> GroupWord:
    return _decode(_reduce(_encode(w)))


def cyclic_reduce(w: Sequence[int]) -> GroupWord:
    """Freely reduce, then cancel matching first/last letters."""
    return _decode(_cyclic(_reduce(_encode(w))))


@dataclass(frozen=True)
class FreeAutomorphism:
    """Substitution rule generator -> word (invertibility is the caller's job);
    every generator an image uses must have a rule."""

    images: tuple[GroupWord, ...]  # images[i] is the image of generator i+1

    def __post_init__(self):
        self.encode([g for image in self.images for g in image])

    @classmethod
    def from_strings(cls, rules: Sequence[str]) -> "FreeAutomorphism":
        if not isinstance(rules, (list, tuple)):
            raise AlgebraError(f"rules must be a list of words, got {rules!r}")
        return cls(tuple(parse_word(r) for r in rules))

    def encode(self, w: Sequence[int]) -> bytes:
        """w as kernel bytes; raises unless each of its generators has a rule."""
        word = _encode(w)
        if word and max(word) >= 2 * len(self.images):
            raise AlgebraError("rules and word may only use generators that have a rule")
        return word

    @cached_property
    def _codes(self) -> list[bytes]:
        """The images of codes 0, 1, ...: each generator's, then its inverse's."""
        return [c for im in map(_encode, self.images) for c in (im, im[::-1].translate(_FLIP))]

    @cached_property
    def _table(self):
        """The images of codes 0, 1, ... as one byte string; their lengths and offsets."""
        lens = np.array([len(c) for c in self._codes], dtype=np.int32)
        return b"".join(self._codes), lens, np.cumsum(lens, dtype=np.int32) - lens

    def _image(self, word: bytes) -> bytes:
        """sigma(word), freely reduced: one gather over the table, by int32 indices."""
        table, lens, offsets = self._table
        codes = np.frombuffer(word, dtype=np.uint8)
        sizes = lens[codes]
        total = int(sizes.sum(dtype=np.int64))
        if total >= 2**31:
            raise AlgebraError("word image too long for int32 indices")
        ends = np.cumsum(sizes, dtype=np.int32)
        index = np.arange(total, dtype=np.int32)
        index += np.repeat(offsets[codes] - (ends - sizes), sizes)
        return _reduce(np.frombuffer(table, dtype=np.uint8)[index].tobytes(), table)

    def _letter_counts(self, word: bytes):
        """(incidence matrix, counts of word) over the letters its iterates use, or
        None unless no iterate of the cyclic word ever cancels: decided on the closure
        of its cyclic adjacent pairs (README, "Word growth and displacement")."""
        images = self._codes
        todo, pairs, letters = set(zip(word, word[1:] + word[:1])), set(), set()
        while todo:
            x, y = pair = todo.pop()
            if x ^ 1 == y or not images[x] or not images[y]:
                return None
            pairs.add(pair)
            new = {(images[x][-1], images[y][0])}
            for c in {x, y} - letters:
                letters.add(c)
                new.update(zip(images[c], images[c][1:]))
            todo |= new - pairs
        order = sorted(letters)
        matrix = tuple(tuple(images[d].count(c) for d in order) for c in order)
        return matrix, [word.count(c) for c in order]

    def apply(self, w: Sequence[int]) -> GroupWord:
        return _decode(self._image(self.encode(w)))


def free_lengths(sigma: FreeAutomorphism, w: Sequence[int], n_steps: int, cap: int) -> list[int]:
    """Cyclically reduced lengths of w, sigma(w), ...; stops after the first length
    past cap. When sigma never cancels on w they are exact letter-count sums
    (``FreeAutomorphism._letter_counts``) and no word is built; else the byte kernel runs."""
    word = _cyclic(_reduce(sigma.encode(w)))
    if not word:
        raise AlgebraError("trivial class")
    counted = sigma._letter_counts(word)
    if counted is not None:
        return abelian_lengths(*counted, n_steps, cap)
    lengths = [len(word)]
    for _ in range(n_steps):
        word = _cyclic(sigma._image(word))
        if not word:
            raise AlgebraError("trivial class reached under iteration")
        lengths.append(len(word))
        if len(word) > cap:
            break
    return lengths
