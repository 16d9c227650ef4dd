"""Exact integer-matrix spectral invariants and word growth in groups.

Matrices are tuples of tuples of Python ints, so everything here is exact.
One Faddeev-LeVerrier pass gives the characteristic polynomial, the
determinant and the exact inverse of a unimodular matrix. Spectra are asked
only of unimodular matrices of size <= 3 (I_f on H^1 = Z^3, its 2x2 base
block). A repeated root of their characteristic polynomial p has a minimal
polynomial whose square divides p, so of degree 1: the root is an integer
dividing det = +-1. Eigenvalue moduli divide 1 and -1 out of p before ``np.roots``;
periodicity tries the powers up to the largest finite order in GL(k, Z).
Also the number checks for config values: ``is_int``, ``is_real``, ``as_ints``.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
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
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def determinant(a: IntMatrix) -> int:
    """det A = (-1)^k c_k, from the characteristic polynomial's constant term."""
    return (-1) ** len(a) * _leverrier(a)[0][-1]


def mat_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix: A^-1 = -M_k / c_k = -c_k M_k."""
    coeffs, m = _leverrier(a)
    c = coeffs[-1]
    if c not in (1, -1):
        raise AlgebraError(f"matrix is not unimodular (det {(-1) ** len(a) * c})")
    return tuple(tuple(-c * e for e in row) for row in m)


def mat_transpose(a: IntMatrix) -> IntMatrix:
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a)))


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# Spectral invariants
# ---------------------------------------------------------------------------

def _leverrier(a: IntMatrix) -> tuple[list[int], IntMatrix]:
    """One Faddeev-LeVerrier pass: the monic characteristic coefficients
    c_0 = 1, ..., c_k (highest degree first) and the last matrix of the
    recursion M_1 = I, M_{i+1} = A M_i + c_i I, for which A M_k = -c_k I."""
    k = len(a)
    coeffs, m = [1], identity_matrix(k)
    for i in range(1, k + 1):
        am = mat_mul(a, m)
        c, rest = divmod(-trace(am), i)
        if rest:
            raise AlgebraError("Faddeev-LeVerrier division not exact")
        coeffs.append(c)
        if i < k:
            m = tuple(tuple(x + c * (r == s) for s, x in enumerate(row))
                      for r, row in enumerate(am))
    return coeffs, m


def charpoly(a: IntMatrix) -> list[int]:
    """Monic characteristic polynomial, highest degree first (Faddeev-LeVerrier)."""
    return _leverrier(a)[0]


def eigen_moduli(m: IntMatrix) -> list[float]:
    """Sorted moduli of all complex eigenvalues, with multiplicity, of a
    unimodular matrix of size at most 3. Synthetic division takes the only
    possible repeated roots, 1 and -1, out of the characteristic polynomial;
    the factors of each multiplicity then go to ``np.roots`` together."""
    m = as_matrix(m)
    p = charpoly(m)
    if len(m) > 3 or abs(p[-1]) != 1:
        raise AlgebraError(f"eigenvalue moduli need a unimodular matrix of size at most 3, got {m}")
    mult = {1: 0, -1: 0}
    for e in mult:
        while not (divided := _horner(p, e))[-1]:
            p = divided[:-1]
            mult[e] += 1
    groups = {1: p}  # multiplicity -> product of the factors of that multiplicity
    for e, k in mult.items():
        if k:
            f = groups.get(k, [1])
            groups[k] = [a - e * b for a, b in zip(f + [0], [0] + f)]  # f * (t - e)
    roots = [(np.roots(f), k) for k, f in groups.items() if len(f) > 1]
    return sorted(float(abs(root)) for rs, k in roots for root in rs for _ in range(k))


def _horner(p: list[int], x: int) -> list[int]:
    """Synthetic division of p by (t - x): the quotient, then p(x)."""
    out = [p[0]]
    for c in p[1:]:
        out.append(c + x * out[-1])
    return out


def s_value(m: IntMatrix) -> float:
    """Maximal |log| of an eigenvalue modulus; hyperbolic iff positive."""
    return max(abs(math.log(r)) for r in eigen_moduli(m))


# Largest order of a finite-order element of GL(k, Z), k = 1..6 (OEIS A005417).
MAX_ORDER = (2, 6, 6, 12, 12, 30)


def is_periodic(m: IntMatrix) -> tuple[bool, int | None]:
    """Whether some power of the matrix is the identity, and its order: the
    first power up to ``MAX_ORDER`` that is the identity."""
    m = as_matrix(m)
    if determinant(m) not in (1, -1):
        raise AlgebraError("periodicity test expects a unimodular matrix")
    ident = identity_matrix(len(m))
    power = m
    for d in range(1, MAX_ORDER[len(m) - 1] + 1):
        if power == ident:
            return (True, d)
        power = mat_mul(power, m)
    return (False, None)


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
    lengths = [sum(map(abs, v))]
    for _ in range(n_steps):
        v = mat_vec(m, v)
        lengths.append(sum(map(abs, v)))
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
