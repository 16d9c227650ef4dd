import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactlab import algebra as A
from contactlab.report import ConfigError, load_config, validate_config
from conftest import abelian_rate, sample_hyperbolic_lattice_matrices

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
CAT = ((2, 1), (1, 1))
CAT_S = math.log((3.0 + math.sqrt(5.0)) / 2.0)


# ---------------------------------------------------------------------------
# Exact matrix arithmetic
# ---------------------------------------------------------------------------

def test_determinant_and_inverse():
    assert A.determinant(CAT) == 1
    inv = A.mat_inverse(CAT)
    assert A.mat_mul(CAT, inv) == A.identity_matrix(2)
    with pytest.raises(A.AlgebraError, match="unimodular"):
        A.mat_inverse(((2, 0), (0, 2)))


def leibniz(m) -> int:
    """det m as the sum over permutations, each signed by its inversions."""
    k = len(m)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
        * math.prod(m[i][p[i]] for i in range(k))
        for p in itertools.permutations(range(k))
    )


def square(k):
    """k x k integer matrices with entries in [-3, 3]."""
    return st.tuples(*[st.tuples(*[st.integers(-3, 3)] * k)] * k)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(square))
@example(((0, 0), (0, 0)))  # singular
@example(((1, 2, 3), (2, 4, 6), (0, 1, -1)))  # singular, nonzero
@example(((-1,),))  # 1x1 unimodular
@example(((3,),))  # 1x1 not unimodular
@example(CAT)
def test_kernel_against_the_leibniz_oracle(m):
    # determinant is Leibniz's sum; charpoly(t) is det(tI - A) at k + 1 integers;
    # mat_inverse is a two-sided inverse exactly when det = +-1.
    k, det = len(m), leibniz(m)
    assert A.determinant(m) == det
    p = A.charpoly(m)
    assert len(p) == k + 1 and p[0] == 1
    for t in range(-1, k):
        shifted = tuple(tuple(t * (i == j) - x for j, x in enumerate(row)) for i, row in enumerate(m))
        assert sum(c * t ** (k - d) for d, c in enumerate(p)) == leibniz(shifted)
    if det in (1, -1):
        inv = A.mat_inverse(m)
        assert A.mat_mul(m, inv) == A.mat_mul(inv, m) == A.identity_matrix(k)
    else:
        with pytest.raises(A.AlgebraError, match=rf"^matrix is not unimodular \(det {det}\)$"):
            A.mat_inverse(m)


@st.composite
def unimodular(draw):
    """L D U: unit lower and upper triangles with entries in [-3, 3], D = diag(+-1)."""
    k = draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    low = tuple(tuple(draw(entries) if j < i else int(i == j) for j in range(k)) for i in range(k))
    up = tuple(tuple(draw(entries) if j > i else int(i == j) for j in range(k)) for i in range(k))
    signs = [draw(st.sampled_from((1, -1))) for _ in range(k)]
    return A.mat_mul(low, tuple(tuple(s * e for e in row) for s, row in zip(signs, up)))


@settings(max_examples=150, deadline=None)
@given(unimodular())
def test_mat_inverse_of_unimodular_matrices(m):
    k = len(m)
    inv = A.mat_inverse(m)
    assert A.mat_mul(m, inv) == A.mat_mul(inv, m) == A.identity_matrix(k)
    assert A.determinant(inv) == A.determinant(m) == leibniz(m) in (1, -1)
    assert all(type(e) is int for row in inv for e in row)


def test_charpoly_matches_numpy(rng):
    for _ in range(30):
        k = int(rng.integers(2, 5))
        m = tuple(tuple(int(c) for c in row) for row in rng.integers(-4, 5, (k, k)))
        exact = A.charpoly(m)
        approx = np.poly(np.array(m, dtype=float))
        assert np.allclose(exact, approx, atol=1e-6 * max(1, np.abs(approx).max()))


# ---------------------------------------------------------------------------
# Spectral invariants
# ---------------------------------------------------------------------------

def test_eigen_moduli_examples():
    assert A.eigen_moduli(A.identity_matrix(2)) == pytest.approx([1.0, 1.0])
    lo, hi = A.eigen_moduli(CAT)
    assert lo == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-9)
    assert hi == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-9)
    assert A.eigen_moduli(((0, -1), (1, 0))) == pytest.approx([1.0, 1.0])


def test_s_value_examples():
    assert A.s_value(A.identity_matrix(3)) == pytest.approx(0.0, abs=1e-10)
    assert A.s_value(CAT) == pytest.approx(CAT_S, abs=1e-9)
    assert A.s_value(((1, 1), (0, 1))) == pytest.approx(0.0, abs=1e-9)


def test_s_value_symmetries(rng):
    for m in sample_hyperbolic_lattice_matrices(rng, 2, 5):
        s = A.s_value(m)
        assert A.s_value(A.mat_inverse(m)) == pytest.approx(s, abs=1e-8)
        assert A.s_value(A.mat_transpose(m)) == pytest.approx(s, abs=1e-8)


def test_eigen_moduli_product_is_one(rng):
    for m in sample_hyperbolic_lattice_matrices(rng, 3, 5):
        assert np.prod(A.eigen_moduli(m)) == pytest.approx(1.0, abs=1e-8)


def unimodular_matrices(rng, k: int, count: int):
    """count seeded integer k x k matrices with entries in [-3, 3] and det +-1."""
    out = []
    while len(out) < count:
        draws = rng.integers(-3, 4, size=(4096, k, k))
        unimodular = draws[np.abs(np.rint(np.linalg.det(draws))) == 1]
        out += [tuple(map(tuple, m)) for m in unimodular.tolist()]
    return out[:count]


def reference_moduli(m) -> np.ndarray:
    """Sorted eigenvalue moduli: numpy's where the eigenvalues lie apart, else
    60-digit mpmath, since a float eigensolver moves a k-fold defective
    eigenvalue by about eps^(1/k) (1e-8 for a 2x2 Jordan block)."""
    ev = np.linalg.eigvals(np.array(m, dtype=float))
    if np.abs(ev[:, None] - ev[None, :])[~np.eye(len(m), dtype=bool)].min() > 1e-3:
        return np.sort(np.abs(ev))
    with mpmath.workdps(60):
        ev = mpmath.eig(mpmath.matrix(m), left=False, right=False)
        return np.sort([float(abs(z)) for z in ev])


def test_eigen_moduli_and_s_value_match_an_eigenvalue_oracle():
    rng = np.random.default_rng(1400)
    mats = unimodular_matrices(rng, 2, 200) + unimodular_matrices(rng, 3, 200)
    for m in mats:
        assert A.determinant(m) in (1, -1)
        ref = reference_moduli(m)
        np.testing.assert_allclose(A.eigen_moduli(m), ref, rtol=0, atol=1e-12, err_msg=str(m))
        assert abs(A.s_value(m) - max(abs(math.log(r)) for r in ref)) <= 1e-12, m


@pytest.mark.parametrize(
    "m, moduli",
    [
        (A.identity_matrix(2), [1, 1]),
        (((-1, 0), (0, -1)), [1, 1]),
        (A.identity_matrix(3), [1, 1, 1]),
        (((1, 1), (0, 1)), [1, 1]),
        (((0, -1), (1, 0)), [1, 1]),
        (((-1, 1, 0), (0, -1, 0), (0, 0, 1)), [1, 1, 1]),  # (t + 1)^2 (t - 1)
        (((1, 1, 0), (0, 1, 1), (0, 0, 1)), [1, 1, 1]),  # (t - 1)^3, one Jordan block
    ],
)
def test_eigen_moduli_of_repeated_factors(m, moduli):
    np.testing.assert_allclose(A.eigen_moduli(m), moduli, rtol=0, atol=1e-12)
    if moduli == [1] * len(m):
        assert A.s_value(m) <= 1e-12
    else:
        assert abs(A.s_value(m) - max(abs(math.log(r)) for r in moduli)) <= 1e-12


@pytest.mark.parametrize(
    "m",
    [
        ((2, 1, 0), (0, 2, 0), (0, 0, 3)),  # (t - 2)^2 (t - 3), det 12
        ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1)),  # (t^2 - 3t + 1)^2, 4x4
    ],
)
def test_eigen_moduli_and_s_value_reject_a_non_unimodular_or_4x4_matrix(m):
    # Only there can a root other than 1 and -1 repeat.
    for func in (A.eigen_moduli, A.s_value):
        with pytest.raises(A.AlgebraError, match="unimodular matrix of size at most 3"):
            func(m)


def test_s_value_of_the_bundled_lifts_matches_the_closed_forms():
    # The cat map [[2,1],[1,1]] has s = log((3 + sqrt 5)/2). The n=3 lift of
    # [[1,1,0],[1,2,1],[0,1,2]] has eigenvalues (2 cos(k pi/7))^2, k = 1, 2, 3,
    # so s = -2 log(2 cos(3 pi/7)). Both as their homology tasks see them.
    repo = Path(__file__).resolve().parents[1]
    with mpmath.workdps(40):
        closed = {
            "configs/catmap.json": mpmath.log((3 + mpmath.sqrt(5)) / 2),
            "perfbench/inputs/n3_metric_lift.json":
                -2 * mpmath.log(2 * mpmath.cos(3 * mpmath.pi / 7)),
        }
        for path, s in closed.items():
            i_mat = load_config(repo / path).contact_map.homology_matrix
            assert abs(A.s_value(i_mat) - s) <= 2e-15, path


def test_is_periodic_examples():
    assert A.is_periodic(A.identity_matrix(2)) == (True, 1)
    assert A.is_periodic(((0, -1), (1, 0))) == (True, 4)
    assert A.is_periodic(((1, 1), (0, 1))) == (False, None)
    assert A.is_periodic(CAT) == (False, None)


def brute_force_orders(mats, limit: int = 60) -> list:
    """The first d <= limit with m^d = I for each of the k x k mats (None if
    none), from exact powers of the whole batch as Python ints."""
    m = np.array(mats, dtype=object)
    first = np.zeros(len(mats), dtype=int)
    power = m
    for d in range(1, limit + 1):
        first[(power == np.eye(m.shape[1], dtype=int)).all(axis=(1, 2)) & (first == 0)] = d
        power = power @ m
    return [int(d) or None for d in first]


@pytest.mark.parametrize("k, entries", [(2, range(-3, 4)), (3, (-1, 0, 1))])
def test_is_periodic_matches_brute_force_powers(k, entries):
    mats = [
        tuple(tuple(e[k * i:k * i + k]) for i in range(k))
        for e in itertools.product(entries, repeat=k * k)
    ]
    mats = [m for m in mats if A.determinant(m) in (1, -1)]
    orders = brute_force_orders(mats)
    assert {1, 2, 3, 4, 6, None} <= set(orders)
    for m, order in zip(mats, orders):
        assert A.is_periodic(m) == (order is not None, order), m


def companion(p):
    """Companion matrix of the monic p, coefficients highest degree first."""
    k = len(p) - 1
    return tuple(
        tuple((1 if j == i - 1 else 0) if j < k - 1 else -p[k - i] for j in range(k))
        for i in range(k)
    )


def test_is_periodic_reaches_the_largest_finite_orders():
    assert A.is_periodic(companion([1, 0, -1, 0, 1])) == (True, 12)  # Phi_12
    phi10, phi3 = companion([1, -1, 1, -1, 1]), companion([1, 1, 1])
    block_sum = tuple(row + (0, 0) for row in phi10) + tuple((0,) * 4 + row for row in phi3)
    assert A.is_periodic(block_sum) == (True, 30)


def test_periodic_implies_zero_s():
    for m in (A.identity_matrix(3), ((0, -1), (1, 0)), ((0, -1), (1, -1))):
        periodic, _ = A.is_periodic(m)
        assert periodic
        assert A.s_value(m) <= 1e-8


def test_a_block_examples():
    ident = A.identity_matrix(3)
    block, l, m = A.a_block(ident)
    assert block == A.identity_matrix(2) and (l, m) == (0, 0)
    shear_action = ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    block, l, m = A.a_block(shear_action)
    assert block == A.identity_matrix(2) and (l, m) == (-1, 0)
    embedded = ((1, 0, 0), (0, 2, 1), (0, 1, 1))
    assert A.a_block(embedded)[0] == CAT
    with pytest.raises(A.AlgebraError, match="not representable"):
        A.a_block(((1, 0, 0), (1, 1, 0), (0, 0, 1)))


# ---------------------------------------------------------------------------
# Growth rates
# ---------------------------------------------------------------------------

def test_abelian_bar_s_examples():
    assert abelian_rate(A.identity_matrix(2), [(1, 0)], 40) == pytest.approx(0.0, abs=1e-9)
    assert abelian_rate(CAT, [(1, 0)], 40) == pytest.approx(CAT_S, abs=1e-3)
    assert abelian_rate(((1, 1), (0, 1)), [(0, 1)], 60) == pytest.approx(0.0, abs=0.05)


def test_abelian_bar_s_big_integers():
    # 200 iterations of the cat map overflow any fixed-width integer type.
    assert abelian_rate(CAT, [(1, 0)], 200) == pytest.approx(CAT_S, abs=1e-6)


def test_abelian_bar_s_errors():
    # Fewer than 10 iterates is a config error, through TASK_PARAMS.
    task = {"task": "growth", "matrix": [list(r) for r in CAT], "classes": [[1, 0]], "N": 9}
    with pytest.raises(ConfigError, match="growth N must be an integer >= 10"):
        validate_config({"tasks": [task]})
    with pytest.raises(A.AlgebraError, match="trivial"):
        A.abelian_lengths(CAT, (0, 0), 40)


# ---------------------------------------------------------------------------
# Free groups
# ---------------------------------------------------------------------------

def test_parse_word_roundtrips_through_the_identity_automorphism():
    w = A.parse_word("abAB")
    assert w == (1, 2, -1, -2)
    assert A.FreeAutomorphism.from_strings(["a", "b"]).apply(w) == w


letters = st.lists(st.integers(1, 3).flatmap(lambda g: st.sampled_from([g, -g])), max_size=30)


@settings(max_examples=100, deadline=None)
@given(letters)
def test_free_reduction_leaves_no_adjacent_inverses(w):
    red = A.FreeAutomorphism(((1,), (2,), (3,))).apply(w)  # the identity reduces freely
    assert all(red[i] != -red[i + 1] for i in range(len(red) - 1))


@settings(max_examples=100, deadline=None)
@given(letters)
def test_cyclic_reduce_idempotent_and_nonincreasing(w):
    once = A.cyclic_reduce(w)
    assert len(once) <= len(w)
    assert A.cyclic_reduce(once) == once
    if once:
        assert once[0] != -once[-1]


def test_cyclic_reduce_examples():
    assert A.cyclic_reduce(A.parse_word("abBA")) == ()
    assert A.cyclic_reduce(A.parse_word("abA")) == A.parse_word("b")
    assert A.cyclic_reduce(A.parse_word("bab")) == A.parse_word("bab")


# The per-letter stack reduction, kept here as the oracle for the byte kernel.
def stack_reduce(w):
    out = []
    for g in w:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def stack_cyclic(w):
    red = stack_reduce(w)
    while len(red) >= 2 and red[0] == -red[-1]:
        red = red[1:-1]
    return red


def stack_image(images, w):
    out = []
    for g in w:
        image = images[abs(g) - 1]
        out.extend(image if g > 0 else [-h for h in reversed(image)])
    return out


def stack_lengths(images, w, n_steps, cap):
    word = stack_cyclic(w)
    if not word:
        raise A.AlgebraError("trivial class")
    lengths = [len(word)]
    for _ in range(n_steps):
        word = stack_cyclic(stack_image(images, word))
        if not word:
            raise A.AlgebraError("trivial class reached under iteration")
        lengths.append(len(word))
        if len(word) > cap:
            break
    return lengths


@st.composite
def free_cases(draw):
    """Rules over 2-3 generators (inverses and empty images allowed, so not
    always automorphisms), a word of up to 12 letters, N and cap."""
    gens = draw(st.integers(2, 3))
    letter = st.integers(1, gens).flatmap(lambda g: st.sampled_from([g, -g]))
    images = tuple(tuple(draw(st.lists(letter, max_size=4))) for _ in range(gens))
    word = tuple(draw(st.lists(letter, max_size=12)))
    return images, word, draw(st.integers(1, 8)), draw(st.integers(1, 300))


# a -> a b^500, b -> b, c -> B^500 A c is an automorphism; on the word ac one
# junction cancels 1 002 letters.
CASCADE = ((1,) + (2,) * 500, (2,), (-2,) * 500 + (-1, 3))


@settings(max_examples=300, deadline=None)
@given(free_cases())
@example((((1, 2), (1,)), (1,), 8, 10))  # Fibonacci, stopped by the cap
@example((((1, 2), (1,)), (1, 2, -2, -1), 8, 300))  # trivial class
@example((((), (2,)), (1,), 8, 300))  # trivial under iteration
@example((CASCADE, (1, 3), 3, 10**6))
@example((((1, 2, -2, 1), (2,)), (1, 2), 6, 300))  # an image with a cancelling pair
@example((((1, 2), ()), (1,), 6, 300))  # an empty image
def test_free_lengths_match_the_stack_oracle(case):
    images, word, n_steps, cap = case
    sigma = A.FreeAutomorphism(images)
    identity = A.FreeAutomorphism(tuple((g,) for g in range(1, len(images) + 1)))
    assert identity.apply(word) == tuple(stack_reduce(word))
    assert A.cyclic_reduce(word) == tuple(stack_cyclic(word))
    assert sigma.apply(word) == tuple(stack_reduce(stack_image(images, word)))
    try:
        expected = stack_lengths(images, word, n_steps, cap)
    except A.AlgebraError as exc:
        with pytest.raises(A.AlgebraError, match=f"^{exc}$"):
            A.free_lengths(sigma, word, n_steps, cap)
    else:
        assert A.free_lengths(sigma, word, n_steps, cap) == expected


def test_free_lengths_deep_cascade():
    sigma = A.FreeAutomorphism(CASCADE)
    assert sigma._letter_counts(A._encode((1, 3))) is None  # the byte kernel runs
    lengths = A.free_lengths(sigma, (1, 3), 3, 10**6)
    assert lengths == [2, 1, 502, 1503]


def _no_kernel(self, word):
    raise AssertionError("the byte kernel ran")


def test_free_lengths_fibonacci_builds_no_word(monkeypatch):
    fib = A.FreeAutomorphism.from_strings(["ab", "a"])
    expected = stack_lengths(fib.images, (1,), 25, 10**6)
    monkeypatch.setattr(A.FreeAutomorphism, "_image", _no_kernel)
    assert A.free_lengths(fib, A.parse_word("a"), 25, 10**6) == expected
    assert expected[-1] == 196418


def test_free_lengths_fibonacci_exact_far_beyond_the_kernel(monkeypatch):
    fib_numbers = [1, 2]
    while len(fib_numbers) < 81:
        fib_numbers.append(fib_numbers[-1] + fib_numbers[-2])
    monkeypatch.setattr(A.FreeAutomorphism, "_image", _no_kernel)
    fib = A.FreeAutomorphism.from_strings(["ab", "a"])
    assert A.free_lengths(fib, A.parse_word("a"), 80, 10**30) == fib_numbers
    # the cap stops after the first length past it, as the kernel does
    assert A.free_lengths(fib, A.parse_word("a"), 80, 10) == fib_numbers[:6]


def test_free_lengths_fall_back_to_the_kernel_when_a_pair_cancels():
    sigma = A.FreeAutomorphism.from_strings(["ab", "B"])  # sigma^2(a) = ab.B cancels
    assert sigma._letter_counts(A._encode((1,))) is None
    expected = stack_lengths(sigma.images, (1,), 9, 10**6)
    assert A.free_lengths(sigma, (1,), 9, 10**6) == expected == [1, 2] * 5


def test_free_lengths_letter_counts_when_inverses_never_meet(monkeypatch):
    sigma = A.FreeAutomorphism.from_strings(["aB", "b"])
    expected = stack_lengths(sigma.images, (1,), 12, 10**6)
    monkeypatch.setattr(A.FreeAutomorphism, "_image", _no_kernel)
    assert A.free_lengths(sigma, A.parse_word("a"), 12, 10**6) == expected == list(range(1, 14))


def test_free_generator_without_a_rule_is_rejected():
    message = "^rules and word may only use generators that have a rule$"
    with pytest.raises(A.AlgebraError, match=message):
        A.FreeAutomorphism.from_strings(["ac", "a"])
    fib = A.FreeAutomorphism.from_strings(["ab", "a"])
    for word in ("c", "aC"):
        with pytest.raises(A.AlgebraError, match=message):
            fib.apply(A.parse_word(word))
        with pytest.raises(A.AlgebraError, match=message):
            A.free_lengths(fib, A.parse_word(word), 5, 100)


def test_free_words_generator_limit():
    assert A.cyclic_reduce((128, -128, 1)) == (1,)
    for bad in ((129,), (0,)):
        with pytest.raises(A.AlgebraError, match="generators"):
            A.cyclic_reduce(bad)


def free_rate(sigma, word, n_steps):
    """The growth task's free rate, at its default cap."""
    return A.length_growth_rate(A.free_lengths(sigma, A.parse_word(word), n_steps, 10**6))


def test_free_growth_fibonacci():
    sigma = A.FreeAutomorphism.from_strings(["ab", "a"])
    assert free_rate(sigma, "a", 25) == pytest.approx(math.log(GOLDEN), abs=1e-3)


def test_free_growth_swap_and_identity():
    swap = A.FreeAutomorphism.from_strings(["b", "a"])
    assert free_rate(swap, "ab", 10) == pytest.approx(0.0, abs=1e-9)
    ident = A.FreeAutomorphism.from_strings(["a", "b"])
    assert free_rate(ident, "a", 10) == pytest.approx(0.0, abs=1e-9)


def test_free_growth_trivial_class_error():
    sigma = A.FreeAutomorphism.from_strings(["ab", "a"])
    with pytest.raises(A.AlgebraError, match="trivial"):
        free_rate(sigma, "abBA", 10)


def test_free_rules_and_words_must_be_strings_in_a_list():
    with pytest.raises(A.AlgebraError, match="list"):
        A.FreeAutomorphism.from_strings("ab")
    with pytest.raises(A.AlgebraError, match="string"):
        A.FreeAutomorphism.from_strings([["a"], "b"])
    with pytest.raises(A.AlgebraError, match="string"):
        A.parse_word(["a"])


def test_length_growth_rate_floors_at_zero():
    assert A.length_growth_rate([1, 2]) == 0.0
    assert A.length_growth_rate([8, 4, 2, 1]) == 0.0
    assert A.length_growth_rate([2**k for k in range(12)]) == pytest.approx(math.log(2))
    assert A.length_growth_rate([8, 4, 2, 1], [3**k for k in range(12)], [1, 2]) == pytest.approx(
        math.log(3)
    )


# ---------------------------------------------------------------------------
# Random hyperbolic sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_sampled_matrices_are_hyperbolic_unimodular(rng, dim):
    mats = sample_hyperbolic_lattice_matrices(rng, dim, 5)
    for m in mats:
        assert A.determinant(m) in (1, -1)
        assert A.s_value(m) > 0.1
        assert max(abs(e) for row in m for e in row) <= 5


# ---------------------------------------------------------------------------
# Least-squares line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [2, 3, 15, 40])
def test_line_fit_matches_polyfit(rng, count):
    xs = np.arange(count, dtype=float) + 3.0
    ys = 0.7 * xs + rng.normal(size=count)
    slope, intercept = A.line_fit(xs, ys)
    ref = np.polyfit(xs, ys, 1)
    assert abs(slope - ref[0]) <= 1e-12 and abs(intercept - ref[1]) <= 1e-12


def test_line_fit_is_exact_on_a_line():
    xs = np.arange(10)
    assert A.line_fit(xs, 2.0 * xs + 1.0) == (2.0, 1.0)
    assert A.growth_slope([CAT_S * k for k in range(30)]) == pytest.approx(CAT_S, rel=1e-15)


@pytest.mark.parametrize(
    "xs, ys",
    [([1.0], [2.0]), ([1.0, 2.0], [1.0, 2.0, 3.0]), ([[1.0, 2.0]], [[1.0, 2.0]])],
    ids=["one_point", "lengths_differ", "not_1d"],
)
def test_line_fit_rejects_too_few_or_mismatched_points(xs, ys):
    with pytest.raises(A.AlgebraError, match="line fit"):
        A.line_fit(xs, ys)
