"""lame2.arith against independent oracles: brute force, known tables, matrices."""

import random
from math import gcd, isqrt

import pytest

from lame2.arith import (_SMALL, _strong_lucas_prp, _strong_prp, divisors,
                         factorint, integer_nthroot, is_prime, mobius,
                         order_from_multiple, power_sum)
from lame2.common import VerificationError
from lame2.gf2 import GF
from lame2.hyper import HyperellipticCurve, jacobian_order

N_BRUTE = 10 ** 4


def _brute_factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _brute_prime(n):
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


# -- small n: everything against trial division ------------------------------------


def test_factorint_divisors_mobius_match_brute_force():
    divs = [[] for _ in range(N_BRUTE + 1)]
    for k in range(1, N_BRUTE + 1):
        for m in range(k, N_BRUTE + 1, k):
            divs[m].append(k)
    for n in range(1, N_BRUTE + 1):
        f, got = _brute_factor(n), factorint(n)
        assert got == f and list(got) == sorted(f), n
        assert divisors(n) == divs[n], n
        want = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
        assert mobius(n) == want, n


def test_small_primes_match_trial_division():
    # the sieve behind is_prime's table against trial division below 1000
    assert _SMALL == [p for p in range(1000) if _brute_prime(p)]
    assert len(_SMALL) == 168 and _SMALL[-1] == 997


def test_is_prime_matches_brute_force():
    assert [n for n in range(N_BRUTE) if is_prime(n)] == \
        [n for n in range(N_BRUTE) if _brute_prime(n)]


def test_nonpositive_inputs_rejected():
    for bad in (0, -1, -12):
        with pytest.raises(ValueError):
            factorint(bad)
    with pytest.raises(ValueError):
        integer_nthroot(-8, 3)


# -- the probable-prime tests, each against its own pseudoprime table --------------

# strong pseudoprimes to base 2 (OEIS A001262) and strong Lucas pseudoprimes
# with Selfridge's parameters (OEIS A217255), all below 20000
SPSP2 = {2047, 3277, 4033, 4681, 8321, 15841}
SLPSP = {5459, 5777, 10877, 16109, 18971}


def test_miller_rabin_base_two_fails_only_on_its_pseudoprimes():
    liars = {n for n in range(3, 20000, 2)
             if _strong_prp(n, 2) != _brute_prime(n)}
    assert liars == SPSP2


def test_strong_lucas_fails_only_on_its_pseudoprimes():
    # the test takes odd non-squares; above 1000 no prime can divide the
    # small Selfridge D it lands on
    liars = {n for n in range(1001, 20000, 2)
             if isqrt(n) ** 2 != n and _strong_lucas_prp(n) != _brute_prime(n)}
    assert liars == SLPSP


# -- hand-picked hard cases ------------------------------------------------------

HARD = {
    # prime squares and cubes
    1000003 ** 2: {1000003: 2},
    1000003 ** 3: {1000003: 3},
    (2 ** 31 - 1) ** 2: {2147483647: 2},
    (2 ** 43 + 1) ** 2: {3: 2, 2932031007403: 2},
    # Carmichael numbers, the last of Chernick's form (6k+1)(12k+1)(18k+1)
    561: {3: 1, 11: 1, 17: 1},
    41041: {7: 1, 11: 1, 13: 1, 41: 1},
    321197185: {5: 1, 19: 1, 23: 1, 29: 1, 37: 1, 137: 1},
    1299963601: {601: 1, 1201: 1, 1801: 1},
    # strong pseudoprimes to every prime base up to 2, 3, 5, 7, 11, 13, 17, 23
    2047: {23: 1, 89: 1},
    1373653: {829: 1, 1657: 1},
    25326001: {2251: 1, 11251: 1},
    3215031751: {151: 1, 751: 1, 28351: 1},
    2152302898747: {6763: 1, 10627: 1, 29947: 1},
    3474749660383: {1303: 1, 16927: 1, 157543: 1},
    341550071728321: {10670053: 1, 32010157: 1},
    3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
    # Mersenne numbers, and a product past the Miller-Rabin range
    2 ** 61 - 1: {2 ** 61 - 1: 1},
    2 ** 67 - 1: {193707721: 1, 761838257287: 1},
    2 ** 89 - 1: {2 ** 89 - 1: 1},
    (2 ** 31 - 1) * (2 ** 61 - 1): {2 ** 31 - 1: 1, 2 ** 61 - 1: 1},
    # supersingular group orders 2^d + 1 and (2^m +- 1)^2
    2 ** 64 + 1: {274177: 1, 67280421310721: 1},
    2 ** 89 + 1: {3: 1, 179: 1, 62020897: 1, 18584774046020617: 1},
    2 ** 96 + 1: {641: 1, 6700417: 1, 18446744069414584321: 1},
    (2 ** 47 - 1) ** 2: {2351: 2, 4513: 2, 13264529: 2},
}


@pytest.mark.parametrize("n", sorted(HARD))
def test_factorint_hard_cases(n):
    assert factorint(n) == HARD[n]
    assert list(factorint(n)) == sorted(HARD[n])


def test_primality_at_the_deterministic_limit():
    # psi_12 and psi_13 fool Miller-Rabin to every prime base up to 37 and
    # 41; psi_13 is the 3.3e24 bound itself, so Baillie-PSW must catch it
    for n in (318665857834031151167461, 3317044064679887385961981,
              2 ** 101 - 1):
        assert not is_prime(n)
    for n in (2 ** 107 - 1, 2 ** 127 - 1, 18446744069414584321):
        assert is_prime(n)


def test_supersingular_orders_factor_completely():
    orders = [(1 << d) + 1 for d in range(1, 97)]
    orders += [((1 << m) + s) ** 2 for m in range(1, 49) for s in (1, -1)]
    for n in orders:
        if n == 1:  # (2^1 - 1)^2
            continue
        f = factorint(n)
        assert list(f) == sorted(f)
        prod = 1
        for p, e in f.items():
            assert is_prime(p) and e >= 1
            prod *= p ** e
        assert prod == n


def test_integer_nthroot_exact_and_off_by_one():
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randrange(10 ** 99, 10 ** 100)
        assert integer_nthroot(r ** 3, 3) == (r, True)
        assert integer_nthroot(r ** 3 + 1, 3) == (r, False)
        assert integer_nthroot(r ** 3 - 1, 3) == (r - 1, False)
    assert integer_nthroot(0, 3) == (0, True)
    assert integer_nthroot(1, 5) == (1, True)
    assert integer_nthroot(26, 1) == (26, True)


# -- jacobian_order against det(I - M^d) ------------------------------------------


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _bareiss_det(A):
    A = [row[:] for row in A]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap], sign = A[swap], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def _det_order(L, d):
    """det(I - M^d), M the companion matrix of T^(2g) L(1/T)."""
    deg = len(L) - 1
    M = [[0] * deg for _ in range(deg)]
    for i in range(1, deg):
        M[i][i - 1] = 1
    for i in range(deg):
        M[i][deg - 1] = -L[deg - i]
    P = [[int(i == j) for j in range(deg)] for i in range(deg)]
    for _ in range(d):
        P = _matmul(P, M)
    return _bareiss_det([[int(i == j) - P[i][j] for j in range(deg)]
                         for i in range(deg)])


def test_bareiss_determinant_oracle():
    assert _bareiss_det([[2, 0], [0, 3]]) == 6
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3


def test_jacobian_order_matches_matrix_determinant():
    rng = random.Random(5)
    polys = [HyperellipticCurve(GF(1), g).lpoly() for g in (1, 2, 3)]
    for g in (1, 2, 3):
        for _ in range(4):
            polys.append([1] + [rng.randint(-9, 9) for _ in range(2 * g)])
    for L in polys:
        for d in range(1, 13):
            assert jacobian_order(L, d) == _det_order(L, d), (L, d)
        assert jacobian_order(L, 1) == sum(L)


def test_genus_one_jacobian_order_is_the_point_count():
    L = HyperellipticCurve(GF(1), 1).lpoly()
    for d in range(1, 13):
        assert jacobian_order(L, d) == \
            HyperellipticCurve(GF(d), 1).count_points()


def test_jacobian_order_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobian_order([1], 2)
    with pytest.raises(ValueError):
        jacobian_order([1, 0, 2], 0)


def test_order_from_multiple_in_cyclic_groups():
    # in Z/M, a has order M / gcd(a, M); M runs over 1, prime powers and
    # numbers with many primes, a over 0, 1, the cofactors M/p and draws
    rng = random.Random(29)
    for M in range(1, 2001):
        def times(k, y):
            return k * y % M

        def is_zero(y):
            return y == 0
        primes = factorint(M)
        for a in {0, 1 % M, *(M // p for p in primes),
                  *(rng.randrange(M) for _ in range(3))}:
            assert order_from_multiple(M, a, times, is_zero) == M // gcd(a, M)
        # a generator is killed by no proper divisor of M
        for p in primes:
            with pytest.raises(VerificationError):
                order_from_multiple(M // p, 1, times, is_zero)
    with pytest.raises(VerificationError):
        order_from_multiple(5, 1, lambda k, y: k * y % 7, lambda y: y == 0)
    with pytest.raises(VerificationError):
        order_from_multiple(1, 3, lambda k, y: k * y % 7, lambda y: y == 0)


def test_power_sum_matches_the_roots():
    # L = prod (1 - a_i T) over random integer a_i: s_k = sum a_i^k, and
    # s_0 is the number of roots, deg L
    rng = random.Random(11)
    for _ in range(100):
        roots = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        L = [1]
        for a in roots:
            L = [c - a * b for c, b in zip(L + [0], [0] + L)]
        assert power_sum(L, 0) == len(L) - 1 == len(roots)
        for k in range(12):
            assert power_sum(L, k) == sum(a ** k for a in roots), (roots, k)
    with pytest.raises(ValueError):
        power_sum([1, 0, 2], -1)
