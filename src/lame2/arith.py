"""Integer number theory: primality, factoring, divisors, roots.

Primality is Miller-Rabin to the first thirteen prime bases below 3.3e24,
where it is deterministic (Sorenson-Webster 2015), and Baillie-PSW above,
which has no known counterexample.
"""

from math import gcd, isqrt, prod

from .common import VerificationError


def _primes_below(n: int) -> list:  # Eratosthenes: s[k] = 1 iff k is prime
    s = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if s[p]:
            s[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p, v in enumerate(s) if v]


_SMALL = _primes_below(1000)


def _strong_prp(n: int, a: int) -> bool:
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s))


def _jacobi(a: int, n: int) -> int:
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a, t = a // 2, -t if n % 8 in (3, 5) else t
        a, n, t = n % a, a, -t if a % 4 == n % 4 == 3 else t
    return t if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd non-square n.

    Selfridge's parameters P = 1, Q = (1 - D)/4; with n + 1 = d 2^s, n
    passes when U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.
    """
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    Q, s = (1 - D) // 4, ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k, Q^k at k = 1, then up the bits of d
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # U_(k+1) = (U + V)/2, V_(k+1) = (D U + V)/2 mod n
            U, V = [(x + n * (x & 1)) // 2 % n for x in (U + V, D * U + V)]
            Qk = Qk * Q % n
    hits = [U, V]
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        hits.append(V)
    return j == -1 and 0 in hits


def is_prime(n: int) -> bool:
    if n < _SMALL[-1] ** 2:
        return n > 1 and all(n % p for p in _SMALL if p * p <= n)
    if n < 3317044064679887385961981:
        return all(_strong_prp(n, a) for a in _SMALL[:13])
    return _strong_prp(n, 2) and isqrt(n) ** 2 != n and _strong_lucas_prp(n)


def _rho(n: int) -> int:
    """A proper factor of a composite non-power n: Pollard rho, Brent's cycles.

    gcds are taken of products of 128 differences; a batch that overshoots
    to n is replayed one step at a time.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no factor of {n}")  # pragma: no cover


def factorint(n: int) -> dict:
    """{p: e} with n = prod p^e, primes ascending, each one passing is_prime."""
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    out = {}
    for p in _SMALL:
        if p * p > n:
            break
        while n % p == 0:
            out[p], n = out.get(p, 0) + 1, n // p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # no prime below 1000 divides m, so m = r^k forces 1000^k <= m
        roots = (r for k in range(2, m.bit_length() // 9 + 1)
                 for r, exact in [integer_nthroot(m, k)] if exact)
        f = next(roots, None) or _rho(m)
        stack += [f, m // f]
    return dict(sorted(out.items()))


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def order_from_multiple(N: int, x, times, is_identity) -> int:
    """Order of the group element x from a multiple N of it.

    times(k, y) is k y and is_identity(y) tests for the identity.  A product
    tree over the prime powers p^e || N gives each (N / p^e) x with O(log)
    multiplications per level, and a node already at the identity passes it
    to all its leaves.  The order of (N / p^e) x is the p-part of the order
    of x, found by multiplying by p until the identity (Sutherland, "Order
    computations in generic groups", 2007); missing it within e steps means
    N x != 0, which raises, so N is certified to kill x.
    """
    def split(y, parts):  # [(p, e, (N / p^e) x)] for y = (N / prod parts) x
        if len(parts) == 1 or is_identity(y):
            return [(p, e, y) for p, e in parts]
        left, right = parts[:len(parts) // 2], parts[len(parts) // 2:]
        return (split(times(prod(p ** e for p, e in right), y), left)
                + split(times(prod(p ** e for p, e in left), y), right))

    order = 1
    for p, e, y in split(x, list(factorint(N).items()) or [(1, 0)]):
        k = 0
        while not is_identity(y):
            if k == e:
                raise VerificationError(f"{N} does not annihilate the element")
            y, k = times(p, y), k + 1
        order *= p ** k
    return order


def power_sum(L: list, k: int) -> int:
    """s_k, the sum of the k-th powers of the inverse roots of L.

    L = [1, c_1, ..., c_n] = prod_i (1 - alpha_i T), so s_0 = n and, by
    Newton's identities, s_j = -j c_j - sum_(i < j) c_i s_(j-i) with c_i = 0
    past n.  #C(F_(q^k)) = q^k + 1 - s_k for the L-polynomial of a curve.
    """
    if k < 0:
        raise ValueError(f"power sums need k >= 0, got {k}")
    n = len(L) - 1
    s = [n]
    for j in range(1, k + 1):
        s.append(-(j * L[j] if j <= n else 0)
                 - sum(L[i] * s[j - i] for i in range(1, min(j - 1, n) + 1)))
    return s[k]


def mobius(n: int) -> int:
    f = factorint(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def integer_nthroot(n: int, k: int) -> tuple:
    """(floor(n^(1/k)), exact), by integer Newton iteration from above."""
    if n < 0 or k < 1:
        raise ValueError("integer_nthroot needs n >= 0 and k >= 1")
    if n < 2:
        return n, True
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x, x ** k == n
