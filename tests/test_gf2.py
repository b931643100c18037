"""Field layer: axioms, trace machinery, roots, embeddings.

Oracles used here are deliberately independent of the implementation:
list-based schoolbook polynomial arithmetic for products and reductions,
exhaustive enumeration for trace kernels and root sets, and trial division
for irreducibility of the canonical moduli.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import lame2
from lame2 import (GF, FieldContext, FieldElement, FieldInputError, Poly,
                   VerificationError, embed, element_degree, gf2,
                   lexmin_irreducible, poly_roots, solve_artin_schreier, trace)
from lame2.arith import divisors
from lame2.gf2 import (_TABLE_MAX_DEGREE, _Modulus, _bit_poly, _comb,
                       _distinct_degree, _embed_gen, _field_kernel,
                       _frobenius_rows, _is_irreducible, _orbits, _pmod,
                       _root_multiplicity, _split_once,
                       _table_kernel, _trace_mod, _traces)


# ---------------------------------------------------------------------------
# oracle helpers (schoolbook, list-based; no bit packing)

def from_roots(ctx, roots):
    """The monic polynomial prod (x - r) over the roots, bits or elements."""
    p = Poly.one(ctx)
    for r in roots:
        p = p * Poly(ctx, [r.bits if isinstance(r, FieldElement) else r, 1])
    return p


def bits_to_list(b):
    out = []
    while b:
        out.append(b & 1)
        b >>= 1
    return out


def list_to_bits(lst):
    b = 0
    for i, c in enumerate(lst):
        if c:
            b |= 1 << i
    return b


def naive_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_mod(a, m):
    a = list(a)
    while len(a) >= len(m):
        if a[-1]:
            shift = len(a) - len(m)
            for i, c in enumerate(m):
                a[shift + i] ^= c
        while a and a[-1] == 0:
            a.pop()
    return a


def naive_field_mul(abits, bbits, mbits):
    prod = naive_mul(bits_to_list(abits), bits_to_list(bbits))
    return list_to_bits(naive_mod(prod, bits_to_list(mbits)))


def naive_is_irreducible(mbits, d):
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 < 1:
            continue
        if list_to_bits(naive_mod(bits_to_list(mbits), bits_to_list(g))) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical moduli

def test_canonical_moduli_small_frozen():
    # hand-checked: x, x^2+x+1, x^3+x+1, x^4+x+1
    assert lexmin_irreducible(1) == 0b10
    assert lexmin_irreducible(2) == 0b111
    assert lexmin_irreducible(3) == 0b1011
    assert lexmin_irreducible(4) == 0b10011


@pytest.mark.parametrize("d", range(1, 11))
def test_canonical_moduli_minimal(d):
    m = lexmin_irreducible(d)
    assert m >> d == 1
    assert naive_is_irreducible(m, d)
    for smaller in range(1 << d, m):
        assert not naive_is_irreducible(smaller, d)


def _unfiltered_lexmin(d):
    m = 1 << d
    while not _is_irreducible(m, d):
        m += 1
    return m


def test_canonical_moduli_match_the_unfiltered_search():
    for d in range(1, 65):
        assert lexmin_irreducible(d) == _unfiltered_lexmin(d), d


def test_canonical_moduli_skip_polynomials_with_a_root(monkeypatch):
    # only odd m of odd weight with no factor of degree dividing j, 2^j < d,
    # reach the Rabin test; every m from 2^d made 58 tests at d = 40 and 46
    # at d = 48, and the odd m of odd weight 15 and 12
    calls = []
    real = gf2._is_irreducible
    monkeypatch.setattr(gf2, "_is_irreducible",
                        lambda m, d: calls.append(m) or real(m, d))
    counts = []
    for d in (40, 48):
        calls.clear()
        lexmin_irreducible(d)
        counts.append(len(calls))
    assert counts == [6, 5]


def test_one_context_per_degree():
    # FieldContext(d) is GF(d): the kernel and the tables are built once
    ctx = GF(8)
    assert FieldContext(8) is ctx and ctx.modulus == lexmin_irreducible(8)
    assert FieldContext(8).mul is ctx.mul
    assert GF(24) is not GF(8)


@pytest.mark.parametrize("bad, error", [
    (True, TypeError), (False, TypeError), (2.0, TypeError), ("8", TypeError),
    (None, TypeError), (0, ValueError), (-1, ValueError)])
def test_context_degree_is_checked(bad, error):
    # only an int >= 1 that is not a bool names a field, and nothing else is
    # cached as one
    with pytest.raises(error, match="field degree"):
        GF(bad)
    assert all(type(ctx.degree) is int and ctx.degree >= 1
               for ctx in gf2._CANONICAL.values())


# ---------------------------------------------------------------------------
# ring axioms against the schoolbook oracle

@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 11, 24])
def test_mul_matches_schoolbook(d):
    ctx = GF(d)
    rng = random.Random(d)
    for _ in range(300):
        a, b = ctx.random(rng), ctx.random(rng)
        assert (a * b).bits == naive_field_mul(a.bits, b.bits, ctx.modulus)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 24])
def test_field_axioms(d):
    ctx = GF(d)
    rng = random.Random(100 + d)
    one, zero = ctx.one, ctx.zero
    for _ in range(500):
        a, b, c = ctx.random(rng), ctx.random(rng), ctx.random(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == zero
        assert a * one == a
        if a != zero:
            assert a * a.inverse() == one
            assert (a / a) == one
        assert a.square() == a * a
        assert a.sqrt().square() == a


# ---------------------------------------------------------------------------
# the context's raw-int kernel against the bit-at-a-time loops it replaced

def reference_pmul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def reference_pmod(a, m):
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def reference_psq(a):
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (2 * i)
        a >>= 1
        i += 1
    return r


def reference_pinvmod(a, m):
    # extended Euclid by long division
    r0, r1 = m, reference_pmod(a, m)
    if r1 == 0:
        raise ZeroDivisionError("inversion of zero")
    s0, s1 = 0, 1
    while r1:
        q, r = 0, r0
        while r.bit_length() >= r1.bit_length():
            shift = r.bit_length() - r1.bit_length()
            q ^= 1 << shift
            r ^= r1 << shift
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ reference_pmul(q, s1)
    assert r0 == 1
    return reference_pmod(s0, m)


def check_kernel(ctx, rng, naive_pairs):
    d, m = ctx.degree, ctx.modulus
    edges = [0, 1, 1 << (d - 1), (1 << d) - 1]
    if d <= 6:
        ops = list(range(1 << d))
        pairs = [(a, b) for a in ops for b in ops]
    else:
        # random widths reach the tables for d <= 12, and above that both
        # the set-bit loop and the comb
        ops = edges + [rng.getrandbits(rng.randint(1, d)) for _ in range(40)]
        pairs = ([(a, b) for a in edges for b in ops]
                 + [(b, a) for a in edges for b in ops]
                 + [(rng.getrandbits(d), rng.getrandbits(d)) for _ in range(100)])
    for i, (a, b) in enumerate(pairs):
        want = reference_pmod(reference_pmul(a, b), m)
        assert ctx.mul(a, b) == want, (d, a, b)
        if i < naive_pairs:
            assert want == naive_field_mul(a, b, m)
    for a in ops:
        assert ctx.sqr(a) == reference_pmod(reference_psq(a), m), (d, a)
        if a:
            inv = ctx.inv(a)
            assert inv == reference_pinvmod(a, m), (d, a)
            assert ctx.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("d", list(range(1, 13)) + [24, 40, 48, 96, 200])
def test_kernel_matches_bit_loops(d):
    # exhaustive for d <= 6; the lexmin moduli have their taps at or below
    # d/2, so contexts without tables reduce in at most two fold rounds
    ctx = GF(d)
    assert (ctx.modulus ^ (1 << d)).bit_length() - 1 <= d // 2
    check_kernel(ctx, random.Random(d), 1 << 12 if d <= 12 else 20)


class DenseField:
    """F_(2^d) on a dense modulus m, which no context uses.

    It holds the raw kernel ``_field_kernel(d, m)`` and the attributes that
    elements, Poly and the packed rows read of a context; the kernel and the
    rows are written for any modulus, and only a tap above d/2 makes them
    fold in more than two rounds.
    """

    def __init__(self, d, m):
        self.degree, self.modulus = d, m
        self.mul, self.sqr, self.inv = _field_kernel(d, m)
        self.zero, self.one = FieldElement(self, 0), FieldElement(self, 1)

    # the constructor rule Poly reads, as bits and as an element
    bits_of, __call__ = FieldContext.bits_of, FieldContext.__call__

    def elements(self):
        return (FieldElement(self, b) for b in range(1 << self.degree))


def dense_field(d):
    # the least irreducible modulus with a tap at d - 1, above d/2
    m = (1 << d) | (1 << (d - 1)) | 1
    while not _is_irreducible(m, d):
        m += 2
    assert (m ^ (1 << d)).bit_length() - 1 > d // 2
    return DenseField(d, m)


@pytest.mark.parametrize("d", [5, 8, 24, 48])
def test_kernel_on_a_dense_modulus(d):
    # a modulus with a tap above d/2 takes more than two fold rounds
    check_kernel(dense_field(d), random.Random(d), 20)


def uses_tables(ctx):
    return ctx.inv.__qualname__.startswith("_table_kernel.")


def test_tables_exactly_from_degree_2_to_12():
    assert _TABLE_MAX_DEGREE == 12
    assert [d for d in range(1, 25) if uses_tables(GF(d))] == list(range(2, 13))


@pytest.mark.parametrize("d", range(2, 13))
def test_table_kernel_matches_the_bit_loops(d):
    # every pair up to d = 8, then 2,000 random pairs; the oracle is the
    # kernel that d = 1 and d > 12 use, on the same modulus
    ctx = GF(d)
    mul, sqr, inv = _field_kernel(d, ctx.modulus)
    if d <= 8:
        pairs = [(a, b) for a in range(1 << d) for b in range(1 << d)]
        ops = range(1 << d)
    else:
        rng = random.Random(1000 + d)
        pairs = [(rng.getrandbits(d), rng.getrandbits(d)) for _ in range(2000)]
        ops = [a for a, _ in pairs] + [0, 1, (1 << d) - 1]
    for a, b in pairs:
        assert ctx.mul(a, b) == mul(a, b), (d, a, b)
    for a in ops:
        assert ctx.sqr(a) == sqr(a), (d, a)
        if a:
            assert ctx.inv(a) == inv(a), (d, a)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_table_certificate_refuses_a_non_primitive_element(monkeypatch):
    # with the order test emptied every candidate passes it, so the builder
    # is handed g = x, of order 51 (not 255) mod x^8 + x^4 + x^3 + x + 1; the
    # walk returns to 1 early and the certificate must refuse it
    ctx = GF(8)
    assert ctx.modulus == 0x11b
    monkeypatch.setattr(gf2, "factorint", lambda n: {})
    with pytest.raises(VerificationError):
        _table_kernel(ctx)


def test_irreducibility_test_builds_no_tables(monkeypatch):
    def refuse(ctx):
        raise AssertionError("tables built for a candidate modulus")
    monkeypatch.setattr(gf2, "_table_kernel", refuse)
    for d in range(2, 13):
        found = [m for m in range(1 << d, (1 << d) + 64)
                 if _is_irreducible(m, d)]
        assert found[0] == lexmin_irreducible(d)


def test_import_builds_no_field_context():
    # importing the package and its CLI must build no context and no packing
    # state, so that no table build is paid at import time
    code = ("import lame2, lame2.cli\n"
            "from lame2 import gf2\n"
            "print(len(gf2._CANONICAL), len(gf2._Modulus.sweep))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lame2.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_division_by_zero():
    ctx = GF(4)
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        GF(2).one + GF(3).one


def test_f4_generator_relation():
    # the canonical F_4 generator g satisfies g^2 = g + 1, so g * (g+1) = 1
    ctx = GF(2)
    g = ctx(0b10)
    assert g * (g + ctx.one) == ctx.one
    assert g ** 3 == ctx.one


# ---------------------------------------------------------------------------
# trace and Artin-Schreier

@pytest.mark.parametrize("d", range(1, 9))
def test_trace_exhaustive(d):
    ctx = GF(d)
    kernel = 0
    for a in ctx.elements():
        t = trace(a)
        assert t in (0, 1)
        assert trace(a.square()) == t
        full = sum(a.frobenius(i) for i in range(d))
        assert full == ctx(t)
        if t == 0:
            kernel += 1
    assert kernel == 1 << (d - 1)


def reference_trace_mask(ctx):
    # bit i is Tr(x^i) = sum_(j<d) x^(i 2^j), by d squarings for each i
    mask = 0
    for i in range(ctx.degree):
        t, a = 0, 1 << i
        for _ in range(ctx.degree):
            t ^= a
            a = ctx.sqr(a)
        assert t in (0, 1)  # the trace lands in GF(2)
        mask |= t << i
    return mask


@pytest.mark.parametrize("d", list(range(1, 17)) + [24, 40, 48, 96, 200])
def test_trace_mask_matches_the_squaring_loop(d):
    # the Artin-Schreier table's null row against the trace by definition
    ctx = GF(d)
    assert ctx.trace_mask() == reference_trace_mask(ctx)


@pytest.mark.parametrize("square", [lambda a: a, lambda a: 0],
                         ids=["kernel-everything", "kernel-zero"])
def test_artin_schreier_table_refuses_a_wrong_kernel(monkeypatch, square):
    # with squaring replaced by the identity, y -> y^2 + y is zero and every
    # image reduces to zero; replaced by zero, the map is the identity and no
    # image does; the kernel of the true map is {0, 1}, so the table needs one
    ctx = GF(8)
    monkeypatch.setattr(ctx, "sqr", square)
    monkeypatch.setattr(ctx, "_as_rows", None)
    with pytest.raises(VerificationError, match="kernel"):
        ctx._artin_schreier_rows()


@pytest.mark.parametrize("d", range(1, 9))
def test_artin_schreier_exhaustive(d):
    ctx = GF(d)
    for c in ctx.elements():
        sols = solve_artin_schreier(c)
        if trace(c):
            assert sols == ()
        else:
            assert len(sols) == 2
            y0, y1 = sols
            assert y0 + y1 == ctx.one
            for y in sols:
                assert y.square() + y == c


def test_artin_schreier_large_degrees():
    for d in (11, 12, 23, 24):
        ctx = GF(d)
        rng = random.Random(d)
        solved = 0
        for _ in range(200):
            c = ctx.random(rng)
            sols = solve_artin_schreier(c)
            if sols:
                solved += 1
                assert sols[0].square() + sols[0] == c
            else:
                assert trace(c) == 1
        assert solved > 50


@pytest.mark.parametrize("d", [5, 11, 25, 47])
def test_artin_schreier_odd_degrees_match_the_half_trace(d):
    # at odd d the half-trace sum_(2i<d) c^(4^i) solves y^2 + y = c whenever
    # Tr(c) = 0; the linear system must give the same pair
    ctx = GF(d)
    rng = random.Random(200 + d)
    for _ in range(30):
        c = ctx.random(rng)
        sols = solve_artin_schreier(c)
        if trace(c):
            assert sols == ()
            continue
        h = acc = c
        for _ in range((d - 1) // 2):
            acc = acc.square().square()
            h = h + acc
        assert set(sols) == {h, h + ctx.one}


def reference_artin_schreier_rows(ctx):
    """The row-RREF table the echelon basis replaced: the d x d matrix of
    y -> y^2 + y transposed into rows, each with its transform mask, reduced;
    returns (pivots, nullrow), pivots as (column, transform-mask) pairs."""
    d = ctx.degree
    cols = [ctx.sqr(1 << j) ^ (1 << j) for j in range(d)]
    rows = [[sum(((cols[j] >> i) & 1) << j for j in range(d)), 1 << i]
            for i in range(d)]
    pivot_at, used = [], [False] * d
    for col in range(d):
        pivot = next((i for i in range(d)
                      if not used[i] and (rows[i][0] >> col) & 1), None)
        if pivot is None:
            continue
        used[pivot] = True
        for i in range(d):
            if i != pivot and (rows[i][0] >> col) & 1:
                rows[i][0] ^= rows[pivot][0]
                rows[i][1] ^= rows[pivot][1]
        pivot_at.append((col, pivot))
    nullrows = [rows[i][1] for i in range(d) if rows[i][0] == 0]
    if len(nullrows) != 1:
        raise VerificationError(
            f"y^2 + y has a kernel of rank {len(nullrows)}, not 1")
    return [(col, rows[i][1]) for col, i in pivot_at], nullrows[0]


def reference_solve_artin_schreier(c, table):
    """y^2 + y = c read off the row table: () or (y, y + 1), as bits."""
    pivots, nullrow = table
    if (c.bits & nullrow).bit_count() & 1:
        return ()
    yb = sum(1 << col for col, mask in pivots
             if (c.bits & mask).bit_count() & 1)
    return (yb, yb ^ 1)


@pytest.mark.parametrize("d", list(range(1, 65)) + [96, 127])
def test_artin_schreier_basis_matches_the_row_table(d):
    ctx = GF(d)
    table = reference_artin_schreier_rows(ctx)
    assert ctx.trace_mask() == table[1]
    rng = random.Random(300 + d)
    for c in [ctx(1 << i) for i in range(d)] + [ctx.random(rng)
                                                for _ in range(16)]:
        got = tuple(y.bits for y in solve_artin_schreier(c))
        assert got == reference_solve_artin_schreier(c, table), (d, c)


@pytest.mark.parametrize("d", [1, 2, 8, 13, 48])
def test_a_flipped_trace_mask_bit_fails_the_image_check(monkeypatch, d):
    # x^i is on the image of y -> y^2 + y exactly when Tr(x^i) = 0, so a
    # mask with bit i flipped misreads x^i, and solving it must refuse
    ctx = GF(d)
    pivots, mask = ctx._artin_schreier_rows()
    for i in range(d):
        monkeypatch.setattr(ctx, "_as_rows", (pivots, mask ^ 1 << i))
        with pytest.raises(VerificationError, match="trace mask disagrees"):
            solve_artin_schreier(ctx(1 << i))


def test_artin_schreier_table_reports_a_kernel_of_rank_two(monkeypatch):
    # squaring that fixes x puts x beside 1 in the kernel of y -> y^2 + y
    ctx = GF(8)
    real = ctx.sqr
    monkeypatch.setattr(ctx, "sqr", lambda a: a if a == 2 else real(a))
    monkeypatch.setattr(ctx, "_as_rows", None)
    with pytest.raises(VerificationError, match="kernel of rank 2, not 1"):
        ctx._artin_schreier_rows()
    with pytest.raises(VerificationError, match="kernel of rank 2, not 1"):
        reference_artin_schreier_rows(ctx)


# ---------------------------------------------------------------------------
# polynomial arithmetic and roots

def test_poly_divmod_roundtrip():
    ctx = GF(5)
    rng = random.Random(7)
    for _ in range(200):
        a = Poly(ctx, [rng.getrandbits(5) for _ in range(rng.randrange(1, 9))])
        b = Poly(ctx, [rng.getrandbits(5) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_mod_matches_divmod():
    # % reduces by a monic divisor without inverting its leading coefficient
    # and never builds the quotient
    ctx = GF(5)
    rng = random.Random(11)
    for _ in range(300):
        p = Poly(ctx, [rng.getrandbits(5) for _ in range(rng.randrange(0, 9))])
        g = Poly(ctx, [rng.getrandbits(5) for _ in range(rng.randrange(0, 5))]
                 + [rng.choice([1, rng.randrange(1, 32)])])
        q, r = divmod(p, g)
        assert p % g == r
        assert q * g + r == p
        assert r.is_zero() or r.degree < g.degree
    g = Poly(ctx, [3, 0, 1])
    p = Poly(ctx, [7, 9])
    assert p % g == p and p % (g * ctx(6)) == p  # deg p < deg g
    assert (Poly.zero(ctx) % g).is_zero()
    assert (p % Poly(ctx, [1])).is_zero() and (p % Poly(ctx, [6])).is_zero()
    with pytest.raises(ZeroDivisionError):
        p % Poly.zero(ctx)


def test_poly_gcd_properties():
    ctx = GF(4)
    rng = random.Random(9)
    for _ in range(100):
        a = Poly(ctx, [rng.getrandbits(4) for _ in range(5)])
        b = Poly(ctx, [rng.getrandbits(4) for _ in range(4)])
        if a.is_zero() or b.is_zero():
            continue
        g, s, t = a.xgcd(b)
        assert s * a + t * b == g
        assert g == a.gcd(b)
        assert (a % g).is_zero() and (b % g).is_zero()


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_poly_roots_exhaustive_eval(d):
    ctx = GF(d)
    rng = random.Random(20 + d)
    for _ in range(60):
        f = Poly(ctx, [rng.getrandbits(d) for _ in range(rng.randrange(2, 8))])
        if f.is_zero() or f.degree < 1:
            continue
        found = dict((r.bits, m) for r, m in poly_roots(f))
        # oracle: exhaustive evaluation gives the root set
        expected = set(a.bits for a in ctx.elements() if f(a) == ctx.zero)
        assert set(found) == expected
        for rbits, mult in found.items():
            r = ctx(rbits)
            lin = Poly(ctx, [r.bits, 1])
            rem = f
            for _ in range(mult):
                q, rr = divmod(rem, lin)
                assert rr.is_zero()
                rem = q
            assert not divmod(rem, lin)[1].is_zero() or rem.is_zero() is False
            assert not (rem % lin).is_zero()


def test_poly_roots_with_known_multiplicities():
    ctx = GF(6)
    r1, r2, r3 = ctx(0b101), ctx(0b1), ctx(0b11011)
    f = (from_roots(ctx, [r1, r1, r1, r2, r2, r3])
         * Poly(ctx, [ctx(0b100111)]))
    got = poly_roots(f)
    assert [(r.bits, m) for r, m in got] == sorted(
        [(r2.bits, 2), (r1.bits, 3), (r3.bits, 1)])


def test_root_multiplicity_matches_repeated_division():
    rng = random.Random(41)
    for d in (1, 4, 8, 24):
        ctx = GF(d)
        for _ in range(20):
            pool = [ctx.random(rng) for _ in range(3)]
            f = from_roots(ctx, [rng.choice(pool) for _ in range(7)]) \
                * Poly(ctx, [rng.randrange(1, 1 << d), rng.getrandbits(d)])
            for r in pool + [ctx.random(rng)]:
                lin, rem, want = Poly(ctx, [r.bits, 1]), f, 0
                while (rem % lin).is_zero():
                    rem, want = rem // lin, want + 1
                assert _root_multiplicity(f, r) == want


def test_poly_roots_sorted_and_deterministic():
    ctx = GF(8)
    rng = random.Random(3)
    f = from_roots(ctx, [ctx.random(rng) for _ in range(6)])
    first = poly_roots(f)
    second = poly_roots(f)
    assert first == second
    assert [r.bits for r, _ in first] == sorted(r.bits for r, _ in first)


def test_poly_roots_none_in_small_field():
    ctx = GF(1)
    f = Poly(ctx, [1, 1, 1])  # x^2 + x + 1 has no roots in F_2
    assert poly_roots(f) == []


def reference_conjugate_roots(f):
    """The d-row route: d Frobenius rows mod f, reduced again mod the
    smaller factor after each split, and every root checked."""
    mod = _Modulus(f)
    rows = _frobenius_rows(mod, mod.d)[:-1]
    g, start = mod.g, 0
    while g.degree > 1:
        h, k, i = _split_once(g, _traces(mod, rows), start)
        g, start = min(h, k, key=lambda p: p.degree), i + 1
        mod = _Modulus(g)
        rows = [mod.reduce(row) for row in rows]
    roots = [g.coeff(0) / g.leading()]
    for _ in range(f.degree - 1):
        roots.append(roots[-1].square())
    assert len({r.bits for r in roots}) == f.degree
    assert not any(f(r) for r in roots)
    return sorted(r.bits for r in roots)


def random_irreducible(rng, e):
    while True:
        m = (1 << e) | rng.getrandbits(e) | 1
        if _is_irreducible(m, e):
            return m


@pytest.mark.parametrize("d", [4, 6, 12, 18, 24, 30, 40, 48, 60, 64])
def test_e_row_traces_match_d_rows(d):
    # f irreducible over GF(2) of degree e | d divides x^(2^e) - x, so the
    # Frobenius rows repeat with period e: folding the d conjugates of u onto
    # e rows gives every trial's d-row trace, and the same roots
    ctx = GF(d)
    rng = random.Random(70 + d)
    for e in [e for e in divisors(d) if e > 1][-3:]:
        f = _bit_poly(ctx, random_irreducible(rng, e))
        mod = _Modulus(f)
        rows = _frobenius_rows(mod, d)[:-1]
        assert rows[e:] == rows[:d - e]
        combs = [_comb(row) for row in rows]
        for i in range(d):
            u = 1 << (d - 1 - i)
            assert _trace_mod(mod, u, combs[:e]) \
                == _trace_mod(mod, u, combs), (e, i)
        assert sorted(r.bits for r, in _orbits(f, 1, ctx, e)) \
            == reference_conjugate_roots(f), (d, e)


@pytest.mark.parametrize("d", [6, 12, 24, 36, 48])
def test_orbits_bound_changes_the_rows_not_the_roots(d):
    # the modulus of each subfield GF(2^s), s | d, splits over GF(2^d) and
    # divides x^(2^s) - x: s rows, as _embed_gen reads, list the same s
    # roots as the default d rows
    ctx = GF(d)
    for s in divisors(d):
        g = _bit_poly(ctx, GF(s).modulus)
        roots = sorted(r.bits for r, in _orbits(g, 1, ctx, s))
        assert roots == sorted(r.bits for r, in _orbits(g, 1, ctx)), (d, s)
        assert len(set(roots)) == s
        assert not any(g(ctx(r)) for r in roots), (d, s)


def reference_trace_map_mod(u, g):
    # sum_(i<d) (u*x)^(2^i) mod g by d polynomial squarings mod g
    s = (Poly.x(g.ctx) * u) % g
    acc = s
    for _ in range(g.ctx.degree - 1):
        s = s * s % g
        acc = acc + s
    return acc


def reference_frobenius_rows(f):
    # x^(2^j) mod f for j = 0..d by d squarings of Polys mod f
    rows = [Poly.x(f.ctx) % f]
    for _ in range(f.ctx.degree):
        rows.append(rows[-1] * rows[-1] % f)
    return rows


@pytest.mark.parametrize("ctx", [GF(3), GF(8), GF(13), GF(24), GF(48),
                                 dense_field(5), dense_field(8)],
                         ids=lambda c: f"{c.degree}-{c.modulus:x}")
def test_packed_frobenius_rows_match_poly_squaring(ctx):
    # random moduli of degree 1 to 9, monic or not; the dense moduli fold
    # the slots in more than two rounds
    d = ctx.degree
    rng = random.Random(60 + d)
    for n in range(1, 10):
        f = Poly(ctx, [rng.getrandbits(d) for _ in range(n)]
                 + [rng.randrange(1, 1 << d)])
        mod = _Modulus(f)
        rows = _frobenius_rows(mod, d)
        assert len(rows) == d + 1
        assert all(mod.poly(row) == want for row, want
                   in zip(rows, reference_frobenius_rows(f))), (n, f)


@pytest.mark.parametrize("d", [3, 8, 24])
def test_table_trace_matches_squaring_loop(d):
    ctx = GF(d)
    rng = random.Random(50 + d)
    for n in (2, 5, 7):
        g = from_roots(ctx, rng.sample(range(1 << d), n))
        mod = _Modulus(g)
        rows = _frobenius_rows(mod, d)[:-1]
        assert len(rows) == d
        combs = [_comb(row) for row in rows]
        for i in range(d):
            u = ctx(1 << i)
            assert mod.poly(_trace_mod(mod, u.bits, combs)) \
                == reference_trace_map_mod(u, g), (n, i)


@pytest.mark.parametrize("d", [5, 8])
def test_poly_roots_exhaustive_on_a_dense_modulus(d):
    # distinct roots, a repeated one and a random cofactor, against
    # evaluation at every element and repeated division
    ctx = dense_field(d)
    rng = random.Random(80 + d)
    for n in (1, 3, 6, 9):
        roots = rng.sample(range(1 << d), n)
        f = from_roots(ctx, roots + roots[:1]) * Poly(
            ctx, [rng.getrandbits(d) for _ in range(rng.randrange(1, 5))]
            + [rng.randrange(1, 1 << d)])
        expected = []
        for a in ctx.elements():
            if f(a):
                continue
            lin, rem, mult = Poly(ctx, [a.bits, 1]), f, 0
            while (rem % lin).is_zero():
                rem, mult = rem // lin, mult + 1
            expected.append((a.bits, mult))
        assert [(r.bits, m) for r, m in poly_roots(f)] == expected, n


@pytest.mark.parametrize("d", [8, 10])
def test_poly_roots_fiber_shaped_exhaustive(d):
    # up to 12 distinct linear factors times a random cofactor; the cofactor
    # repeats up to two of the roots, so multiplicities above 1 occur
    ctx = GF(d)
    rng = random.Random(70 + d)
    for n in (1, 6, 12):
        roots = rng.sample(range(1 << d), n)
        cofactor = from_roots(ctx, roots[:2]) * Poly(
            ctx, [rng.getrandbits(d) for _ in range(rng.randrange(1, 5))]
            + [rng.randrange(1, 1 << d)])
        f = from_roots(ctx, roots) * cofactor
        expected = []
        for a in ctx.elements():
            if f(a):
                continue
            lin, rem, mult = Poly(ctx, [a.bits, 1]), f, 0
            while (rem % lin).is_zero():
                rem, mult = rem // lin, mult + 1
            expected.append((a.bits, mult))
        assert [(r.bits, m) for r, m in poly_roots(f)] == expected, n


def reference_radical(p):
    # the product of the distinct irreducible factors of p, each once: p over
    # gcd(p, p') keeps the factors of odd multiplicity, the recursion on the
    # gcd the rest, and a zero derivative makes p a square
    if p.degree <= 0:
        return Poly.one(p.ctx)
    dp = p.deriv()
    if dp.is_zero():
        return reference_radical(Poly(p.ctx, [
            p.coeff(i).sqrt() for i in range(0, len(p.coeffs), 2)]))
    g = p.gcd(dp)
    odd = p // g
    rest = reference_radical(g)
    return odd * (rest // odd.gcd(rest))


def reference_factor_degrees(p):
    # distinct-degree factorisation of the squarefree radical, with
    # x^(q^i) mod f by Poly squarings
    f = reference_radical(p).monic()
    x = Poly.x(f.ctx)
    degrees, r, i = [], x, 0
    while f.degree > 2 * i:
        i += 1
        for _ in range(f.ctx.degree):
            r = r * r % f
        g = f.gcd(r + x)
        if g.degree > 0:
            degrees += [i] * (g.degree // i)
            f = f // g
            r = r % f
    if f.degree > 0:
        degrees.append(f.degree)
    return degrees


def degrees_of(factors):
    """The factor degrees, ascending and repeated, of _distinct_degree's
    products."""
    return [i for i, g in factors for _ in range(g.degree // i)]


@pytest.mark.parametrize("ctx", [GF(1), GF(3), GF(8), GF(13), GF(24),
                                 dense_field(5), dense_field(8)],
                         ids=lambda c: f"{c.degree}-{c.modulus:x}")
def test_factor_degrees_match_the_squarefree_reference(ctx):
    # random products with repeated factors, and their squares, whose
    # derivative is zero; monic or not
    d = ctx.degree
    rng = random.Random(90 + d)

    def random_poly(n):
        return Poly(ctx, [rng.getrandbits(d) for _ in range(n)]
                    + [rng.randrange(1, 1 << d)])

    for _ in range(6):
        f = Poly.one(ctx)
        for _ in range(rng.randrange(1, 4)):
            b = random_poly(rng.randrange(2, 6))
            for _ in range(rng.randrange(1, 4)):
                f = f * b
        for g in (f, f * f, f * (u := random_poly(1)) * u):
            assert degrees_of(list(_distinct_degree(g))) \
                == reference_factor_degrees(g), g
    assert list(_distinct_degree(Poly.one(ctx))) == []
    with pytest.raises(ValueError):
        next(_distinct_degree(Poly.zero(ctx)))


@pytest.mark.parametrize("d", range(1, 9))
def test_distinct_degree_products(d):
    # each g_i is squarefree, of degree divisible by i, its factors of degree
    # i (one gcd with x^(q^i) - x, schoolbook squarings), and the products
    # multiply to the radical
    ctx = GF(d)
    rng = random.Random(300 + d)
    x = Poly.x(ctx)
    for _ in range(8):
        f = Poly.one(ctx)
        for _ in range(rng.randrange(1, 5)):
            b = Poly(ctx, [rng.getrandbits(d) for _ in range(rng.randrange(
                2, 7))] + [1])
            f = f * b if rng.randrange(3) else f * b * b
        factors = list(_distinct_degree(f))
        assert degrees_of(factors) == reference_factor_degrees(f), f
        assert [i for i, _g in factors] == sorted({i for i, _g in factors})
        product = Poly.one(ctx)
        for i, g in factors:
            assert g.degree % i == 0 and g.gcd(g.deriv()).degree == 0, f
            assert not g.deriv().is_zero(), f
            r = x
            for _ in range(d * i):
                r = r * r % g
            assert (r + x) % g == Poly.zero(ctx), (f, i)
            product = product * g
        assert product == reference_radical(f).monic(), f


def test_distinct_degree_stops_where_its_reader_does(monkeypatch):
    # the pairs are yielded as each step finds them: reading the first,
    # of degree 1, runs step 1's one gcd with x^q - x and none of the gcds
    # that strip its factors out of f
    ctx, calls = GF(4), []
    cubic = next(p for p in (Poly(ctx, [c, 1, 0, 1]) for c in range(16))
                 if reference_factor_degrees(p) == [3])
    a, b = Poly(ctx, [1, 1]), Poly(ctx, [2, 1])
    real = Poly.gcd
    monkeypatch.setattr(Poly, "gcd",
                        lambda g, h: calls.append(1) or real(g, h))
    pairs = _distinct_degree(a * b * b * cubic)
    assert next(pairs) == (1, a * b) and len(calls) == 1
    assert list(pairs) == [(3, cubic)] and len(calls) > 1


def random_irreducibles(ctx, i, count, rng):
    """count distinct monic irreducibles of degree i over ctx."""
    found = set()
    while len(found) < count:
        p = Poly(ctx, [rng.getrandbits(ctx.degree) for _ in range(i)] + [1])
        if reference_factor_degrees(p) == [i]:  # so p is not a square
            found.add(p)
    return sorted(found, key=lambda p: p.coeffs)


@pytest.mark.parametrize("d", range(1, 9))
def test_orbit_roots_match_poly_roots_over_the_big_field(d):
    # products of distinct irreducibles of degree i over GF(2^d), rooted in
    # GF(2^(d i t)): the orbits are Frobenius-closed and together the roots
    # poly_roots finds over that field, each once
    ctx = GF(d)
    rng = random.Random(400 + d)
    # degree 1 is listed by one split tree, over GF(2^d) itself at t = 1
    for i in (1, 2, 3, 4):
        for t in (1, 2):
            if d * i * t > 48:
                continue
            big = GF(d * i * t)
            # GF(2) has 2, 1, 2 and 3 irreducibles of degree 1, 2, 3 and 4
            count = rng.randrange(1, 4) if d > 1 else [2, 1, 2, 3][i - 1]
            g = Poly.one(ctx)
            for p in random_irreducibles(ctx, i, count, rng):
                g = g * p
            orbits = _orbits(g, i, big)
            assert len(orbits) == g.degree // i
            for orbit in orbits:
                assert len(orbit) == len(set(orbit)) == i
                for a, b in zip(orbit, orbit[1:] + orbit[:1]):
                    assert a.frobenius(d) == b
            roots = sorted(r.bits for orbit in orbits for r in orbit)
            assert [(r.bits, m) for r, m in poly_roots(g.map_context(big))] \
                == [(r, 1) for r in roots], (d, i, t)
    assert _orbits(Poly.one(ctx), 2, GF(2 * d)) == []
    assert _orbits(Poly.one(ctx), 1, ctx) == []


@pytest.mark.parametrize("d", [1, 3, 8])
def test_split_once_rejects_unsplit_input(d):
    # x^2 + x + c with Tr(c) = 1 is separable and irreducible over GF(2^d)
    ctx = GF(d)
    c = next(a for a in ctx.elements() if trace(a))
    g = Poly(ctx, [c.bits, 1, 1])
    mod = _Modulus(g)
    with pytest.raises(VerificationError):
        _split_once(mod.g, _traces(mod, _frobenius_rows(mod, d)[:-1]))


# ---------------------------------------------------------------------------
# embeddings and element degree

def test_embed_is_ring_homomorphism():
    rng = random.Random(31)
    for (e, d) in [(1, 4), (2, 4), (2, 8), (3, 12), (4, 12), (4, 24), (6, 24)]:
        src, tgt = GF(e), GF(d)
        for _ in range(80):
            a, b = src.random(rng), src.random(rng)
            fa, fb = embed(a, tgt), embed(b, tgt)
            assert embed(a + b, tgt) == fa + fb
            assert embed(a * b, tgt) == fa * fb
        assert embed(src.one, tgt) == tgt.one
        assert embed(src.zero, tgt) == tgt.zero


def test_embed_injective_small():
    src, tgt = GF(3), GF(9)
    images = set(embed(a, tgt).bits for a in src.elements())
    assert len(images) == 8


def test_embed_composition_consistent():
    rng = random.Random(41)
    chains = [(1, 2, 4), (1, 2, 6), (1, 3, 6), (2, 4, 8), (2, 6, 12),
              (3, 6, 12), (2, 4, 12), (1, 2, 12), (2, 6, 24), (4, 12, 24),
              (2, 4, 24), (3, 12, 24), (2, 12, 24), (6, 12, 24)]
    for (e, mid, top) in chains:
        src, m, t = GF(e), GF(mid), GF(top)
        for _ in range(25):
            a = src.random(rng)
            assert embed(embed(a, m), t) == embed(a, t)


# the degrees whose subfield pairs the oracle table covers: the wild cover
# fields GF(2^24), GF(2^40), GF(2^48) and their neighbours
EMBED_DEGREES = (12, 18, 20, 24, 30, 36, 40, 48, 60)


def reference_ensure_embeddings(d, table):
    """The eager sweep: fix generator images for every subfield of GF(2^d).

    Divisors go in increasing order, and each source degree e takes the least
    root of its modulus that agrees with every pair fixed before it for the
    subfields of e.  The identity pair (d, d) is stored last, so it marks a
    finished sweep.
    """
    if (d, d) in table:
        return
    target = GF(d)
    for e in divisors(d):
        if e == d:
            table[(d, d)] = _pmod(2, target.modulus)
            continue
        reference_ensure_embeddings(e, table)
        roots = reference_conjugate_roots(
            _bit_poly(target, lexmin_irreducible(e)))
        for rbits in roots:
            g = target(rbits)
            if all(_bit_poly(target, table[(s, e)])(g).bits == table[(s, d)]
                   for s in divisors(e)[:-1]):
                table[(e, d)] = rbits
                break
        else:
            raise VerificationError("no composition-consistent embedding root")


@pytest.fixture(scope="module")
def reference_embeddings():
    table = {}
    for d in EMBED_DEGREES:
        reference_ensure_embeddings(d, table)
    return table


def test_embed_gen_matches_the_eager_sweep(reference_embeddings):
    table = reference_embeddings
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == \
        "257f17efe43710c3ba074ba4f42a85a4023dcd3164281457ff6c9b89028c4d7f"
    proper = {k: v for k, v in table.items() if k[0] < k[1]}
    assert len(table) == 107 and len(proper) == 87
    for (e, d), gbits in proper.items():
        assert _embed_gen(GF(e), GF(d)) == gbits, (e, d)


def reference_embed_gen(src, target, table):
    """The recursion the maximal-subfield check replaced: the least root of
    src's modulus in target that agrees with every proper subfield of src."""
    key = (src.degree, target.degree)
    if key not in table:
        subs = [GF(s) for s in divisors(src.degree)[:-1]]
        for gbits in reference_conjugate_roots(_bit_poly(target, src.modulus)):
            g = target(gbits)
            if all(_bit_poly(target, reference_embed_gen(sub, src, table))(g)
                   .bits == reference_embed_gen(sub, target, table)
                   for sub in subs):
                break
        else:
            raise VerificationError("no composition-consistent embedding root")
        table[key] = gbits
    return table[key]


def test_maximal_subfield_check_matches_every_subfield():
    # every e | D <= 48, then e | 60 and e | 64: the compatible roots are the
    # same set, so the least one is the same generator image
    table = {}
    pairs = [(e, D) for D in list(range(2, 49)) + [60, 64]
             for e in divisors(D)[:-1]]
    for e, D in pairs:
        assert _embed_gen(GF(e), GF(D)) == \
            reference_embed_gen(GF(e), GF(D), table), (e, D)
    assert len(pairs) == 167


def test_embed_gen_builds_only_what_is_asked(reference_embeddings):
    # a fresh process: the first embedding into GF(2^48) fixes only the pairs
    # of GF(2^4)'s subfields, and asking every pair in descending order of
    # source degree afterwards reproduces the eager table
    pairs = sorted((k for k in reference_embeddings if k[0] < k[1]),
                   reverse=True)
    code = (
        "import json, sys\n"
        "from lame2.gf2 import GF, _EMBED_GEN, _embed_gen, embed\n"
        "first = embed(GF(4)(0b10), GF(48)).bits\n"
        "built = sorted((s.degree, t.degree) for s, t in _EMBED_GEN)\n"
        "pairs = json.loads(sys.argv[1])\n"
        "gens = [_embed_gen(GF(e), GF(d)) for e, d in pairs]\n"
        "print(json.dumps({'first': first, 'built': built, 'gens': gens}))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lame2.__file__)))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", code, json.dumps(pairs)], env=env,
        capture_output=True, text=True, check=True).stdout)
    assert out["first"] == reference_embeddings[(4, 48)]
    built = {tuple(p) for p in out["built"]}
    assert (4, 48) in built and (24, 48) not in built
    assert all(4 % e == 0 for e, _ in built), built
    assert out["gens"] == [reference_embeddings[p] for p in pairs]


def test_embed_gen_split_trials_pinned(monkeypatch):
    # split trials and gcds of a cold _embed_gen(GF(12), GF(48)): one gcd per
    # maximal subfield of each source, then trials on the compatible roots
    # only; splitting off one root of each whole modulus and taking its
    # conjugates made 39 trials and no other gcd
    counts = {"trial": 0, "gcd": 0}
    real = gf2.Poly.gcd

    def spy(a, b):
        counts["gcd"] += 1
        if sys._getframe(1).f_code is gf2._split_once.__code__:
            counts["trial"] += 1
        return real(a, b)

    monkeypatch.setattr(gf2.Poly, "gcd", spy)
    monkeypatch.setattr(gf2, "_EMBED_GEN", {})
    _embed_gen(GF(12), GF(48))
    assert counts == {"trial": 28, "gcd": 43}


def test_embed_gen_refuses_what_its_checks_refute(monkeypatch):
    # 1 is no image of GF(2^2)'s generator, so no root of GF(2^4)'s modulus
    # agrees with it and the gcd is constant; a splitter that returns a
    # non-root fails the checks made before caching
    monkeypatch.setattr(gf2, "_EMBED_GEN", {(GF(2), GF(8)): 1})
    with pytest.raises(VerificationError, match="no composition-consistent"):
        _embed_gen(GF(4), GF(8))
    monkeypatch.setattr(gf2, "_EMBED_GEN", {})
    monkeypatch.setattr(gf2, "_orbits",
                        lambda g, i, target, e: [[target.zero]])
    with pytest.raises(VerificationError, match="fails its checks"):
        _embed_gen(GF(4), GF(8))
    assert (GF(4), GF(8)) not in gf2._EMBED_GEN


def test_map_context_into_its_own_context_is_the_polynomial():
    # the identity embedding rebuilds nothing; a larger context still takes
    # each coefficient through embed
    ctx, big = GF(4), GF(8)
    p = Poly(ctx, [3, 0, 7, 1])
    assert p.map_context(ctx) is p
    assert p.map_context(big).coeffs \
        == tuple(embed(ctx(c), big).bits for c in p.coeffs)


def test_embed_rejects_non_divisor():
    with pytest.raises(ValueError):
        embed(GF(2).one, GF(3))


def test_embed_f4_generator_order():
    # the image of the F_4 generator is a primitive cube root of unity
    w = GF(2)(0b10)
    img = embed(w, GF(4))
    assert img != GF(4).one
    assert img ** 3 == GF(4).one
    assert img.square() + img == GF(4).one  # conjugate sum = 1


@pytest.mark.parametrize("d", [1, 2, 4, 6, 12])
def test_element_degree(d):
    ctx = GF(d)
    rng = random.Random(d * 7)
    for _ in range(150):
        a = ctx.random(rng)
        e = element_degree(a)
        assert d % e == 0
        # oracle: Frobenius orbit length
        orbit = {a.bits}
        b = a.square()
        while b != a:
            orbit.add(b.bits)
            b = b.square()
        assert len(orbit) == e


def test_element_degree_counts():
    # number of elements of exact degree e in GF(2^6), by Moebius counting
    ctx = GF(6)
    counts = {}
    for a in ctx.elements():
        counts[element_degree(a)] = counts.get(element_degree(a), 0) + 1
    assert counts == {1: 2, 2: 2, 3: 6, 6: 54}


# ---------------------------------------------------------------------------
# serialization

def test_element_json_roundtrip():
    ctx = GF(11)
    rng = random.Random(5)
    for _ in range(50):
        a = ctx.random(rng)
        rec = a.to_json()
        assert set(rec) == {"d", "hex"} and rec["d"] == ctx.degree
        assert ctx.from_hex(rec["hex"]) == a


def test_pickle_roundtrip():
    import pickle
    assert pickle.loads(pickle.dumps(GF(24))) is GF(24)
    for a in (GF(24)(0xabcdef), GF(8)(0x5a)):
        b = pickle.loads(pickle.dumps(a))
        assert b.ctx is a.ctx
        assert b == a and b * b == a * a and b.inverse() == a.inverse()
    f = Poly(GF(5), [3, 0, 1])
    assert pickle.loads(pickle.dumps(f)) == f


def test_negative_int_rejected():
    with pytest.raises(FieldInputError, match="negative"):
        GF(8)(-1)
    assert GF(8)(0x1ff) == GF(8)(0x1ff ^ lexmin_irreducible(8))


def test_negative_poly_coefficient_rejected():
    with pytest.raises(FieldInputError, match="negative"):
        Poly(GF(8), [1, -3])


def test_oversized_hex_rejected():
    ctx = GF(8)
    assert ctx.from_hex("ff").bits == 0xff
    with pytest.raises(FieldInputError, match="does not fit"):
        ctx.from_hex("100")
    for s in ("-1", "-0", "-00"):
        # "-0" read as int(s, 16) is 0, which the negative-int rule passes
        with pytest.raises(FieldInputError, match="negative"):
            ctx.from_hex(s)


@pytest.mark.parametrize("s", ["0x1", "+1", " 1", "1_1", "", "-", "--1"])
def test_from_hex_takes_hex_digits_only(s):
    # int(s, 16) would read the first four as 1 and 0x11
    with pytest.raises(FieldInputError, match="not a hex string"):
        GF(8).from_hex(s)


@pytest.mark.parametrize("d", range(1, 9))
def test_zero_and_one_hash_as_the_ints_they_equal(d):
    ctx = GF(d)
    assert ctx.one == 1 and ctx.zero == 0
    assert 1 in {ctx.one} and ctx.one in {1}
    assert {0: "v"}.get(ctx.zero) == "v"


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_a_set_of_zeros_has_one_member_in_every_insertion_order(order):
    zeros = [0, GF(2).zero, GF(4).zero]
    assert len({zeros[i] for i in order}) == 1
    ones = [1, GF(2).one, GF(4).one]
    assert len({ones[i] for i in order}) == 1
    # past 0 and 1, elements of different fields stay apart
    assert len({zeros[i] for i in order} | {GF(2)(2), GF(4)(2)}) == 3


def test_equality_is_transitive_across_fields():
    rng = random.Random(67)
    sample = [0, 1, 2, 3, -1, True, False]
    for d in (1, 2, 3, 4, 8, 12):
        ctx = GF(d)
        sample += [ctx.zero, ctx.one, ctx(2)] + [
            ctx.random(rng) for _ in range(4)]
    for a, b, c in itertools.product(sample, repeat=3):
        if a == b and b == c:
            assert a == c, (a, b, c)
            assert hash(a) == hash(c), (a, c)


def test_divisors_helper():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
