"""Field layer: axioms, trace machinery, roots, embeddings.

Oracles used here are deliberately independent of the implementation:
list-based schoolbook polynomial arithmetic for products and reductions,
exhaustive enumeration for trace kernels and root sets, and trial division
for irreducibility of the canonical moduli.
"""

import random

import pytest

from lame2 import (GF, FieldContext, FieldInputError, Poly, VerificationError,
                   embed, element_degree, lexmin_irreducible, poly_roots,
                   solve_artin_schreier, trace)
from lame2.arith import divisors
from lame2.gf2 import _conjugate_roots, _frobenius_rows, _split_once, _trace_mod


# ---------------------------------------------------------------------------
# oracle helpers (schoolbook, list-based; no bit packing)

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


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        FieldContext(4, 0b10101)  # (x^2+x+1)^2


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
    f = (Poly.from_roots(ctx, [r1, r1, r1, r2, r2, r3])
         * Poly.const(ctx(0b100111)))
    got = poly_roots(f)
    assert [(r.bits, m) for r, m in got] == sorted(
        [(r2.bits, 2), (r1.bits, 3), (r3.bits, 1)])


def test_poly_roots_sorted_and_deterministic():
    ctx = GF(8)
    rng = random.Random(3)
    f = Poly.from_roots(ctx, [ctx.random(rng) for _ in range(6)])
    first = poly_roots(f)
    second = poly_roots(f)
    assert first == second
    assert [r.bits for r, _ in first] == sorted(r.bits for r, _ in first)


def test_poly_roots_none_in_small_field():
    ctx = GF(1)
    f = Poly(ctx, [1, 1, 1])  # x^2 + x + 1 has no roots in F_2
    assert poly_roots(f) == []


def test_conjugate_roots_match_poly_roots():
    # the roots of the degree-e canonical modulus in GF(2^d), e | d, are one
    # Frobenius orbit; poly_roots splits the polynomial completely instead
    for d in range(1, 25):
        ctx = GF(d)
        for e in divisors(d):
            m = lexmin_irreducible(e)
            f = Poly(ctx, [(m >> i) & 1 for i in range(e + 1)])
            if e == d and d > 16:
                # too slow for poly_roots here; GF(2^d) is GF(2)[x]/(f), so
                # the roots are the conjugates of x itself
                x = ctx(2)
                want = sorted(x.frobenius(i).bits for i in range(d))
            else:
                want = [r.bits for r, mult in poly_roots(f)]
            assert _conjugate_roots(f) == want, (d, e)


def reference_trace_map_mod(u, g):
    # sum_(i<d) (u*x)^(2^i) mod g by d polynomial squarings mod g
    s = (Poly.x(g.ctx) * u) % g
    acc = s
    for _ in range(g.ctx.degree - 1):
        s = s.square() % g
        acc = acc + s
    return acc


@pytest.mark.parametrize("d", [3, 8, 24])
def test_table_trace_matches_squaring_loop(d):
    ctx = GF(d)
    rng = random.Random(50 + d)
    for n in (2, 5, 7):
        g = Poly.from_roots(ctx, rng.sample(range(1 << d), n))
        rows = _frobenius_rows(g)[:-1]
        assert len(rows) == d
        for i in range(d):
            u = ctx(1 << i)
            assert _trace_mod(u, rows) == reference_trace_map_mod(u, g), (n, i)


@pytest.mark.parametrize("d", [8, 10])
def test_poly_roots_fiber_shaped_exhaustive(d):
    # up to 12 distinct linear factors times a random cofactor; the cofactor
    # repeats up to two of the roots, so multiplicities above 1 occur
    ctx = GF(d)
    rng = random.Random(70 + d)
    for n in (1, 6, 12):
        roots = rng.sample(range(1 << d), n)
        cofactor = Poly.from_roots(ctx, roots[:2]) * Poly(
            ctx, [rng.getrandbits(d) for _ in range(rng.randrange(1, 5))]
            + [rng.randrange(1, 1 << d)])
        f = Poly.from_roots(ctx, roots) * cofactor
        expected = []
        for a in ctx.elements():
            if f(a):
                continue
            lin, rem, mult = Poly(ctx, [a.bits, 1]), f, 0
            while (rem % lin).is_zero():
                rem, mult = rem // lin, mult + 1
            expected.append((a.bits, mult))
        assert [(r.bits, m) for r, m in poly_roots(f)] == expected, n


@pytest.mark.parametrize("d", [1, 3, 8])
def test_split_once_rejects_unsplit_input(d):
    # x^2 + x + c with Tr(c) = 1 is separable and irreducible over GF(2^d)
    ctx = GF(d)
    c = next(a for a in ctx.elements() if trace(a))
    g = Poly(ctx, [c.bits, 1, 1])
    with pytest.raises(VerificationError):
        _split_once(g, _frobenius_rows(g)[:-1])


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
        assert set(rec) == {"d", "hex"}
        assert ctx.from_json(rec) == a


def test_json_wrong_degree_rejected():
    rec = GF(3).one.to_json()
    with pytest.raises(ValueError):
        GF(4).from_json(rec)


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
    with pytest.raises(FieldInputError, match="negative"):
        ctx.from_hex("-1")


def test_oversized_json_rejected():
    with pytest.raises(FieldInputError, match="does not fit"):
        GF(4).from_json({"d": 4, "hex": "1f"})


def test_divisors_helper():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
