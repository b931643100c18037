"""Curve arithmetic tests.

Point counts are checked two independent ways (fiber enumeration vs the
trace recurrence), the group law is exercised against its axioms, and the
torsion machinery is validated through explicit order certificates.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lame2
from lame2 import GF, trace, weierstrass
from lame2.arith import factorint
from lame2.common import VerificationError
from lame2.weierstrass import (
    WeierstrassCurve,
    _spans_torsion,
    _supersingular_exponent,
    curve_invariants,
    extension_order,
    point_of_exact_order,
    point_order,
    supersingular_order,
    supersingular_trace,
    torsion_basis,
    torsion_field_degree,
    torsion_points,
    transformed_coefficients,
)


# ---------------------------------------------------------------------------
# invariants


def test_invariants_match_char0_oracle():
    # y^2 + y = x^3 over Q: b6 = 4a6 + a3^2 = 1, disc = -27
    inv = curve_invariants(*map(Fraction, (0, 0, 1, 0, 0)))
    assert inv["disc"] == Fraction(-27)
    assert inv["c4"] == 0
    # y^2 = x^3 - x: disc = 64 (2^6), j = 1728
    inv = curve_invariants(*map(Fraction, (0, 0, 0, -1, 0)))
    assert inv["disc"] == Fraction(64)
    c4 = inv["c4"]
    assert c4 ** 3 / inv["disc"] == Fraction(1728)


def test_supersingular_curve_basic():
    E = WeierstrassCurve.supersingular(4)
    assert E.discriminant() == E.ctx.one
    assert E.j_invariant() == E.ctx.zero
    assert E.is_supersingular()


def test_ordinary_curve_basic():
    ctx = GF(4)
    for tbits in range(1, 16):
        t = ctx(tbits)
        E = WeierstrassCurve.ordinary(ctx, t)
        assert E.discriminant() == t * t
        assert E.j_invariant() == 1 / (t * t)
        assert not E.is_supersingular()


def test_singular_rejected():
    ctx = GF(3)
    with pytest.raises(ValueError):
        WeierstrassCurve(ctx, 0, 0, 0, 0, 0)  # y^2 = x^3 is cuspidal
    with pytest.raises(ValueError):
        WeierstrassCurve.ordinary(ctx, 0)


# ---------------------------------------------------------------------------
# group law


def _sample_points(E, rng, k):
    return [E.random_point(rng) for _ in range(k)]


@pytest.mark.parametrize("make", [
    lambda: WeierstrassCurve.supersingular(5),
    lambda: WeierstrassCurve.ordinary(GF(5), 6),
    lambda: WeierstrassCurve.supersingular(8),
    lambda: WeierstrassCurve.ordinary(GF(7), 19),
])
def test_group_axioms(make):
    E = make()
    rng = random.Random(11)
    O = E.infinity()
    pts = _sample_points(E, rng, 12)
    for P in pts:
        assert P + O == P
        assert O + P == P
        assert P + (-P) == O
        assert -(-P) == P
    for P, Q in zip(pts, pts[1:]):
        assert P + Q == Q + P
    for i in range(len(pts) - 2):
        P, Q, R = pts[i], pts[i + 1], pts[i + 2]
        assert (P + Q) + R == P + (Q + R)


def test_scalar_multiplication_consistent():
    E = WeierstrassCurve.supersingular(6)
    rng = random.Random(3)
    P = E.random_point(rng)
    acc = E.infinity()
    for k in range(40):
        assert k * P == acc
        assert (-k) * P == -acc
        acc = acc + P
    assert (7 * (11 * P)) == 77 * P


def reference_add(P, Q):
    # the chord-and-tangent formulas on FieldElements, as the sum was once
    # computed
    E = P.curve
    if P.is_infinity() or Q.is_infinity():
        return Q if P.is_infinity() else P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2:
        if y2 == y1 + E.hpoly(x1):
            return E.infinity()
        lam = (x1 * x1 + E.a4 + E.a1 * y1) / E.hpoly(x1)
    else:
        lam = (y1 + y2) / (x1 + x2)
    x3 = lam * lam + E.a1 * lam + E.a2 + x1 + x2
    y3 = (lam + E.a1) * x3 + y1 + lam * x1 + E.a3
    return E.point(x3, y3)


@pytest.mark.parametrize("d", [3, 8, 13])
def test_addition_on_ints_matches_the_fieldelement_formulas(d):
    # general curves (every a_i random) reach the chord, the tangent, and
    # P + (-P); the sum must also lie on the curve
    ctx = GF(d)
    rng = random.Random(40 + d)
    tried = 0
    while tried < 4:
        try:
            E = WeierstrassCurve(ctx, *(ctx.random(rng) for _ in range(5)))
        except ValueError:
            continue
        tried += 1
        pts = _sample_points(E, rng, 8)
        for P in pts:
            for Q in pts + [P, -P, E.infinity()]:
                R = P + Q
                assert R == reference_add(P, Q), (E, P, Q)
                assert R.is_infinity() or E.contains(R.x, R.y)


def test_scalar_multiple_takes_no_unread_doubling(monkeypatch):
    # k * P costs (bits of k - 1) doublings and (set bits of k - 1) sums
    E = WeierstrassCurve.ordinary(GF(8), 5)
    P = next(P for P in _sample_points(E, random.Random(2), 20)
             if point_order(E, P) > 15)
    sums = [E.infinity()]
    for _ in range(15):
        sums.append(sums[-1] + P)
    add = weierstrass._add_pairs
    calls = []

    def counted(curve, p, q):
        if p is not None and q is not None:
            calls.append((p, q))
        return add(curve, p, q)

    monkeypatch.setattr(weierstrass, "_add_pairs", counted)
    for k, want in ((3, 2), (15, 6)):
        calls.clear()
        assert k * P == sums[k]
        assert len(calls) == want, k


def test_two_torsion_of_ordinary():
    E = WeierstrassCurve.ordinary(GF(4), 9)
    R = E.point(0, 0)
    assert R == -R
    assert (2 * R).is_infinity()
    # and it is the only affine two-torsion point: h(x) = x vanishes at 0 only
    assert E.fiber_y(E.ctx.zero) == (E.ctx.zero,)


def test_doubling_where_tangent_is_vertical():
    # on the supersingular curve h = 1 never vanishes, so no affine 2-torsion
    E = WeierstrassCurve.supersingular(4)
    for x in E.ctx.elements():
        for y in E.fiber_y(x):
            P = E.point(x, y)
            assert not (2 * P).is_infinity()


# ---------------------------------------------------------------------------
# point counts


def test_supersingular_counts_enumeration_vs_formula():
    # frozen values, then the enumeration cross-check
    frozen = {1: 3, 2: 9, 3: 9, 4: 9, 5: 33, 6: 81, 7: 129, 8: 225, 10: 1089}
    for d, want in frozen.items():
        assert supersingular_order(d) == want
    for d in range(1, 11):
        E = WeierstrassCurve.supersingular(d)
        assert E.count_points() == supersingular_order(d)


def test_supersingular_trace_values():
    assert [supersingular_trace(d) for d in range(0, 9)] == \
        [2, 0, -4, 0, 8, 0, -16, 0, 32]


def test_ordinary_counts_hasse_and_parity():
    for d in range(2, 7):
        ctx = GF(d)
        q = 1 << d
        for tbits in range(1, q):
            E = WeierstrassCurve.ordinary(ctx, ctx(tbits))
            N = E.count_points()
            a = q + 1 - N
            assert a * a <= 4 * q
            assert a % 2 == 1  # ordinary in char 2 means odd trace


def test_fiber_counting_matches_rational_points():
    E = WeierstrassCurve.ordinary(GF(5), 3)
    total = 1
    for x in E.ctx.elements():
        ys = E.fiber_y(x)
        for y in ys:
            assert E.contains(x, y)
        total += len(ys)
    assert total == E.count_points()


def reference_count_points(E):
    """The FieldElement fiber loop the int count replaced."""
    total = 1
    for x in E.ctx.elements():
        h = E.hpoly(x)
        if h == E.ctx.zero:
            total += 1
        elif trace(E.rhs(x) / (h * h)) == 0:
            total += 2
    return total


def _assert_count_matches_oracle(E):
    N = E.count_points()
    assert N == reference_count_points(E)
    q = E.ctx.order
    assert (q + 1 - N) ** 2 <= 4 * q  # Hasse


def test_count_points_matches_fieldelement_oracle():
    rng = random.Random(88)
    for d in list(range(1, 11)) + [12]:
        ctx = GF(d)
        _assert_count_matches_oracle(WeierstrassCurve.supersingular(ctx))
        for t in (1, 1 + rng.randrange(ctx.order - 1)):
            _assert_count_matches_oracle(WeierstrassCurve.ordinary(ctx, t))


def test_count_points_oracle_on_general_curves():
    rng = random.Random(89)
    for d in (3, 4, 6, 7, 9):
        ctx = GF(d)
        done = 0
        while done < 3:
            a1, a3 = rng.choice([(0, 1 + rng.randrange(ctx.order - 1)),
                                 (1 + rng.randrange(ctx.order - 1), 0)])
            a2, a4, a6 = (1 + rng.randrange(ctx.order - 1) for _ in range(3))
            try:
                E = WeierstrassCurve(ctx, a1, a2, a3, a4, a6)
            except ValueError:  # singular
                continue
            _assert_count_matches_oracle(E)
            done += 1


def reference_generic_count(E):
    """The int loop count_points runs when a1 != 0, for any curve: h and
    1/h^2 at every x, and the trace through the context's mask."""
    ctx = E.ctx
    mul, sqr, inv, mask = ctx.mul, ctx.sqr, ctx.inv, ctx.trace_mask()
    a1, a2, a3, a4, a6 = (a.bits for a in E.coefficients())
    total = 1
    for x in range(1 << ctx.degree):
        h = mul(a1, x) ^ a3
        if not h:
            total += 1
        elif not (mul(mul(mul(x ^ a2, x) ^ a4, x) ^ a6, inv(sqr(h)))
                  & mask).bit_count() & 1:
            total += 2
    return total


def test_constant_h_count_matches_the_generic_loop():
    # a1 = 0 folds 1/a3^2 into one trace mask; a1 != 0 runs the generic loop
    rng = random.Random(90)
    for d in range(1, 11):
        ctx = GF(d)
        for a1_zero in (True, False):
            done = 0
            while done < 4:
                a1 = 0 if a1_zero else 1 + rng.randrange(ctx.order - 1)
                a = [rng.randrange(ctx.order) for _ in range(4)]
                try:
                    E = WeierstrassCurve(ctx, a1, *a)
                except ValueError:  # singular
                    continue
                assert E.count_points() == reference_generic_count(E), E
                done += 1
    for d in range(1, 13):
        E = WeierstrassCurve.supersingular(d)
        assert E.count_points() == reference_generic_count(E) \
            == supersingular_order(d)


def test_random_point_refuses_a_curve_with_only_the_origin():
    # Y^2 + Y = X^3 + X + 1 over GF(2) has #E = 1: no x has a point above
    # it, so a draw loop would never end; run it in a child with a timeout
    E = WeierstrassCurve(GF(1), 0, 0, 1, 1, 1)
    assert E.count_points() == 1
    code = ("import random\n"
            "from lame2 import GF\n"
            "from lame2.weierstrass import WeierstrassCurve\n"
            "E = WeierstrassCurve(GF(1), 0, 0, 1, 1, 1)\n"
            "try:\n"
            "    E.random_point(random.Random(0))\n"
            "except ValueError as exc:\n"
            "    print('refused:', exc)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lame2.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("refused:")
    # a curve with affine points over GF(2) still draws them
    F = WeierstrassCurve.supersingular(1)
    assert F.contains(*F.random_point(random.Random(0)).xy)


def test_supersingular_exponent_is_the_largest_order():
    # by enumeration: |E| is M^2 at even d and the cyclic M at odd d, and M
    # kills every point while no M/p does, so M is the largest point order
    for d in range(1, 13):
        E = WeierstrassCurve.supersingular(d)
        fibers = [(x, E.fiber_y(x)) for x in E.ctx.elements()]
        M = _supersingular_exponent(d)
        assert 1 + sum(len(ys) for _x, ys in fibers) == (M if d % 2 else M * M)
        pts = [E.point(x, ys[0]) for x, ys in fibers if ys]  # -P: same order
        assert all((M * P).is_infinity() for P in pts)
        for p in factorint(M):
            assert any(not ((M // p) * P).is_infinity() for P in pts)


def test_count_points_oracle_where_h_vanishes():
    # a1, a3 != 0: h(x) = a1 x + a3 vanishes at exactly one x, a one-point fiber
    for d in (3, 4, 5, 8):
        ctx = GF(d)
        E = WeierstrassCurve(ctx, 3, 5, 6, 1, 7)
        assert sum(E.hpoly(x) == ctx.zero for x in ctx.elements()) == 1
        _assert_count_matches_oracle(E)


# ---------------------------------------------------------------------------
# torsion


def reference_torsion_field_degree(n):
    """The order of the companion matrix of x^2 + 2 in GL_2(Z/n): the
    matrix search the closed form replaced."""
    def matmul(A, B):
        return ((A[0] * B[0] + A[1] * B[2]) % n,
                (A[0] * B[1] + A[1] * B[3]) % n,
                (A[2] * B[0] + A[3] * B[2]) % n,
                (A[2] * B[1] + A[3] * B[3]) % n)

    M = (0, (-2) % n, 1, 0)
    acc, d = M, 1
    while acc != (1, 0, 0, 1):
        acc = matmul(acc, M)
        d += 1
        assert d <= 4 * n * n
    return d


def test_torsion_field_degree_matches_matrix_order():
    for n in range(3, 302, 2):
        assert torsion_field_degree(n) == reference_torsion_field_degree(n), n
    for n in (-3, 1, 2, 4):
        with pytest.raises(ValueError):
            torsion_field_degree(n)


def test_torsion_field_degrees_frozen():
    assert {n: torsion_field_degree(n) for n in (3, 5, 7, 9, 11, 13)} == \
        {3: 2, 5: 8, 7: 12, 9: 6, 11: 10, 13: 24}


def test_torsion_degree_consistent_with_group_order():
    for n in (3, 5, 7, 9, 11, 13):
        d = torsion_field_degree(n)
        assert supersingular_order(d) % (n * n) == 0


def test_torsion_basis_certified():
    for n in (3, 5, 9):
        curve, P, Q = torsion_basis(n)
        assert curve.ctx.degree == torsion_field_degree(n)
        for T in (P, Q):
            assert (n * T).is_infinity()
            assert not T.is_infinity()
        pts = torsion_points(curve, P, Q, n, exact=False)
        assert len(set(pts)) == n * n
        exact = torsion_points(curve, P, Q, n, exact=True)
        # the number of points of exact order n in (Z/n)^2
        want = len([1 for a in range(n) for b in range(n)
                    if _exact_order_pair(a, b, n)])
        assert len(exact) == want


def reference_spans_torsion(P, Q, n):
    """The n^2 certificate the per-prime check replaced: all a*P + b*Q
    are pairwise distinct."""
    row = [P.curve.infinity()]
    for _ in range(n - 1):
        row.append(row[-1] + P)
    seen = set()
    for b in range(n):
        shift = b * Q
        for a in range(n):
            T = row[a] + shift
            if T in seen:
                return False
            seen.add(T)
    return True


def test_spans_torsion_agrees_with_the_n2_certificate():
    for n in (3, 5, 7, 9, 11, 13, 15, 21, 45):
        curve, P, Q = torsion_basis(n)
        pairs = [(P, Q, True), (P, 2 * P, False)]
        if n < 45:
            pairs += [(Q, P, True), (P, P + Q, True), (Q, 2 * Q, False)]
        # mixed: independent at every prime of n but one
        for a, b in {15: [(1, 3), (1, 5)], 21: [(1, 3), (1, 7)],
                     45: [(1, 3), (1, 5), (1, 9)]}.get(n, []):
            pairs.append((P, a * P + b * Q, False))
        for R, S, spans in pairs:
            assert point_order(curve, S) == n
            assert _spans_torsion(R, S, n) is spans, (n, spans)
            assert reference_spans_torsion(R, S, n) is spans, (n, spans)


def _exact_order_pair(a, b, n):
    # order of (a, b) in (Z/n)^2 is n / gcd(a, b, n)
    from math import gcd
    return gcd(gcd(a, b), n) == 1


def test_exact_order_pair_helper():
    assert _exact_order_pair(1, 0, 9)
    assert _exact_order_pair(3, 1, 9)
    assert not _exact_order_pair(3, 6, 9)
    assert not _exact_order_pair(0, 0, 9)


def test_point_of_exact_order_prime_power():
    curve, P, Q = torsion_basis(9)
    N = supersingular_order(curve.ctx.degree)
    rng = random.Random(7)
    T = point_of_exact_order(curve, N, 9, rng)
    assert (9 * T).is_infinity() and not (3 * T).is_infinity()


# ---------------------------------------------------------------------------
# transforms and base change


def test_transform_is_isomorphism():
    rng = random.Random(19)
    ctx = GF(4)
    E = WeierstrassCurve.ordinary(ctx, 7)
    u, r, s, t = ctx(3), ctx(12), ctx(5), ctx(9)
    E2, fwd = E.transform(u, r, s, t)
    u12 = u ** 12
    assert E2.discriminant() * u12 == E.discriminant()
    assert E2.j_invariant() == E.j_invariant()
    pts = _sample_points(E, rng, 8)
    for P in pts:
        assert fwd(P).curve == E2
    for P, Q in zip(pts, pts[1:]):
        assert fwd(P + Q) == fwd(P) + fwd(Q)
    assert fwd(E.infinity()).is_infinity()


def test_transform_char0_table_against_invariants():
    # over Q: scaling (u, 0, 0, 0) must scale disc by u^-12 and fix j
    a = tuple(map(Fraction, (1, -2, 3, -4, 5)))
    inv = curve_invariants(*a)
    for u in (Fraction(2), Fraction(3, 5)):
        b = transformed_coefficients(a, u, Fraction(7), Fraction(-1), Fraction(4))
        inv2 = curve_invariants(*b)
        assert inv2["disc"] == inv["disc"] / u ** 12
        assert inv2["c4"] == inv["c4"] / u ** 4


def test_base_change_preserves_structure():
    E = WeierstrassCurve.supersingular(2)
    assert E.base_change(E.ctx) is E
    big = E.base_change(GF(8))
    assert big.count_points() == supersingular_order(8)
    # wrong-degree target must fail at the embedding layer
    with pytest.raises(ValueError):
        E.base_change(GF(3))
    E4 = E.base_change(GF(4))
    P = E.point(0, 1)
    P4 = E.lift_point(P, GF(4))
    assert P4.curve == E4
    assert point_order(E4, P4) == point_order(E, P) == 3


def test_point_json_roundtrip():
    E = WeierstrassCurve.supersingular(4)
    P = E.point(0, 1)
    rec = P.to_json()
    assert rec["x"] == {"d": 4, "hex": "0"}
    assert rec["y"] == {"d": 4, "hex": "1"}
    assert rec["curve"] == [{"d": 4, "hex": h} for h in "00100"]
    assert E.infinity().to_json() == {"infinity": True}
    assert E.to_json() == {"d": 4, "a": ["0", "0", "1", "0", "0"]}


def test_point_order_function():
    E = WeierstrassCurve.supersingular(2)
    P = E.point(0, 0)
    assert point_order(E, E.infinity()) == 1
    assert point_order(E, P) == 3
    curve, P9, _ = torsion_basis(9)
    assert point_order(curve, P9) == 9
    assert point_order(curve, 3 * P9) == 3
    with pytest.raises(VerificationError):
        point_order(curve, P9, group_order=5)


def test_point_order_refuses_a_point_of_another_curve():
    # the order would be stripped from the other curve's group order
    E = WeierstrassCurve.supersingular(4)
    F = WeierstrassCurve.ordinary(GF(4), 1)
    P = F.random_point(random.Random(1))
    for R in (P, F.infinity()):
        with pytest.raises(ValueError, match="different curve"):
            point_order(E, R)
    assert point_order(F, P) == point_order(F, P, F.count_points())


def test_torsion_points_refuses_points_of_another_curve():
    curve, P, Q = torsion_basis(3)
    other = WeierstrassCurve.ordinary(curve.ctx, 1)
    R = other.random_point(random.Random(3))
    for args in ((other, P, Q), (curve, R, Q), (curve, P, R)):
        with pytest.raises(ValueError, match="different curves"):
            torsion_points(*args, 3)
    # an equal curve built anew is the same curve
    same = WeierstrassCurve.supersingular(curve.ctx)
    assert torsion_points(same, P, Q, 3) == torsion_points(curve, P, Q, 3)


def test_extension_order_matches_enumeration():
    E = WeierstrassCurve.ordinary(2, 1)  # base field of degree 2, q = 4
    base = E.count_points()
    for k in (2, 3, 4):
        lifted = E.base_change(GF(2 * k))
        assert extension_order(base, 4, k) == lifted.count_points()
    for k in range(1, 9):
        assert extension_order(supersingular_order(1), 2, k) == supersingular_order(k)
