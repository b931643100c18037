"""Hyperelliptic family, Cantor arithmetic, L-polynomials, certificates."""

import itertools
import random

import pytest

from lame2.arith import power_sum
from lame2.common import INFINITY, VerificationError
from lame2.gf2 import GF, Poly
from lame2.weierstrass import WeierstrassCurve
from lame2.hyper import (
    HyperellipticCurve,
    MumfordDivisor,
    _lower_hull,
    cantor_add,
    cantor_mul,
    class_of_point_pair,
    divisor_class_order,
    is_supersingular,
    jacobian_order,
    zeta_lpoly,
)


# -- the curve family ----------------------------------------------------------


def test_point_counts_small_fields():
    assert HyperellipticCurve(GF(1), 1).count_points() == 3
    assert HyperellipticCurve(GF(2), 1).count_points() == 9
    assert HyperellipticCurve(GF(1), 2).count_points() == 3
    assert HyperellipticCurve(GF(2), 2).count_points() == 5
    assert HyperellipticCurve(GF(1), 3).count_points() == 3


def test_points_listing_matches_count():
    # h = 1 and the listing is exactly the pairs that satisfy the equation
    for g in (1, 2, 3):
        for d in (1, 2, 3):
            C = HyperellipticCurve(GF(d), g)
            assert C.h == Poly.one(C.ctx)
            pts = C.points()
            assert pts[0] is INFINITY
            assert len(pts) == C.count_points()
            assert pts[1:] == [(x, y) for x in C.ctx.elements()
                               for y in C.ctx.elements() if C.contains(x, y)]


def test_sigma_is_an_involution_fixing_only_infinity():
    for g in (1, 2):
        for d in (1, 2, 3, 4, 6):
            C = HyperellipticCurve(GF(d), g)
            for pt in C.points():
                image = C.sigma(pt)
                assert C.sigma(image) == pt or image is INFINITY
                if pt is INFINITY:
                    assert image is INFINITY
                else:
                    assert C.contains(*image)
                    assert image != pt


def test_genus_validation():
    with pytest.raises(ValueError):
        HyperellipticCurve(GF(1), 0)


# -- Mumford representation -----------------------------------------------------


def test_divisor_validation():
    C = HyperellipticCurve(GF(2), 2)
    x = Poly.x(C.ctx)
    with pytest.raises(ValueError):
        MumfordDivisor(C, x + x, Poly.zero(C.ctx))  # zero u
    with pytest.raises(ValueError):
        MumfordDivisor(C, x * x, Poly(C.ctx, [0, 0, 1]))  # v too big
    with pytest.raises(ValueError):
        MumfordDivisor(C, Poly.one(C.ctx), Poly.one(C.ctx))  # identity v
    with pytest.raises(ValueError):
        MumfordDivisor(C, Poly(C.ctx, [1, 1]), Poly(C.ctx, [1]))  # v^2+v != f


def test_identity_and_conjugate():
    C = HyperellipticCurve(GF(2), 2)
    ident = C.identity_divisor()
    assert ident.is_identity and ident.conjugate() == ident
    for pt in C.points()[1:3]:
        D = C.point_divisor(pt)
        assert cantor_add(C, D, ident) == D
        assert cantor_add(C, D, D.conjugate()).is_identity


def test_divisor_json():
    C = HyperellipticCurve(GF(1), 2)
    D = C.point_divisor((C.ctx(0), C.ctx(0)))
    assert D.to_json() == {"u": ["0", "1"], "v": [], "d": 1, "genus": 2}
    with pytest.raises(ValueError, match="different context"):
        C.point_divisor((C.ctx(0), GF(2).one))


# -- Cantor against the elliptic oracle ------------------------------------------


def dictionary(C, E, pt):
    if pt is INFINITY:
        return E.infinity()
    return E.point(*pt)


def test_genus_one_dictionary_exhaustive_over_f8():
    ctx = GF(3)
    C = HyperellipticCurve(ctx, 1)
    E = WeierstrassCurve.supersingular(3)
    pts = C.points()
    for p1 in pts:
        for p2 in pts:
            lhs = cantor_add(C, C.point_divisor(p1), C.point_divisor(p2))
            total = dictionary(C, E, p1) + dictionary(C, E, p2)
            if total.is_infinity():
                assert lhs.is_identity
            else:
                assert lhs == C.point_divisor((total.x, total.y))


def test_genus_one_dictionary_random_larger_fields():
    rng = random.Random(17)
    for d in (4, 5, 6, 7, 8):
        ctx = GF(d)
        C = HyperellipticCurve(ctx, 1)
        E = WeierstrassCurve.supersingular(d)
        for _ in range(25):
            P1 = E.random_point(rng)
            P2 = E.random_point(rng)
            if P1.is_infinity() or P2.is_infinity():
                continue
            lhs = cantor_add(C, C.point_divisor((P1.x, P1.y)),
                             C.point_divisor((P2.x, P2.y)))
            total = P1 + P2
            if total.is_infinity():
                assert lhs.is_identity
            else:
                assert lhs == C.point_divisor((total.x, total.y))


def test_cantor_group_axioms_genus_two():
    rng = random.Random(23)
    C = HyperellipticCurve(GF(3), 2)
    pts = [p for p in C.points() if p is not INFINITY]

    def rand_divisor():
        D = C.point_divisor(rng.choice(pts))
        for _ in range(rng.randrange(3)):
            D = cantor_add(C, D, C.point_divisor(rng.choice(pts)))
        return D

    for _ in range(60):
        A, B, D = rand_divisor(), rand_divisor(), rand_divisor()
        assert cantor_add(C, A, B) == cantor_add(C, B, A)
        assert cantor_add(C, cantor_add(C, A, B), D) == \
            cantor_add(C, A, cantor_add(C, B, D))
        assert cantor_add(C, A, A.conjugate()).is_identity


def test_cantor_mul_by_a_negative_count_is_the_conjugate():
    # -k D is the conjugate of k D, and the two add up to the identity
    C = HyperellipticCurve(GF(3), 2)
    D = class_of_point_pair(C, C.points()[1])
    for k in range(1, 8):
        pos, neg = cantor_mul(C, D, k), cantor_mul(C, D, -k)
        assert neg == pos.conjugate(), k
        assert cantor_add(C, pos, neg).is_identity, k


# -- point-pair classes -----------------------------------------------------------


def test_point_pair_class_genus_one():
    C = HyperellipticCurve(GF(1), 1)
    P = (C.ctx(0), C.ctx(0))
    D = class_of_point_pair(C, P)
    assert divisor_class_order(C, D) == 3


def test_point_pair_class_genus_two():
    C = HyperellipticCurve(GF(1), 2)
    P = (C.ctx(0), C.ctx(0))
    D = class_of_point_pair(C, P)
    assert not D.is_identity
    assert divisor_class_order(C, D) == 5


def test_point_pair_antisymmetry():
    C = HyperellipticCurve(GF(2), 2)
    for pt in C.points()[1:6]:
        D = class_of_point_pair(C, pt)
        E = class_of_point_pair(C, C.sigma(pt))
        assert E == D.conjugate()
    with pytest.raises(ValueError):
        class_of_point_pair(C, INFINITY)


def test_point_pair_orders_are_odd_and_large():
    # supersingular Jacobians here have odd order; the generalized-order
    # inequality 2g + 1 <= n holds on every sampled nontrivial class
    for d in (1, 2, 3):
        for g in (1, 2, 3):
            C = HyperellipticCurve(GF(d), g)
            for pt in C.points()[1:5]:
                n = divisor_class_order(C, class_of_point_pair(C, pt))
                assert n % 2 == 1
                if n > 1:
                    assert 2 * g + 1 <= n, (d, g, n)


# -- L-polynomials -----------------------------------------------------------------


def test_lpoly_frozen_values():
    assert zeta_lpoly(1, [3]) == [1, 0, 2]
    assert zeta_lpoly(2, [3, 5]) == [1, 0, 0, 0, 4]
    assert zeta_lpoly(3, [3, 5, 3]) == [1, 0, 0, -2, 0, 0, 8]


def test_lpoly_rejects_inconsistent_counts():
    with pytest.raises(VerificationError):
        zeta_lpoly(2, [3, 5, 17])  # F_8 count contradicts the completion
    with pytest.raises(ValueError):
        zeta_lpoly(2, [3])


def test_lpoly_validates_extra_counts():
    counts = [HyperellipticCurve(GF(d), 2).count_points() for d in (1, 2, 3, 4)]
    assert zeta_lpoly(2, counts) == [1, 0, 0, 0, 4]


def test_lpoly_hands_out_a_copy():
    # lpoly() handed out the cached list itself, so one caller's append
    # made every later hyper report raise "malformed L-polynomial"
    HyperellipticCurve(GF(1), 2).lpoly().append(99)
    C = HyperellipticCurve(GF(3), 2)
    assert C.lpoly() == [1, 0, 0, 0, 4]
    assert is_supersingular(C.lpoly())["supersingular"]
    assert C.jacobian_order() == jacobian_order([1, 0, 0, 0, 4], 3)


def test_jacobian_orders_match_direct_counts():
    # #J(F_q) for genus 1 is the elliptic group order
    from lame2.weierstrass import supersingular_order
    L = zeta_lpoly(1, [3])
    for d in (1, 2, 3, 4, 5, 6):
        assert jacobian_order(L, d) == supersingular_order(d)


def test_jacobian_order_genus_two_extensions():
    L = zeta_lpoly(2, [3, 5])
    assert jacobian_order(L, 1) == 5
    assert jacobian_order(L, 2) == 25
    # eigenvalues satisfy alpha^4 = -4, so #J(F_16) = (1-(-4))^4... compute
    # directly instead: prod(1 - a^4) = (1+4)^4
    assert jacobian_order(L, 4) == 625



def _reduced_divisors(C):
    """Every reduced Mumford pair of C, by brute force: u monic of degree at
    most the genus, deg v < deg u, and u | v^2 + v + f."""
    ctx, f = C.ctx, C.f
    q = 1 << ctx.degree
    out = [C.identity_divisor()]
    for deg in range(1, C.genus + 1):
        for low in itertools.product(range(q), repeat=deg):
            u = Poly(ctx, [*low, 1])
            for vs in itertools.product(range(q), repeat=deg):
                v = Poly(ctx, list(vs))
                if ((v * v + v + f) % u).is_zero():
                    out.append(MumfordDivisor(C, u, v))
    return out


@pytest.mark.parametrize("d, order", [(1, 5), (2, 25), (3, 65), (4, 625)])
def test_enumerated_jacobian_matches_the_lpoly_order(d, order):
    # Y^2 + Y = X^5 over GF(2^d): the reduced divisors are the Jacobian, and
    # adding one of them with Cantor permutes them
    C = HyperellipticCurve(GF(d), 2)
    divisors = _reduced_divisors(C)
    group = set(divisors)
    assert len(group) == len(divisors) == jacobian_order(C.lpoly(), d) == order
    rng = random.Random(70 + d)
    for A in rng.sample(divisors, min(3, order)):
        assert {cantor_add(C, A, B) for B in divisors} == group


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divisor_class_order_matches_repeated_addition(d):
    # every class of the enumerated Jacobian of Y^2 + Y = X^5 over GF(2^d)
    C = HyperellipticCurve(GF(d), 2)
    for D in _reduced_divisors(C):
        k, acc = 1, D
        while not acc.is_identity:
            k, acc = k + 1, cantor_add(C, acc, D)
        assert divisor_class_order(C, D) == k


def test_lpoly_counts_roundtrip():
    # the completed polynomial reproduces the enumerated counts above genus
    for g in (1, 2, 3):
        L = HyperellipticCurve(GF(1), g).lpoly()
        for d in range(1, 13):
            C = HyperellipticCurve(GF(d), g)
            predicted = (1 << d) + 1 - power_sum(L, d)
            assert predicted == C.count_points(), (g, d)


# -- supersingularity certificates ---------------------------------------------------


def test_supersingular_certificates():
    one = is_supersingular([1, 0, 2])
    assert one["supersingular"] and one["slopes"] == [0.5]
    two = is_supersingular([1, 0, 0, 0, 4])
    assert two["supersingular"]
    assert two["polygon"] == [(0, 0), (4, 2)]


def test_genus_three_family_is_not_supersingular():
    # measured outcome: the polygon breaks into slopes 1/3 and 2/3
    cert = is_supersingular(HyperellipticCurve(GF(1), 3).lpoly())
    assert cert["supersingular"] is False
    assert [str(s) for s in cert["slopes"]] == ["1/3", "2/3"]
    assert cert["valuations"] == [(0, 0), (3, 1), (6, 3)]


def reference_lower_hull(points):
    """The lower hull of points with distinct x, by brute force: the two
    ends and every point strictly below each chord that spans it."""
    pts = sorted(points)
    return [p for i, p in enumerate(pts)
            if all((b[0] - a[0]) * p[1] < (b[0] - p[0]) * a[1]
                   + (p[0] - a[0]) * b[1]
                   for a in pts[:i] for b in pts[i + 1:])]


def test_lower_hull_drops_points_above_a_chord():
    # (1, 2) lies above the chord from (0, 0) to (2, 0) and is popped
    assert _lower_hull([(0, 0), (1, 2), (2, 0)]) == [(0, 0), (2, 0)]
    rng = random.Random(5)
    for _ in range(200):
        xs = rng.sample(range(12), rng.randint(1, 8))
        points = [(x, rng.randint(-6, 6)) for x in xs]
        assert _lower_hull(points) == reference_lower_hull(points), points


def test_ordinary_elliptic_is_rejected():
    cert = is_supersingular([1, 1, 2])
    assert cert["supersingular"] is False


def test_certificate_input_validation():
    with pytest.raises(ValueError):
        is_supersingular([2, 0, 2])
    with pytest.raises(ValueError):
        is_supersingular([1, 0, 0, 2])
    with pytest.raises(ValueError):
        is_supersingular([1, 1, 1, 1, 4])  # functional equation fails
