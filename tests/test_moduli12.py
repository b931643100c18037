"""Weighted points, coordinate formulas, normal form, forgetful map."""

import random
from fractions import Fraction

import pytest

from lame2.common import INFINITY
from lame2.gf2 import GF
from lame2.weierstrass import WeierstrassCurve, curve_invariants, point_order, \
    torsion_basis
from lame2.lame import classify_torsion, ordinary_torsion_point
from lame2.moduli12 import (
    WeightedPoint,
    discriminant_formula,
    forgetful,
    j_formula,
    tate_normal_form,
    wp_equal,
)


def std_j(inv):
    disc = inv["disc"]
    if not disc:
        return INFINITY
    return inv["c4"] ** 3 / disc


# -- weighted point basics -----------------------------------------------------


def test_rejects_zero_triple():
    with pytest.raises(ValueError):
        WeightedPoint(0, 0, 0)


def test_scaling_orbits_are_equal():
    p = WeightedPoint(1, Fraction(3, 2), Fraction(-7, 5))
    for lam in (2, Fraction(-1, 3), Fraction(7, 11)):
        q = p.scale(lam)
        assert wp_equal(p, q)
        assert p.canonical() == q.canonical()


def test_weight_pattern_mismatch():
    assert not wp_equal(WeightedPoint(1, 0, 0), WeightedPoint(0, 1, 0))
    assert not wp_equal(WeightedPoint(0, 1, 0), WeightedPoint(0, 0, 1))


def test_pure_weight_three_orbits():
    assert wp_equal(WeightedPoint(0, 0, 2), WeightedPoint(0, 0, 16))
    assert not wp_equal(WeightedPoint(0, 0, 2), WeightedPoint(0, 0, 4))
    # sign is always absorbed by an odd power
    assert wp_equal(WeightedPoint(0, 0, 1), WeightedPoint(0, 0, -1))


def test_pure_weight_two_orbits():
    assert wp_equal(WeightedPoint(0, 2, 0), WeightedPoint(0, 8, 0))
    assert not wp_equal(WeightedPoint(0, 2, 0), WeightedPoint(0, 6, 0))
    assert not wp_equal(WeightedPoint(0, 1, 0), WeightedPoint(0, -1, 0))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_binary_equality_matches_a_search_over_every_scaling(d):
    # wp_equal against the orbit itself: q equals p.scale(l) for some
    # nonzero l; random points of every zero pattern, a = 0 and b = 0
    # included, each against a random point and a scaled copy of itself
    ctx = GF(d)
    rng = random.Random(d)
    nonzero = [c for c in ctx.elements() if c]
    points = [WeightedPoint(*(rng.choice(nonzero) if on else ctx.zero
                              for on in pattern))
              for pattern in ((1, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 0),
                              (0, 1, 1), (0, 1, 0), (0, 0, 1))
              for _ in range(12)]
    seen = set()
    for p in points:
        for q in (rng.choice(points), p.scale(rng.choice(nonzero))):
            orbit = any(p.scale(lam) == q for lam in nonzero)
            assert wp_equal(p, q) == orbit, (p, q)
            seen.add(orbit)
    assert seen == {True, False}


def test_canonical_leading_one():
    p = WeightedPoint(Fraction(2, 3), 5, 7).canonical()
    assert p.a == 1
    q = WeightedPoint(0, 12, 5).canonical()
    assert q.b == 3 and q.c >= 0  # squarefree representative
    r = WeightedPoint(0, 0, Fraction(-16, 27)).canonical()
    assert r.c == Fraction(2)  # cubefree and positive
    # int coordinates stay exact: no 1 / a ever becomes a float
    s = WeightedPoint(2, 5, 7).canonical()
    assert s.coords() == (1, Fraction(5, 4), Fraction(7, 8))
    assert not any(isinstance(v, float) for v in s.coords())


def test_canonical_binary_fields():
    ctx = GF(4)
    p = WeightedPoint(ctx(5), ctx(9), ctx(2)).canonical()
    assert p.a == ctx.one
    q = WeightedPoint(ctx.zero, ctx(9), ctx(2)).canonical()
    assert q.b == ctx.one
    # scaling consistency over the field
    base = WeightedPoint(ctx(3), ctx(7), ctx(11))
    assert base.canonical() == base.scale(ctx(6)).canonical()


def test_canonical_binary_cube_cosets():
    # cubes have index 3 exactly in even-degree fields
    ctx = GF(2)
    reps = {WeightedPoint(ctx.zero, ctx.zero, c).canonical().c.bits
            for c in ctx.elements() if c}
    assert len(reps) == 3
    odd = GF(3)
    reps_odd = {WeightedPoint(odd.zero, odd.zero, c).canonical().c.bits
                for c in odd.elements() if c}
    assert reps_odd == {1}


def test_json_uses_canonical_form():
    rec = WeightedPoint(0, 0, Fraction(-8)).to_json()
    assert rec == {"field": "Q", "a": "0/1", "b": "0/1", "c": "1/1"}
    ctx = GF(2)
    rec2 = WeightedPoint(ctx(2), ctx(1), ctx(3)).to_json()
    assert rec2["field"] == {"d": 2}
    assert rec2["a"] == {"d": 2, "hex": "1"}


# -- the coordinate formulas against the classical formulary --------------------


def test_discriminant_at_the_base_point():
    assert discriminant_formula(WeightedPoint(0, 0, 1)) == -27


def test_discriminant_vanishes_on_degenerate_locus():
    assert discriminant_formula(WeightedPoint(1, 5, 0)) == 0
    assert j_formula(WeightedPoint(1, 5, 0)) is INFINITY


def test_j_at_the_base_point():
    assert j_formula(WeightedPoint(0, 0, 1)) == 0
    # on int coordinates j is an exact Fraction, never a float
    assert type(j_formula(WeightedPoint(0, 0, 1))) is Fraction
    assert j_formula(WeightedPoint(1, 2, 3)) == Fraction(-27, 62)
    assert forgetful(WeightedPoint(0, 0, 1)) == 0


def test_formulas_match_formulary_on_random_rationals():
    rng = random.Random(5)
    checked = 0
    while checked < 120:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if not (a or b or c):
            continue
        p = WeightedPoint(a, b, c)
        inv = curve_invariants(a, b, c, Fraction(0), Fraction(0))
        # the displayed discriminant IS the formulary one: constant 1
        assert discriminant_formula(p) == inv["disc"]
        assert j_formula(p) == std_j(inv)
        checked += 1


def test_formulas_match_formulary_over_binary_fields():
    ctx = GF(5)
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (ctx.random(rng) for _ in range(3))
        if not (a or b or c):
            continue
        p = WeightedPoint(a, b, c)
        inv = curve_invariants(a, b, c, ctx.zero, ctx.zero)
        assert discriminant_formula(p) == inv["disc"]
        assert j_formula(p) == std_j(inv)
        # the mod-2 collapse of the displayed expression
        disc = discriminant_formula(p)
        if disc:
            collapsed = a ** 12 / (c * c * (b * a ** 4 + a ** 3 * c + c * c))
            assert j_formula(p) == collapsed


def test_scaling_weights_of_the_formulas():
    rng = random.Random(3)
    p = WeightedPoint(Fraction(2), Fraction(-1, 2), Fraction(5, 3))
    for _ in range(20):
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        q = p.scale(lam)
        assert discriminant_formula(q) == lam ** 12 * discriminant_formula(p)
        assert j_formula(q) == j_formula(p)


# -- Tate normal form ------------------------------------------------------------


def test_tate_of_the_marked_supersingular_pair():
    curve = WeierstrassCurve.supersingular(2)
    P = curve.point(0, curve.fiber_y(curve.ctx.zero)[0])
    wp = tate_normal_form(curve, P)
    assert wp_equal(wp, WeightedPoint(curve.ctx.zero, curve.ctx.zero,
                                      curve.ctx.one))


def test_tate_rejects_small_orders():
    curve = WeierstrassCurve.supersingular(2)
    with pytest.raises(ValueError):
        tate_normal_form(curve, curve.infinity())
    ordinary = WeierstrassCurve.ordinary(GF(2), GF(2)(2))
    R = ordinary.point(0, ordinary.fiber_y(ordinary.ctx.zero)[0])
    with pytest.raises(ValueError):
        tate_normal_form(ordinary, R)


def test_tate_round_trip_preserves_order():
    ctx = GF(4)
    curve, P, _ = ordinary_torsion_point(ctx(7), 5)
    wp = tate_normal_form(curve, P)
    model = WeierstrassCurve(P.curve.ctx, wp.a, wp.b, wp.c,
                             P.curve.ctx.zero, P.curve.ctx.zero)
    marked = model.point(0, 0)
    assert point_order(model, marked, 5) == 5


def test_tate_preserves_j():
    ctx = GF(4)
    curve, P, _ = ordinary_torsion_point(ctx(7), 5)
    inv = curve_invariants(*curve.coefficients())
    assert j_formula(tate_normal_form(curve, P)) == std_j(inv)


def negation_pair_report(curve, P):
    """Whether (E, P) and (E, -P) land on the same weighted point.

    The two pairs are abstractly isomorphic only if some curve
    automorphism carries P to -P, so equality is measured, not assumed.
    """
    wp = tate_normal_form(curve, P)
    wn = tate_normal_form(curve, -P)
    return {"point": wp, "negation": wn, "equal": wp_equal(wp, wn)}


def test_negation_pairs_report_equal():
    # measured outcome: inversion is a curve automorphism fixing the origin,
    # so the two markings always land on the same weighted point
    for n in (5, 7, 9):
        curve, P, _ = torsion_basis(n)
        rep = negation_pair_report(curve, P)
        assert rep["equal"] is True
        assert wp_equal(rep["point"], rep["negation"])


def test_lame_locus_sits_over_j_zero():
    for n in (3, 5, 7, 9, 13):
        for cls in classify_torsion(n):
            wp = tate_normal_form(cls.representative.curve,
                                  cls.representative)
            assert j_formula(wp) == 0, n
            assert wp.a.bits == 0
