"""Weighted points, coordinate formulas, normal form, forgetful map."""

import random
from fractions import Fraction

import pytest

import lame2.moduli12 as moduli12
from lame2.common import INFINITY, VerificationError
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


def reference_transform(coeffs, u, r, s, t):
    """Coefficients after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    The generic change-of-variables table (Silverman, AEC, Table 3.1), valid
    over any field whose elements absorb integer scalars; u invertible.
    """
    a1, a2, a3, a4, a6 = coeffs
    u2 = u * u
    u3 = u2 * u
    return ((a1 + 2 * s) / u,
            (a2 - s * a1 + 3 * r - s * s) / u2,
            (a3 + r * a1 + 2 * t) / u3,
            (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1
             + 3 * r * r - 2 * s * t) / (u2 * u2),
            (a6 + r * a4 + r * r * a2 + r * r * r
             - t * a3 - t * t - r * t * a1) / (u3 * u3))


def reference_change(curve, u, r, s, t):
    """The curve under (u, r, s, t), built from the table, and the forward
    point map."""
    new = WeierstrassCurve(curve.ctx, *reference_transform(
        curve.coefficients(), u, r, s, t))

    def fwd(pt):
        if pt.is_infinity():
            return new.infinity()
        return new.point((pt.x + r) / (u * u),
                         (pt.y + t + s * (pt.x + r)) / u ** 3)

    return new, fwd


def reference_tate_normal_form(curve, P):
    """The two-step route: translate P to (0, 0), then shear a4 away by
    s = a4/a3, checking each step on the transformed curve."""
    ctx = curve.ctx
    if P.is_infinity() or (P + P).is_infinity():
        raise ValueError("the marked point must have order > 2")
    moved, fwd = reference_change(curve, ctx.one, P.x, ctx.zero, P.y)
    assert fwd(P) == moved.point(0, 0) and moved.a3 and not moved.a6
    final, fwd2 = reference_change(moved, ctx.one, ctx.zero,
                                   moved.a4 / moved.a3, ctx.zero)
    assert not (final.a4 or final.a6)
    assert fwd2(moved.point(0, 0)) == final.point(0, 0)
    return WeightedPoint(final.a1, final.a2, final.a3)


def std_j(inv):
    disc = inv["disc"]
    if not disc:
        return INFINITY
    return inv["c4"] ** 3 / disc


# -- weighted point basics -----------------------------------------------------


def test_rejects_zero_triple():
    with pytest.raises(ValueError):
        WeightedPoint(0, 0, 0)


def test_coordinates_enter_by_the_constructor_rule():
    # the first field coordinate fixes the context; an int is read as field
    # bits and an element of another field is refused
    ctx = GF(4)
    assert WeightedPoint(ctx(3), 6, 1).coords() == (ctx(3), ctx(6), ctx(1))
    for coords in ((ctx(3), GF(8)(1), 1), (1, ctx(3), GF(2).one)):
        with pytest.raises(ValueError, match="different context"):
            WeightedPoint(*coords)


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


def test_canonical_spends_the_sign_on_c_when_a_is_zero():
    # over Q, (0, b, c) and (0, b, -c) are one orbit (lam = -1); every
    # member of the orbit of (0, 1, -1) has the representative with c > 0
    p = WeightedPoint(0, 1, -1)
    want = WeightedPoint(0, 1, 1)
    assert p.scale(-1) == want
    for lam in (1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3), 3):
        assert p.scale(lam).canonical() == want, lam
    assert want.canonical() == want


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


def test_tate_rejects_a_point_of_another_curve():
    curve = WeierstrassCurve.supersingular(2)
    # (0, 1) satisfies Y^2 + XY + Y = X^3 + X^2 too
    other = WeierstrassCurve(curve.ctx, 1, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="different curve"):
        tate_normal_form(curve, other.point(0, 1))


def _random_curve(ctx, rng):
    while True:
        try:
            return WeierstrassCurve(ctx, *(ctx.random(rng) for _ in range(5)))
        except ValueError:  # singular
            pass


def _marked_points(curve):
    """Every affine point of order > 2."""
    return [P for x in curve.ctx.elements() for y in curve.fiber_y(x)
            if not ((P := curve.point(x, y)) + P).is_infinity()]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_tate_closed_form_matches_the_reference_on_every_point(d):
    ctx = GF(d)
    rng = random.Random(d)
    curves = [WeierstrassCurve.supersingular(ctx)]
    curves += [_random_curve(ctx, rng) for _ in range(3)]
    pairs = [(E, P) for E in curves for P in _marked_points(E)]
    assert pairs
    for E, P in pairs:
        assert tate_normal_form(E, P) == reference_tate_normal_form(E, P)


@pytest.mark.parametrize("d", [8, 13])
def test_tate_closed_form_matches_the_reference_on_random_points(d):
    ctx = GF(d)
    rng = random.Random(d)
    checked = 0
    for E in [WeierstrassCurve.supersingular(ctx)] + [
            _random_curve(ctx, rng) for _ in range(4)]:
        for _ in range(8):
            P = E.random_point(rng)
            if not (P + P).is_infinity():
                assert tate_normal_form(E, P) == \
                    reference_tate_normal_form(E, P)
                checked += 1
    assert checked >= 30


@pytest.mark.parametrize("slot", [1, 2])
def test_tate_check_catches_a_corrupted_b_or_c(monkeypatch, slot):
    # _normal_form returns (s, b, c); adding a nonzero e to b or to c
    # must fail the 2P check on every marked point
    ctx = GF(5)
    rng = random.Random(slot)
    E = _random_curve(ctx, rng)
    points = _marked_points(E)
    true_form = moduli12._normal_form
    for P in points:
        e = ctx(rng.randrange(1, ctx.order))

        def corrupted(curve, x0, y0):
            out = list(true_form(curve, x0, y0))
            out[slot] += e
            return tuple(out)

        monkeypatch.setattr(moduli12, "_normal_form", corrupted)
        with pytest.raises(VerificationError, match="2P"):
            tate_normal_form(E, P)
        monkeypatch.setattr(moduli12, "_normal_form", true_form)
        tate_normal_form(E, P)
    assert len(points) > 10


def test_tate_builds_no_curve(monkeypatch):
    reps = [cls.representative for n in range(3, 14, 2)
            for cls in classify_torsion(n)]
    assert len(reps) == 19
    built = []
    init = WeierstrassCurve.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(WeierstrassCurve, "__init__", spy)
    for R in reps:
        tate_normal_form(R.curve, R)
    assert built == []


# -- the generic change of variables, kept as the reference ---------------------


def test_transform_is_isomorphism():
    rng = random.Random(19)
    ctx = GF(4)
    E = WeierstrassCurve.ordinary(ctx, 7)
    u, r, s, t = ctx(3), ctx(12), ctx(5), ctx(9)
    E2, fwd = reference_change(E, u, r, s, t)
    u12 = u ** 12
    assert E2.discriminant() * u12 == E.discriminant()
    inv, inv2 = (curve_invariants(*C.coefficients()) for C in (E, E2))
    assert inv2["c4"] ** 3 / inv2["disc"] == inv["c4"] ** 3 / inv["disc"]
    pts = [E.random_point(rng) for _ in range(8)]
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
        b = reference_transform(a, u, Fraction(7), Fraction(-1), Fraction(4))
        inv2 = curve_invariants(*b)
        assert inv2["disc"] == inv["disc"] / u ** 12
        assert inv2["c4"] == inv["c4"] / u ** 4


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
