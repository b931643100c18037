"""Torsion covers of the supersingular curve and their classification.

The supersingular model Y^2 + Y = X^3 has automorphism group of order 24
(fixing the origin), realized here as its keys, the triples (u, a, c) of
bits with u^3 = 1, a in F_4 and c^2 + c = a^3, acting by

    (x, y) |-> (u^2 x + a, y + u^2 a^2 x + c).

The parametrization is rederived rather than quoted, so the module verifies
it at runtime before use, on raw ints with one validated image table per
context: curve preservation, group closure under the composition law,
compatibility with point addition, and the order-24 count.

The degree-12 map (x, y) |-> (x^4 + x)^3 is invariant under all 24
automorphisms and identifies the quotient of the affine curve by the group
with the affine line.  Odd-torsion points are classified by their image
under this map, on (x, y) pairs of bits, with a point built only for each
class representative; the classification, the counting formulas, the
field-of-moduli census, and the Galois equivariance of the quotient all
live here, together with the canonical branch-certified cover attached to
a torsion point on either curve family.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, lcm

from .arith import divisors, factorint, mobius
from .common import FiberEscapeError, INFINITY, VerificationError
from .gf2 import GF, FieldContext, FieldElement, element_degree, embed, poly_roots
from .gf2 import Poly, _factor_degrees
from .weierstrass import (
    CurvePoint,
    WeierstrassCurve,
    _is_supersingular_model,
    _add_pairs,
    extension_order,
    point_of_exact_order,
    point_order,
    torsion_basis,
)
from .funcfield import (_different, _expand_shifted, _fiber_poly,
                        miller_function, ramification_profile)

# desk-scale caps: the largest torsion order classified point by point, and
# the largest degree d of the field-of-moduli census over F_(2^d)
_MAX_ORDER = 13
_MAX_CENSUS_DEGREE = 8


# ---------------------------------------------------------------------------
# the automorphism group of (E, 0) for E: Y^2 + Y = X^3


def _require_supersingular_model(curve: WeierstrassCurve):
    if not _is_supersingular_model(curve):
        raise ValueError("operation is specific to the Y^2+Y=X^3 model")


def _act(ctx: FieldContext, key, x: int, y: int):
    """(x, y) moved by the (u, a, c) key, on ints; raises like curve.point
    when the image leaves Y^2 + Y = X^3, so every image is certified."""
    mul, sqr = ctx.mul, ctx.sqr
    u, a, c = key
    u2 = sqr(u)
    x2 = mul(u2, x) ^ a
    y2 = y ^ mul(mul(u2, sqr(a)), x) ^ c
    if sqr(y2) ^ y2 != mul(sqr(x2), x2):
        raise ValueError("point is not on the curve")
    return x2, y2


def _compose(ctx: FieldContext, k1, k2):
    """The key of k1 after k2."""
    mul, sqr = ctx.mul, ctx.sqr
    u1, a1, c1 = k1
    u2, a2, c2 = k2
    u1sq = sqr(u1)
    return (mul(u1, u2), mul(u1sq, a2) ^ a1,
            c1 ^ c2 ^ mul(mul(u1sq, sqr(a1)), a2))


def _fourth_roots(ctx: FieldContext):
    """The bits of the copy {0, 1, w, w + 1} of F_4 in the context, sorted,
    with w the embedded generator of GF(4)."""
    w = embed(GF(2)(2), ctx).bits
    return sorted((0, 1, w, w ^ 1))


_AUT_CACHE = {}


def aut_group(field) -> list:
    """The 24 automorphisms of (Y^2+Y=X^3, 0) over an even-degree field, as
    their sorted (u, a, c) keys of bits; ``_act`` applies a key to a point.

    The list is self-verified once per context: curve preservation and
    addition-compatibility on random points, closure of the composition
    law, presence of identity and negation, and a non-commuting pair.
    """
    ctx = field if isinstance(field, FieldContext) else GF(field)
    if ctx.degree % 2:
        raise ValueError("the automorphism group needs F_4, an even degree")
    cached = _AUT_CACHE.get(ctx)
    if cached is not None:
        return list(cached)

    mul, sqr = ctx.mul, ctx.sqr
    f4 = _fourth_roots(ctx)
    # u^3 = 1 and c^2 + c = a^3 are F_4 equations, so u, a and c lie in F_4
    keys = [(u, a, c) for u in f4 if u for a in f4 for c in f4
            if sqr(c) ^ c == mul(sqr(a), a)]
    _verify_aut_group(ctx, keys)
    _AUT_CACHE[ctx] = tuple(keys)
    return keys


def _verify_aut_group(ctx: FieldContext, keys):
    if len(keys) != 24:
        raise VerificationError("expected 24 automorphisms, found %d"
                                % len(keys))
    index = {key: j for j, key in enumerate(keys)}
    if len(index) != 24:
        raise VerificationError("automorphism list has duplicates")
    if (1, 0, 0) not in index:
        raise VerificationError("identity element missing")

    curve = WeierstrassCurve.supersingular(ctx)
    rng = random.Random(0xA07)
    points = [curve.random_point(rng) for _ in range(4)]

    if (1, 0, 1) not in index:
        raise VerificationError("negation element missing")
    for P in points:
        if _act(ctx, (1, 0, 1), *P.xy) != (-P).xy:
            raise VerificationError("(1,0,1) does not act as negation")

    # img[j]: the validated image of points[0] under keys[j]
    img = []
    pairs = [P.xy for P in points]
    S = _add_pairs(curve, pairs[0], pairs[1])
    for key in keys:
        ims = [_act(ctx, key, x, y) for x, y in pairs]  # validates membership
        image_S = None if S is None else _act(ctx, key, *S)
        if image_S != _add_pairs(curve, ims[0], ims[1]):
            raise VerificationError("automorphism is not additive")
        img.append(ims[0])

    noncommuting = False
    for ka in index:
        for j, kb in enumerate(index):
            gamma = _compose(ctx, ka, kb)
            if gamma not in index:
                raise VerificationError("composition left the set")
            if img[index[gamma]] != _act(ctx, ka, *img[j]):
                raise VerificationError("composition law disagrees with action")
            if not noncommuting and gamma != _compose(ctx, kb, ka):
                noncommuting = True
    if not noncommuting:
        raise VerificationError("group verified abelian; expected non-abelian")


# ---------------------------------------------------------------------------
# the quotient map and its fibers


def _rho_bits(ctx: FieldContext, x: int) -> int:
    """(x^4 + x)^3 on bits."""
    t = ctx.sqr(ctx.sqr(x)) ^ x
    return ctx.mul(ctx.sqr(t), t)


def rho(P: CurvePoint) -> FieldElement:
    """The 24-fold quotient invariant (x^4 + x)^3 of an affine point."""
    _require_supersingular_model(P.curve)
    if P.is_infinity():
        raise ValueError("the quotient map is affine; the origin is excluded")
    ctx = P.curve.ctx
    return FieldElement(ctx, _rho_bits(ctx, P.xy[0]))


def _even_context_point(P: CurvePoint) -> CurvePoint:
    if P.curve.ctx.degree % 2 == 0:
        return P
    big = GF(2 * P.curve.ctx.degree)
    return P.curve.lift_point(P, big)


def _orbit_pairs(ctx: FieldContext, x: int, y: int) -> set:
    """The images of the affine point (x, y) under the 24 keys, as pairs."""
    orbit = {_act(ctx, key, x, y) for key in aut_group(ctx)}
    if 24 % len(orbit):
        raise VerificationError("orbit size does not divide the group order")
    return orbit


def aut_orbit(P: CurvePoint) -> set:
    """Orbit of P under all 24 automorphisms (over an even-degree field)."""
    _require_supersingular_model(P.curve)
    P = _even_context_point(P)
    if P.is_infinity():
        return {P}
    return {CurvePoint(P.curve, p) for p in _orbit_pairs(P.curve.ctx, *P.xy)}


class LameClass:
    """One isomorphism class of torsion covers, tagged by its quotient value."""

    __slots__ = ("order", "rho_value", "moduli_degree", "representative")

    def __init__(self, order: int, rho_value: FieldElement,
                 moduli_degree: int, representative: CurvePoint):
        self.order = order
        self.rho_value = rho_value
        self.moduli_degree = moduli_degree
        self.representative = representative

    def to_json(self):
        return {"n": self.order,
                "rho": self.rho_value.to_json(),
                "moduli_degree": self.moduli_degree,
                "rep": self.representative.to_json()}

    def __repr__(self):
        return "LameClass(n=%d, rho=%r, moduli_degree=%d)" % (
            self.order, self.rho_value, self.moduli_degree)


def classify_torsion(n: int) -> list:
    """Group the exact-order-n points by quotient value, one class each.

    The ground field is the full n-torsion field.  Every merged pair is
    certified: points share a quotient value exactly when they share an
    automorphism orbit.
    """
    return list(_classify_torsion(n))


@lru_cache(maxsize=None)
def _classify_torsion(n: int) -> tuple:
    if n < 3 or n % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    if n > _MAX_ORDER:
        raise ValueError(
            f"desk-scale classification stops at order {_MAX_ORDER}")
    curve, P1, P2 = torsion_basis(n)
    ctx = curve.ctx
    p1, p2 = P1.xy, P2.xy
    row = [None]  # row[b] = b*P1
    for _ in range(n - 1):
        row.append(_add_pairs(curve, row[-1], p1))
    groups = {}
    Q = None  # a*P2
    for a in range(n):
        for b in range(n):
            if gcd(gcd(a, b), n) == 1:
                x, y = _add_pairs(curve, row[b], Q)
                groups.setdefault(_rho_bits(ctx, x), []).append((x, y))
        Q = _add_pairs(curve, Q, p2)

    total = sum(len(members) for members in groups.values())
    if total != psi(n):
        raise VerificationError("exact-order locus has size %d, expected %d"
                                % (total, psi(n)))

    classes = []
    for bits in sorted(groups):
        members = groups[bits]
        # the least member by the bytes of its JSON: on one curve the
        # records differ only in the x and y hex strings, each closed by a quote
        rep = min(members, key=lambda p: (format(p[0], "x") + '"',
                                          format(p[1], "x") + '"'))
        if _orbit_pairs(ctx, *rep) != set(members):
            raise VerificationError(
                "quotient fiber differs from automorphism orbit at rho=%x"
                % bits)
        value = FieldElement(ctx, bits)
        classes.append(LameClass(n, value, element_degree(value),
                                 CurvePoint(curve, rep)))
    return tuple(classes)


def psi(n: int) -> int:
    """Number of exact-order-n points on any elliptic curve, n odd."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    out = 1
    for p, r in factorint(n).items():
        out *= p ** (2 * r - 2) * (p * p - 1)
    return out


def eta_paper(d: int) -> int:
    """The multiplicative count 2^(p^r) - 2^(p^(r-1)) extended by products.

    Correct on prime powers; on d with several prime factors it differs
    from the exact-degree element count (see degree_count_true), and both
    are reported side by side wherever they are compared.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return 2
    out = 1
    for p, r in factorint(d).items():
        out *= 2 ** (p ** r) - 2 ** (p ** (r - 1))
    return out


def degree_count_true(d: int) -> int:
    """#{c in F_{2^d} : the subfield generated by c has degree exactly d}."""
    if d < 1:
        raise ValueError("d must be positive")
    return sum(mobius(d // e) * (1 << e) for e in divisors(d))


def lame_count_dividing(n: int) -> int:
    """Number of cover classes of order dividing n (n odd, n > 1).

    Closed form (n^2-1)/24 away from multiples of 3, (3m^2+5)/8 at n = 3m;
    cross-checked against the brute classification for n <= _MAX_ORDER.
    """
    if n <= 1 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    if n % 3:
        expected = (n * n - 1) // 24
    else:
        m = n // 3
        expected = (3 * m * m + 5) // 8
    if n <= _MAX_ORDER:
        brute = sum(len(classify_torsion(m)) for m in divisors(n) if m > 1)
        if brute != expected:
            raise VerificationError(
                "count formula %d disagrees with classification %d"
                % (expected, brute))
    return expected


# ---------------------------------------------------------------------------
# field-of-moduli census


def _roots_in_some_extension(c: FieldElement):
    """Roots of (x^4+x)^3 = c in the least extension tower step that has any:
    GF(2^(de)) has a root exactly when a factor's degree over GF(2^d) divides
    e, so e is the least factor degree."""
    cube = [0, 0, 1] * 4  # (x^4 + x)^3 = x^12 + x^9 + x^6 + x^3
    big = GF(c.ctx.degree * min(_factor_degrees(Poly(c.ctx, [c.bits] + cube))))
    g = Poly(big, [embed(c, big).bits] + cube)
    return big, [r for r, _mult in poly_roots(g)]


def _lift_to_curve(x0: FieldElement) -> CurvePoint:
    """A point of Y^2+Y=X^3 above x0, doubling the field once if needed."""
    curve = WeierstrassCurve.supersingular(x0.ctx)
    ys = curve.fiber_y(x0)
    if not ys:
        big = GF(2 * x0.ctx.degree)
        curve = WeierstrassCurve.supersingular(big)
        x0 = embed(x0, big)
        ys = curve.fiber_y(x0)
        if not ys:
            raise VerificationError("trace obstruction survived a quadratic"
                                    " extension")  # pragma: no cover
    return curve.point(x0, ys[0])


def moduli_census(d: int) -> dict:
    """One certified cover class for every quotient value in F_{2^d}.

    Each c is realized as the quotient value of an explicit point (root of
    (x^4+x)^3 = c lifted to the curve), its exact order recorded, and the
    classes partitioned by the degree of the subfield their value generates.
    """
    if not 1 <= d <= _MAX_CENSUS_DEGREE:
        raise ValueError(
            f"census is desk-scale: 1 <= d <= {_MAX_CENSUS_DEGREE}")
    ctx = GF(d)
    classes = []
    by_degree = {}
    for c in ctx.elements():
        big, roots = _roots_in_some_extension(c)
        P = _lift_to_curve(roots[0])
        value = rho(P)
        if value != embed(c, P.curve.ctx):
            raise VerificationError("constructed point has the wrong quotient"
                                    " value")
        order = point_order(P.curve, P)
        degree = element_degree(c)
        classes.append(LameClass(order, c, degree, P))
        by_degree[degree] = by_degree.get(degree, 0) + 1

    if len(classes) != 1 << d:
        raise VerificationError("census size is not 2^d")  # pragma: no cover
    expected = {e: degree_count_true(e) for e in divisors(d)}
    if by_degree != expected:
        raise VerificationError("per-degree counts %r do not match the"
                                " Moebius counts %r" % (by_degree, expected))
    return {"d": d,
            "classes": classes,
            "by_degree": by_degree,
            "by_degree_expected": expected,
            "eta_paper": {e: eta_paper(e) for e in sorted(expected)},
            "count": len(classes)}


def galois_equivariance_check(d: int, samples: int = 1000,
                              seed: int = 0) -> dict:
    """Does the quotient map commute with the 2^d-power Frobenius?

    Samples points over a spread of even-degree fields and compares
    rho(Frobenius(P)) with Frobenius(rho(P)) exactly.
    """
    rng = random.Random(seed)
    failures = []
    checked = 0
    degrees = [2, 4, 6, 8, 12]
    while checked < samples:
        degree = degrees[checked % len(degrees)]
        curve = WeierstrassCurve.supersingular(degree)
        P = curve.random_point(rng)
        img = curve.point(P.x.frobenius(d), P.y.frobenius(d))
        if rho(img) != rho(P).frobenius(d):
            failures.append(P.to_json())  # pragma: no cover
        checked += 1
    return {"d": d, "samples": checked, "failures": failures,
            "passed": not failures}


# ---------------------------------------------------------------------------
# the canonical cover of a torsion point, with certified branch data


def _fiber_splitting_degree(func, value):
    """Least extension degree whose x-line splits the fiber over value: the
    lcm of the factor degrees of the polynomial of its x-coordinates."""
    return lcm(1, *_factor_degrees(_fiber_poly(func, value)))


def _normalized_cover(P: CurvePoint, n: int):
    """The cover function with its distinguished third point Q, 2Q = P."""
    if n < 3 or n % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    curve = P.curve
    f = miller_function(P, n)
    half = ((n + 1) // 2) % n
    supersingular = curve.is_supersingular()
    if supersingular:
        Q = half * P
        f = f * f.evaluate(Q).inverse()
    else:
        R = curve.point(0, curve.fiber_y(curve.ctx.zero)[0])
        if not (R + R).is_infinity() or R.is_infinity():
            raise VerificationError("x = 0 is not the 2-torsion point")
        Q = half * P + R
        f = f * f.evaluate(R).inverse()
    if Q + Q != P:
        raise VerificationError("midpoint does not double back to P")
    return f, Q, supersingular


def third_point_datum(P: CurvePoint, n: int) -> dict:
    """Index and different exponent at the third point only.

    Skips the fiber enumeration of cover_profile, so it stays in the base
    field and is cheap enough to sweep every exact-order point; one series
    of f - f(Q) through t^n gives both e and d.
    """
    f, Q, supersingular = _normalized_cover(P, n)
    value = f.evaluate(Q)
    s = _expand_shifted(f, value, Q, n + 1)
    e = s.valuation()
    d = _different(f, value, Q, s) if e > 1 else 0
    return {
        "n": n,
        "model": "supersingular" if supersingular else "ordinary",
        "index": e,
        "different_exponent": d,
        "tame": e > 1 and d == e - 1,
        "signature": 1 if (n * Q).is_infinity() else 0,
    }


def cover_profile(P: CurvePoint, n: int) -> dict:
    """Degree-n cover attached to an n-torsion point, with its branch data.

    The function with divisor n(P) - n(0) is normalized by the family's
    convention: value 1 at the midpoint Q = ((n+1)/2)P on the supersingular
    model, value 1 at the 2-torsion point R on the ordinary model.  The
    returned report certifies the fibers over every branch value and the
    different-degree accounting, and classifies the third branch point.
    """
    curve = P.curve
    f, Q, supersingular = _normalized_cover(P, n)

    third = f.evaluate(Q)
    if third.bits == 0:
        raise VerificationError("third branch value collided with 0")

    # The unramified sheets over the third value need not be rational over
    # the field carrying P, so the certificate runs over the splitting
    # extension of the fiber (one extra quadratic step covers the y-line).
    k = _fiber_splitting_degree(f, third)
    for m in (k, 2 * k):
        big = GF(curve.ctx.degree * m)
        work = f.base_change(big)
        P_w = curve.lift_point(P, big)
        Q_w = curve.lift_point(Q, big)
        values = [big.zero, embed(third, big), INFINITY]
        try:
            profile = ramification_profile(work, values)
            break
        except FiberEscapeError:
            if m > k:
                raise

    zero_fiber = profile[values[0]]
    pole_fiber = profile[INFINITY]
    if zero_fiber != [(P_w, n, n - 1)]:
        raise VerificationError("zero fiber is not n-fold at P")
    if pole_fiber != [(work.curve.infinity(), n, n - 1)]:
        raise VerificationError("pole fiber is not n-fold at the origin")

    third_fiber = profile[values[1]]
    ramified = [(pt, e, dq) for pt, e, dq in third_fiber if e > 1]
    if len(ramified) != 1 or ramified[0][0] != Q_w:
        raise VerificationError("third fiber is not ramified exactly at Q")
    if sum(e for _pt, e, _dq in third_fiber) != n:
        raise VerificationError("third fiber does not cover all sheets")
    e3, d3 = ramified[0][1], ramified[0][2]
    tame = d3 == e3 - 1
    total = sum(dq for fib in profile.values() for _pt, _e, dq in fib)
    if total != 2 * n:
        raise VerificationError("different degree %d is not 2n" % total)

    # order(Q) is n or 2n (2Q = P pins it); n*Q = 0 decides which
    signature = 1 if (n * Q).is_infinity() else 0
    return {
        "n": n,
        "model": "supersingular" if supersingular else "ordinary",
        "function": f,
        "point": P,
        "third_point": Q,
        "third_value": third,
        "index": e3,
        "different_exponent": d3,
        "tame": tame,
        "signature": signature,
        "field_degree": work.curve.ctx.degree,
        "profile": profile,
    }


def ordinary_torsion_point(t, n: int, seed: int = 0):
    """An exact-order-n point on Y^2+XY=X^3+tX over the least extension.

    t is a nonzero element of its base field; the extension degree comes
    from the Frobenius eigenvalue recurrence, the point from the cofactor
    method, and the result is returned with the base-changed curve.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    base_ctx = t.ctx
    base = WeierstrassCurve.ordinary(base_ctx, t)
    base_order = base.count_points()
    q = 1 << base_ctx.degree
    k = 1
    while extension_order(base_order, q, k) % n:
        k += 1
        if k > 4 * n * n:
            raise VerificationError("no extension carries order-n points")
    big = GF(base_ctx.degree * k)
    curve = base.base_change(big)
    N = extension_order(base_order, q, k)
    rng = random.Random(seed)
    P = point_of_exact_order(curve, N, n, rng)
    return curve, P, N
