"""Torsion covers of the supersingular curve and their classification.

The supersingular model Y^2 + Y = X^3 has automorphism group of order 24
(fixing the origin), realized here as its keys, the triples (u, a, c) of
bits with u^3 = 1, a in F_4 and c^2 + c = a^3, acting by

    (x, y) |-> (u^2 x + a, y + u^2 a^2 x + c).

The parametrization is rederived rather than quoted, so the module verifies
it at runtime before use, on raw ints: once per process over F_4, where all
keys live, which proves it for every field containing F_4, and then in each
field for the embedding of F_4 and one drawn point (see ``aut_group``); the
group law is proved on the generators' products (``_verify_aut_group``).

The degree-12 map (x, y) |-> (x^4 + x)^3 is invariant under all 24
automorphisms and identifies the quotient of the affine curve by the group
with the affine line.  Odd-torsion classes are orbits of two generators
acting on E[n] = (Z/n)^2 as integer matrices, with one point built per
orbit; the classification, the counting formulas, the field-of-moduli
census, and the Galois equivariance of the quotient all live here, with
the canonical branch-certified cover attached to a torsion point on
either curve family.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, lcm

from .arith import divisors, factorint, mobius
from .common import (FiberEscapeError, INFINITY, TorsionSearchExhausted,
                     VerificationError)
from .gf2 import GF, FieldContext, FieldElement, element_degree, embed
from .gf2 import Poly, _distinct_degree, _orbits, solve_artin_schreier
from .weierstrass import (
    CurvePoint,
    WeierstrassCurve,
    _add_pairs,
    _is_supersingular_model,
    _spans_torsion,
    _supersingular_exponent,
    extension_order,
    point_of_exact_order,
    point_order,
    torsion_field_degree,
)
from .funcfield import _fiber_poly, _local_datum, miller_function

# desk-scale caps: the largest torsion order classified and the largest
# degree d of the field-of-moduli census over F_(2^d); then, named apart from
# the cap, the largest order whose class counts are checked by classifying
_MAX_ORDER = 13
_MAX_CENSUS_DEGREE = 8
_CLASSIFIED_UP_TO = 13


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


# keys over F_4 = GF(2), w = 2, of order 3 and 4; _verify_aut_group walks
# their products to prove that they generate the group, SL_2(F_3)
_GENERATORS = ((2, 0, 0), (1, 1, 2))


@lru_cache(maxsize=None)
def _f4_keys() -> tuple:
    """The 24 keys over F_4 = GF(2), certified once (``_verify_aut_group``)."""
    mul, sqr = GF(2).mul, GF(2).sqr
    # u^3 = 1 and c^2 + c = a^3 are F_4 equations, so u, a and c lie in F_4
    keys = tuple((u, a, c) for u in range(1, 4) for a in range(4)
                 for c in range(4) if sqr(c) ^ c == mul(sqr(a), a))
    _verify_aut_group(keys)
    return keys


_AUT_CACHE = {}


def _f4_image(ctx: FieldContext) -> tuple:
    """iota = (0, 1, w, w + 1), F_4's bits 0 to 3 in ctx; w^2 + w = 1 checked."""
    w = embed(GF(2)(2), ctx).bits
    if ctx.sqr(w) ^ w != 1:
        raise VerificationError("embedded w is not a root of x^2 + x + 1")
    return (0, 1, w, w ^ 1)


def aut_group(field) -> list:
    """The 24 automorphisms of (Y^2+Y=X^3, 0) over an even-degree field, as
    their sorted (u, a, c) keys of bits; ``_act`` applies a key to a point.

    The keys have their coordinates in F_4, so they are certified once per
    process over F_4 (``_verify_aut_group``) and carried into each field by
    the embedding iota of F_4 that sends w to the embedded generator.  iota
    is additive, and a ring map once w^2 + w = 1 is checked, so the law and
    the curve preservation proved over F_4 hold in the field too.  Each field
    also moves one drawn point by all 24 keys, validating the images, and
    checks that (1, 0, 1) negates it.
    """
    ctx = GF(field)
    if ctx.degree % 2:
        raise ValueError("the automorphism group needs F_4, an even degree")
    keys = _AUT_CACHE.get(ctx)
    if keys is None:
        iota = _f4_image(ctx)
        keys = tuple(sorted(tuple(iota[v] for v in key) for key in _f4_keys()))
        P = WeierstrassCurve.supersingular(ctx).random_point(
            random.Random(0xA07))
        images = [_act(ctx, key, *P.xy) for key in keys]  # each validated
        if images[keys.index((1, 0, 1))] != (-P).xy:
            raise VerificationError("(1,0,1) does not act as negation")
        _AUT_CACHE[ctx] = keys
    return list(keys)


def _verify_aut_group(keys):
    """Certify 24 keys over F_4 as the automorphism group of (E, 0).

    Each key acts by an affine map with F_4 coefficients, and E(F_4) has
    eight affine points, two above each x in F_4, closed under the keys.  So
    each key's permutation of them is computed once, every image validated
    on the curve.  That proves curve preservation: in characteristic 2 the
    on-curve defect of a key's image has no y term, so it is a cubic in x,
    and it vanishes at all four x in F_4.  A breadth-first walk of the left
    products g o k, g in _GENERATORS, from the identity must stay in the
    set, each product permuting the points as perm[g] o perm[k]: two affine
    maps agreeing at the three non-collinear points (0, 0), (0, 1), (1, w)
    are equal, so each is the true composite.  The walk reaches the words in
    the generators, a group, so reaching all 24 keys proves the list closed.
    Identity, negation, additivity on one pair and a non-commuting pair are
    checked too.
    """
    if len(keys) != 24:
        raise VerificationError("expected 24 automorphisms, found %d"
                                % len(keys))
    if len(set(keys)) != 24:
        raise VerificationError("automorphism list has duplicates")
    if (1, 0, 0) not in keys:
        raise VerificationError("identity element missing")
    if (1, 0, 1) not in keys:
        raise VerificationError("negation element missing")

    ctx = GF(2)
    curve = WeierstrassCurve.supersingular(ctx)
    mul, sqr = ctx.mul, ctx.sqr
    points = [(x, y) for x in range(4) for y in range(4)
              if sqr(y) ^ y == mul(sqr(x), x)]
    at = {p: i for i, p in enumerate(points)}
    # perm[key][i]: the index of points[i] moved by key
    perm = {key: tuple(at[_act(ctx, key, *p)] for p in points) for key in keys}

    if perm[(1, 0, 1)] != tuple(at[(-CurvePoint(curve, p)).xy] for p in points):
        raise VerificationError("(1,0,1) does not act as negation")
    s = at[_add_pairs(curve, points[0], points[2])]
    for row in perm.values():
        if points[row[s]] != _add_pairs(curve, points[row[0]],
                                        points[row[2]]):
            raise VerificationError("automorphism is not additive")

    reached = [(1, 0, 0)]
    for k in reached:  # the list grows as the walk goes
        for g in _GENERATORS:
            gamma = _compose(ctx, g, k)
            if gamma not in perm:
                raise VerificationError("composition left the set")
            if perm[gamma] != tuple(map(perm[g].__getitem__, perm[k])):
                raise VerificationError("composition law disagrees with action")
            if gamma not in reached:
                reached.append(gamma)
    if len(reached) != 24:  # keys of orders 3 and 4 generate SL_2(F_3)
        raise VerificationError(f"_GENERATORS reach {len(reached)} of the 24 "
                                "keys, so they are not of orders 3 and 4")
    g3, g4 = _GENERATORS
    if _compose(ctx, g3, g4) == _compose(ctx, g4, g3):
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

    The ground field is the full n-torsion field.  Classes are the integer
    orbits of exact-order vectors (a, b) ~ aP + bQ, each certified: one
    point's 24 images number the orbit and share a quotient value that no
    other orbit has, so points share a quotient value exactly when they
    share an automorphism orbit.
    """
    return list(_classify_torsion(n))


@lru_cache(maxsize=None)
def _classify_torsion(n: int) -> tuple:
    if n < 3 or n % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    if n > _MAX_ORDER:
        raise ValueError(
            f"desk-scale classification stops at order {_MAX_ORDER}")
    d = torsion_field_degree(n)
    curve, ctx = WeierstrassCurve.supersingular(d), GF(d)
    iota = _f4_image(ctx)
    g3, g4 = (tuple(iota[v] for v in key) for key in _GENERATORS)
    # (P, g3 P) is a basis unless P spans an eigenline of g3 mod some p | n
    rng = random.Random(0)
    for _ in range(64):
        P = point_of_exact_order(curve, _supersingular_exponent(d), n, rng)
        Q = CurvePoint(curve, _act(ctx, g3, *P.xy))
        if _spans_torsion(P, Q, n):
            break
    else:
        raise TorsionSearchExhausted(f"no basis (P, g3 P) of the {n}-torsion"
                                     " found in 64 trials")
    p, q = P.xy, Q.xy
    rows = [[None, p], [None, q]]  # rows[0][a] = a P, rows[1][b] = b Q
    for row in rows:
        for _ in range(n - 2):
            row.append(_add_pairs(curve, row[-1], row[1]))
    at, minus_q = {pt: a for a, pt in enumerate(rows[0])}, (q[0], q[1] ^ 1)

    def coords(T):  # (a, b) with T = a P + b Q: baby steps in P, giant in Q
        for b in range(n):
            if T in at:
                return at[T], b
            T = _add_pairs(curve, T, minus_q)
        raise VerificationError("point outside the span of the basis")

    # g3^2 + g3 + 1 = 0 on the basis: g3 Q = -(P + Q), -(x, y) = (x, y + 1)
    x, y = _add_pairs(curve, p, q)
    if _act(ctx, g3, *q) != (x, y ^ 1):
        raise VerificationError("(w,0,0) does not map Q to -(P + Q)")
    (i00, i10), (i01, i11) = (coords(_act(ctx, g4, *r)) for r in (p, q))
    # the orbits of the vectors (a, b) ~ a P + b Q under g3 and g4
    seen, orbits = set(), []
    for v in ((a, b) for a in range(n) for b in range(n)):
        if v not in seen and gcd(gcd(*v), n) == 1:
            seen.add(v)
            orbits.append(orbit := [v])
            for s, t in orbit:
                for u in ((-t % n, (s - t) % n),
                          ((s * i00 + t * i01) % n, (s * i10 + t * i11) % n)):
                    if u not in seen:
                        seen.add(u)
                        orbit.append(u)
    if len(seen) != psi(n):
        raise VerificationError("exact-order locus has size %d, expected %d"
                                % (len(seen), psi(n)))

    classes = {}
    for orbit in orbits:
        (a, b), size = orbit[0], len(orbit)
        images = _orbit_pairs(ctx, *_add_pairs(curve, rows[0][a], rows[1][b]))
        values = {_rho_bits(ctx, x) for x, _y in images}
        if len(images) != size or len(values) != 1 or values & set(classes):
            raise VerificationError("the orbit of %dP + %dQ is not a quotient"
                                    " fiber of size %d" % (a, b, size))
        # the least image by the bytes of its JSON: on one curve the records
        # differ only in the x and y hex strings, each closed by a quote
        rep = min(images, key=lambda pt: (format(pt[0], "x") + '"',
                                          format(pt[1], "x") + '"'))
        value = FieldElement(ctx, values.pop())
        classes[value.bits] = LameClass(n, value, element_degree(value),
                                        CurvePoint(curve, rep))
    return tuple(classes[bits] for bits in sorted(classes))


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
    cross-checked by brute classification for n <= _CLASSIFIED_UP_TO.
    """
    if n <= 1 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    if n % 3:
        expected = (n * n - 1) // 24
    else:
        m = n // 3
        expected = (3 * m * m + 5) // 8
    if n <= _CLASSIFIED_UP_TO:
        brute = sum(len(classify_torsion(m)) for m in divisors(n) if m > 1)
        if brute != expected:
            raise VerificationError(
                "count formula %d disagrees with classification %d"
                % (expected, brute))
    return expected


# ---------------------------------------------------------------------------
# field-of-moduli census


def _cube_roots(c: FieldElement) -> set:
    """The cube roots of c in its field, by one Adleman-Manders-Miller step:
    with 2^m - 1 = 3^s r, 3 not dividing r, t = c^(1/3 mod r) leaves t^3 / c
    in the 3-Sylow subgroup S, and the roots are the t y, y in S, cubing to c."""
    ctx, q1 = c.ctx, (1 << c.ctx.degree) - 1
    r = q1 // gcd(q1, 3 ** ctx.degree)  # 3^s divides 3^m, as 3^s < 2^m
    t, S = c ** (pow(3, -1, r) or 1), [ctx.one]  # any exponent serves at r = 1
    if q1 > r:  # S is generated by the r-th power of a non-cube
        g = next(g for z in range(2, q1 + 1) if (
            g := FieldElement(ctx, z) ** r) ** (q1 // r // 3) != ctx.one)
        S = [g ** k for k in range(q1 // r)]
    return {t * y for y in S if (t * y) ** 3 == c}


def _roots_in_some_extension(c: FieldElement):
    """Roots of (x^4+x)^3 = c in the least extension tower step that has any,
    sorted by bits: GF(2^(de)) has a root exactly when a factor's degree over
    GF(2^d) divides e, so e is the first degree _distinct_degree yields.  For
    a cube root t of c, the linearized x^4 + x = t (Lidl-Niederreiter, 3.4)
    is two Artin-Schreier steps: x^4 + x = (x^2 + x)^2 + (x^2 + x)."""
    cube = [0, 0, 1] * 4  # (x^4 + x)^3 = x^12 + x^9 + x^6 + x^3
    e, _g = next(_distinct_degree(Poly(c.ctx, [c.bits] + cube)))
    big = GF(c.ctx.degree * e)
    roots = [x for t in _cube_roots(embed(c, big))
             for s in solve_artin_schreier(t) for x in solve_artin_schreier(s)]
    return sorted(roots, key=lambda x: x.bits)


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
        P = _lift_to_curve(_roots_in_some_extension(c)[0])
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


def _third_point_record(n: int, Q: CurvePoint, supersingular: bool,
                        e: int, d: int) -> dict:
    """The third point's keys, as third_point_datum and cover_profile report
    them; order(Q) is n or 2n (2Q = P pins it), and n*Q = 0 decides which."""
    return {
        "n": n,
        "model": "supersingular" if supersingular else "ordinary",
        "index": e,
        "different_exponent": d,
        "tame": e > 1 and d == e - 1,
        "signature": 1 if (n * Q).is_infinity() else 0,
    }


def third_point_datum(P: CurvePoint, n: int) -> dict:
    """Index and different exponent at the third point only.

    Skips the fiber enumeration of cover_profile, so it stays in the base
    field and is cheap enough to sweep every exact-order point; one series
    of f - f(Q) through t^n gives both e and d, and an odd e with
    d != e - 1 raises (_local_datum).
    """
    f, Q, supersingular = _normalized_cover(P, n)
    return _third_point_record(n, Q, supersingular,
                               *_local_datum(f, f.evaluate(Q), Q))


def _third_fiber(f, c, work, norm, factored):
    """The fiber f = c as [(point, e, d)] on work's curve, f over GF(2^(dm)),
    sorted, from the pairs (i, g_i) of _distinct_degree(norm) over P's
    field F = GF(2^d), each listed by _orbits: linear roots in F, and for
    i > 1 one root r per place in GF(2^(dm)), r^(q^j), q = 2^d, completing
    its orbit, with y^(q^j) (cover_profile).  Points over a multiple root
    are listed where they lie, in F if they can be, with their (e, d)."""
    E, F, listed = work.curve, f.curve.ctx, []
    big, repeated = E.ctx, norm.gcd(norm.deriv())

    def lift(x, y):
        return E.point(embed(x, big), embed(y, big))

    for i, g in factored:
        func = f if i == 1 else work
        G, v = repeated.map_context(func.curve.ctx), embed(c, func.curve.ctx)
        for r, *conjugates in _orbits(g, i, func.curve.ctx):
            if G(r):  # a simple root: one point
                y = (func.A(r) + v * func.D(r)) / func.B(r)
                listed += [(lift(x, y.frobenius(F.degree * j)), 1, 0)
                           for j, x in enumerate((r, *conjugates))]
                continue
            for x in (r, *conjugates):  # in F if its points are
                h = f if x.ctx is F and f.curve.fiber_y(x) else work
                C, x, w = h.curve, embed(x, h.curve.ctx), embed(c, h.curve.ctx)
                for y in C.fiber_y(x):
                    if h.evaluate(T := C.point(x, y)) == w:
                        listed.append((lift(T.x, T.y), *_local_datum(h, w, T)))
    return sorted(listed, key=lambda entry: entry[0].xy)


def cover_profile(P: CurvePoint, n: int) -> dict:
    """Degree-n cover attached to an n-torsion point, with its branch data.

    The function with divisor n(P) - n(0) is normalized by the family's
    convention: value 1 at the midpoint Q = ((n+1)/2)P on the supersingular
    model, value 1 at the 2-torsion point R on the ordinary model.  Its
    degree n, its valuation n at P (from the series at P) and its valuation
    -n at 0 (from the degrees of A, B and D, with no series), checked in
    P's own field, leave no other zero or pole over any extension.  As n is
    odd, both points are tame in characteristic 2, so d = n - 1 at each.

    Only the third fiber, f = c = f(Q), is listed, by its places over P's
    field F = GF(2^d) (_third_fiber), over GF(2^(dk)), k the lcm of the
    factor degrees of its norm N over F: a simple root r of N carries one
    point, (r, (A + cD)(r)/B(r)), with e = 1, d = 0.  For g = A + cD + BY =
    (f - c)D, N(X) = g g', g' the conjugate, so g's orders at the points
    over r sum to 1 (2 if v(X - r) = 2); B(r) = 0 would force (A + cD)(r)
    = 0 and (X - r)^2 | N, and f has no affine pole, so D(r) = 0 would make
    g vanish at both points over r, or twice at one.  Only conjugate points
    over a multiple root may need GF(2^(2dk)).  Q is classified.
    """
    f, Q, supersingular = _normalized_cover(P, n)
    if (f.degree() != n or f._origin_valuation() != -n
            or _local_datum(f, 0, P) != (n, n - 1)):
        raise VerificationError("zero and pole fibers are not n-fold")

    third = f.evaluate(Q)  # neither 0 nor INFINITY: Q is neither P nor 0
    factored = list(_distinct_degree(norm := _fiber_poly(f, third)))
    k = lcm(1, *(i for i, _g in factored))
    for m in (k, 2 * k):
        work = f.base_change(GF(P.curve.ctx.degree * m))
        third_fiber = _third_fiber(f, third, work, norm, factored)
        if (total := sum(e for _T, e, _d in third_fiber)) == n:
            break
    else:
        raise FiberEscapeError(f"fiber over {third!r} accounts for {total}"
                               f" of {n} sheets", leftover=n - total)

    E, big = work.curve, work.curve.ctx  # P and Q lifted onto it
    P_w, Q_w = (E.point(embed(T.x, big), embed(T.y, big)) for T in (P, Q))
    ramified = [entry for entry in third_fiber if entry[1] > 1]
    if len(ramified) != 1 or ramified[0][0] != Q_w:
        raise VerificationError("third fiber is not ramified exactly at Q")
    _Q, e3, d3 = ramified[0]
    profile = {big.zero: [(P_w, n, n - 1)], embed(third, big): third_fiber,
               INFINITY: [(E.infinity(), n, n - 1)]}
    total = sum(d for fib in profile.values() for _pt, _e, d in fib)
    if total != 2 * n:
        raise VerificationError("different degree %d is not 2n" % total)
    return {**_third_point_record(n, Q, supersingular, e3, d3),
            "function": f,
            "point": P,
            "third_point": Q,
            "third_value": third,
            "field_degree": big.degree,
            "profile": profile}


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
    while (N := extension_order(base_order, q, k)) % n:
        k += 1
        if k > 4 * n * n:
            raise VerificationError("no extension carries order-n points")
    big = GF(base_ctx.degree * k)
    curve = base.base_change(big)
    rng = random.Random(seed)
    P = point_of_exact_order(curve, N, n, rng)
    return curve, P, N
