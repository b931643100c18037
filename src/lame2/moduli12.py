"""Weighted projective coordinates for a curve with a marked point.

A pair (E, P) with P of order at least 3 has a unique model

    Y^2 + a XY + c Y = X^3 + b X^2

carrying P at (0, 0); the residual change of variables scales the triple by
(lam, lam^2, lam^3), so pairs correspond to points [a : b : c] of the
weighted projective plane with weights (1, 2, 3).  This module provides
those weighted points with exact equality testing, the discriminant and
j-invariant as polynomials in the weighted coordinates, the reduction of a
marked curve to this normal form, and the forgetful map to the j-line.

All arithmetic is exact and the formulas are written once, generically: the
same code paths evaluate over the rationals (arbitrary-precision Fraction
coordinates) and over binary fields, where the integer coefficients fold
mod 2.  Running both ways guards the transcription of the coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import factorint
from .common import INFINITY, VerificationError
from .gf2 import FieldElement
from .weierstrass import CurvePoint, WeierstrassCurve


def _as_coord(v, like=None):
    if isinstance(v, FieldElement):
        return v
    if isinstance(like, FieldElement):
        return like.ctx(v)
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"unsupported coordinate {v!r}")


class WeightedPoint:
    """A nonzero triple [a : b : c] with scaling weights (1, 2, 3)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        sample = next((v for v in (a, b, c) if isinstance(v, FieldElement)),
                      None)
        self.a = _as_coord(a, sample)
        self.b = _as_coord(b, sample)
        self.c = _as_coord(c, sample)
        if isinstance(self.a, FieldElement):
            if not (self.a.ctx == self.b.ctx == self.c.ctx):
                raise ValueError("coordinates live in different fields")
        if not (self.a or self.b or self.c):
            raise ValueError("all coordinates vanish")

    @property
    def is_binary(self) -> bool:
        return isinstance(self.a, FieldElement)

    def coords(self):
        return (self.a, self.b, self.c)

    def scale(self, lam) -> "WeightedPoint":
        lam = _as_coord(lam, self.a)
        if not lam:
            raise ValueError("scaling factor must be invertible")
        return WeightedPoint(lam * self.a, lam * lam * self.b,
                             lam ** 3 * self.c)

    def canonical(self) -> "WeightedPoint":
        """The distinguished orbit representative.

        The first nonzero coordinate is scaled to 1 whenever the field
        provides the needed root; over the rationals the weight-2 and
        weight-3 cases fall back to the squarefree (resp. cubefree,
        positive) integer representative, with the residual sign freedom
        spent making the later coordinate nonnegative.
        """
        if self.a:
            return self.scale(1 / self.a)
        if self.is_binary:
            if self.b:
                return self.scale((1 / self.b).sqrt())
            return WeightedPoint(self.a, self.b, _cube_coset_min(self.c))
        if self.b:
            s = _squarefree_part(self.b)
            lam = _fraction_sqrt(s / self.b)
            out = self.scale(lam)
            if out.c < 0:
                out = out.scale(-1)
            return out
        return WeightedPoint(self.a, self.b, _cubefree_part(self.c))

    def __eq__(self, other):
        if not isinstance(other, WeightedPoint):
            return NotImplemented
        return self.coords() == other.coords()

    def __hash__(self):
        return hash(self.coords())

    def __repr__(self):
        return f"WeightedPoint({self.a!r}, {self.b!r}, {self.c!r})"

    def to_json(self) -> dict:
        can = self.canonical()

        def enc(v):
            if isinstance(v, FieldElement):
                return v.to_json()
            return f"{v.numerator}/{v.denominator}"

        field = {"d": can.a.ctx.degree} if can.is_binary else "Q"
        return {"field": field, "a": enc(can.a), "b": enc(can.b),
                "c": enc(can.c)}


# -- canonical-form helpers ----------------------------------------------------


def _squarefree_part(fr: Fraction) -> Fraction:
    n = fr.numerator * fr.denominator
    s = -1 if n < 0 else 1
    for p, e in factorint(abs(n)).items():
        if e % 2:
            s *= p
    return Fraction(s)


def _cubefree_part(fr: Fraction) -> Fraction:
    # the sign is always absorbable into the cube scaling
    n = abs(fr.numerator * fr.denominator * fr.denominator)
    t = 1
    for p, e in factorint(n).items():
        t *= p ** (e % 3)
    return Fraction(t)


def _fraction_sqrt(fr: Fraction) -> Fraction:
    rn, rd = isqrt(fr.numerator), isqrt(fr.denominator)
    if rn * rn != fr.numerator or rd * rd != fr.denominator:
        raise VerificationError("expected a rational square")
    return Fraction(rn, rd)


def _cube_character(v: FieldElement) -> FieldElement:
    q1 = (1 << v.ctx.degree) - 1
    return v ** (q1 // 3)


def _cube_coset_min(c: FieldElement) -> FieldElement:
    """Least bit pattern in the orbit of c under cube scalings."""
    ctx = c.ctx
    if ((1 << ctx.degree) - 1) % 3:
        return ctx.one
    want = _cube_character(c)
    bits = 1
    while True:
        z = FieldElement(ctx, bits)
        if _cube_character(z) == want:
            return z
        bits += 1


# -- orbit equality -------------------------------------------------------------


def wp_equal(p: WeightedPoint, q: WeightedPoint) -> bool:
    """Whether the triples agree after some weighted scaling: canonical()
    picks one representative of each scaling orbit."""
    if p.is_binary != q.is_binary:
        raise ValueError("points over different kinds of field")
    if p.is_binary and p.a.ctx != q.a.ctx:
        raise ValueError("points over different fields")
    return p.canonical() == q.canonical()


# -- the displayed coordinate formulas ------------------------------------------


def discriminant_formula(p: WeightedPoint):
    """Discriminant of Y^2 + aXY + cY = X^3 + bX^2 in weighted coordinates.

    Vanishes exactly on the excluded divisor (where the marked point
    degenerates); agrees with the b2/b4/b6/b8 formulary value exactly.
    """
    a, b, c = p.coords()
    inner = (b * a ** 4 + 8 * a ** 2 * b ** 2 + 16 * b ** 3
             - a ** 3 * c + 27 * c * c - 36 * a * b * c)
    return -(c * c * inner)


def j_formula(p: WeightedPoint):
    """j-invariant in weighted coordinates; INFINITY on the divisor.

    Over a binary field the integer coefficients fold mod 2 and the
    expression collapses to a^12 / (c^2 (b a^4 + a^3 c + c^2)).
    """
    a, b, c = p.coords()
    disc = discriminant_formula(p)
    if not disc:
        return INFINITY
    num = 16 * b ** 2 + 8 * b * a ** 2 + a ** 4 - 24 * a * c
    return num ** 3 / disc


def forgetful(p: WeightedPoint):
    """Forget the marked point: [a : b : c] goes to its j-invariant."""
    return j_formula(p)


# -- reduction of a marked curve to the normal form ------------------------------


def tate_normal_form(curve: WeierstrassCurve, P: CurvePoint) -> WeightedPoint:
    """Weighted coordinates of the pair (curve, P); needs P of order > 2.

    Translating P to (0, 0) forces a6 = 0; the marked point is then not
    2-torsion exactly when the new a3 is invertible, and the shear by
    a4/a3 removes a4 while fixing everything the translation achieved.
    """
    if P.is_infinity():
        raise ValueError("the marked point must differ from the origin")
    if (P + P).is_infinity():
        raise ValueError("the marked point must not be 2-torsion")
    moved, fwd = curve.transform(curve.ctx.one, P.x, curve.ctx.zero, P.y)
    if fwd(P) != moved.point(0, 0):
        raise VerificationError("translation failed to center the point")
    if not moved.a3:
        raise VerificationError("2-torsion escaped the order check")
    final, fwd2 = moved.transform(
        moved.ctx.one, moved.ctx.zero, moved.a4 / moved.a3, moved.ctx.zero)
    if final.a4 or final.a6:
        raise VerificationError("shear left a4 or a6 nonzero")
    if fwd2(moved.point(0, 0)) != final.point(0, 0):
        raise VerificationError("shear moved the marked point")
    return WeightedPoint(final.a1, final.a2, final.a3)

