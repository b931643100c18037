"""Weighted projective coordinates for a curve with a marked point.

A pair (E, P) with P of order at least 3 has a unique model

    Y^2 + a XY + c Y = X^3 + b X^2

carrying P at (0, 0); the residual change of variables scales the triple by
(lam, lam^2, lam^3), so pairs correspond to points [a : b : c] of the
weighted projective plane with weights (1, 2, 3).  This module provides
those weighted points with exact equality testing, the discriminant and
j-invariant as polynomials in the weighted coordinates, the reduction of a
marked curve to this normal form (one closed-form substitution, checked by
the group law's 2P), and the forgetful map to the j-line.

All arithmetic is exact and the formulas are written once, generically: the
same code paths evaluate over binary fields, where the integer coefficients
fold mod 2, and over the rationals, on int or Fraction coordinates as given:
a point with integer coordinates is evaluated on ints, with j one exact
Fraction.  Running both ways guards the transcription of the coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import power_free
from .common import INFINITY, VerificationError
from .gf2 import FieldElement
from .weierstrass import CurvePoint, WeierstrassCurve


def _as_coord(v, like=None):
    """v read into the field of `like` by the constructor rule, which refuses
    an element of another field; v as given when `like` is rational."""
    if isinstance(like, FieldElement):
        return like.ctx(v)
    if isinstance(v, (FieldElement, int, Fraction)):
        return v
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

        Over GF(2^d) the first nonzero coordinate is scaled to 1 when the
        field has the root, else c is the least of its cube coset.  Over Q,
        with v = num/den the first nonzero coordinate, of weight w, and
        |num| den^(w-1) = s r^w, s w-th-power-free (arith.power_free), den/r
        scales v to +-s, and -1 then makes a, else c, positive.
        """
        if self.is_binary:
            if self.a:
                return self.scale(self.a.inverse())
            if self.b:
                return self.scale((1 / self.b).sqrt())
            return WeightedPoint(self.a, self.b, _cube_coset_min(self.c))
        w, v = next((w, Fraction(v)) for w, v in enumerate(self.coords(), 1)
                    if v)
        r = power_free(abs(v.numerator) * v.denominator ** (w - 1), w)[1]
        out = self.scale(Fraction(v.denominator, r))
        return out.scale(-1) if (out.a or out.c) < 0 else out

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
    return Fraction(num ** 3, disc) if isinstance(disc, int) else num ** 3 / disc


def forgetful(p: WeightedPoint):
    """Forget the marked point: [a : b : c] goes to its j-invariant."""
    return j_formula(p)


# -- reduction of a marked curve to the normal form ------------------------------


def tate_normal_form(curve: WeierstrassCurve, P: CurvePoint) -> WeightedPoint:
    """Weighted coordinates of the pair (curve, P); needs P of order > 2.

    The substitution x = X + x0, y = Y + y0 + sX carries P = (x0, y0) to
    (0, 0) on Y^2 + a1 XY + cY = X^3 + bX^2 (``_normal_form``).  On that
    model 2(0, 0) = (b, a1 b + c), so the group law's 2P, mapped back by
    the same substitution, checks b and c.
    """
    if P.is_infinity():
        raise ValueError("the marked point must differ from the origin")
    if P.curve != curve:
        raise ValueError("the marked point lies on a different curve")
    s, b, c = _normal_form(curve, P.x, P.y)
    a1, D = curve.a1, P + P
    if D.x + P.x != b or D.y + P.y + s * b != a1 * b + c:
        raise VerificationError("2P disagrees with the normal form")
    return WeightedPoint(a1, b, c)


def _normal_form(curve: WeierstrassCurve, x0, y0):
    """(s, b, c) at the point (x0, y0) (Silverman, AEC, Table 3.1, mod 2):
    c = h(x0), zero exactly at 2-torsion; s, the tangent slope, shears a4."""
    a1, a2, a3, a4, _ = curve.coefficients()
    c = a3 + a1 * x0
    if not c:
        raise ValueError("the marked point must not be 2-torsion")
    s = (a4 + a1 * y0 + x0 * x0) / c
    return s, a2 + x0 + s * a1 + s * s, c
