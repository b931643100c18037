"""The hyperelliptic family Y^2 + Y = X^(2g+1) and its Jacobian.

The curve is Y^2 + h(X) Y = f(X) with h = 1, so membership, fibers and the
point count are the ones of ``weierstrass``.  It has a single point at
infinity and carries the involution sigma(x, y) = (x, y + 1), whose only
fixed point is infinity.  A point P together with sigma(P) marks the curve
the same way the torsion point marks an elliptic curve in the degree-n
covers; the order of the divisor class [(P) - (sigma P)] is the
group-theoretic invariant this module computes.

Divisor classes use the Mumford representation (u, v) with v^2 + v = f
mod u, added by Cantor's algorithm specialized to h = 1 in characteristic
2 (the composition gcd is taken with v1 + v2 + 1; no division by 2 occurs
anywhere).  Group orders come from the L-polynomial, built from exact point
counts via Newton's identities and completed by the functional equation;
supersingularity is decided by the 2-adic Newton polygon of L, and the
certificate (the valuation points and the polygon hull) is returned rather
than just the verdict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import order_from_multiple, power_sum
from .common import INFINITY, VerificationError
from .gf2 import GF, FieldContext, Poly
from .weierstrass import WeierstrassCurve, _count_points


class HyperellipticCurve:
    """Y^2 + h(X) Y = f(X) with h = 1 and f = X^(2g+1), built once, over a
    binary field; membership and fibers are the Weierstrass ones."""

    __slots__ = ("ctx", "genus", "h", "f")

    def __init__(self, ctx: FieldContext, genus: int):
        if genus < 1:
            raise ValueError("genus must be at least 1")
        self.ctx = ctx
        self.genus = genus
        self.h = Poly.one(ctx)
        self.f = Poly(ctx, [0] * (2 * genus + 1) + [1])

    contains, _satisfies = WeierstrassCurve.contains, WeierstrassCurve._satisfies
    fiber_y = WeierstrassCurve.fiber_y

    def points(self):
        """All points, infinity first, affine ones sorted by coordinates."""
        out = [INFINITY]
        for x in self.ctx.elements():
            for y in self.fiber_y(x):
                out.append((x, y))
        return out

    def count_points(self) -> int:
        return _count_points(self.ctx, self.h, self.f)

    def sigma(self, pt):
        """The hyperelliptic involution; fixes only infinity."""
        if pt is INFINITY:
            return INFINITY
        x, y = pt
        return (x, y + self.ctx.one)

    def lpoly(self) -> list:
        return _family_lpoly(self.genus)

    def jacobian_order(self) -> int:
        return jacobian_order(self.lpoly(), self.ctx.degree)

    def identity_divisor(self) -> "MumfordDivisor":
        return MumfordDivisor(self, Poly.one(self.ctx), Poly.zero(self.ctx))

    def point_divisor(self, pt) -> "MumfordDivisor":
        """The class [(P) - (infinity)] in Mumford form."""
        if pt is INFINITY:
            return self.identity_divisor()
        x, y = pt
        u = Poly(self.ctx, [x, 1])
        return MumfordDivisor(self, u, Poly(self.ctx, [y]))

    def __eq__(self, other):
        if not isinstance(other, HyperellipticCurve):
            return NotImplemented
        return self.ctx == other.ctx and self.genus == other.genus

    def __hash__(self):
        return hash((self.ctx, self.genus))

    def __repr__(self):
        return f"HyperellipticCurve(GF(2^{self.ctx.degree}), g={self.genus})"


class MumfordDivisor:
    """A semi-reduced divisor class (u, v): u monic, v^2 + v = f mod u."""

    __slots__ = ("curve", "u", "v")

    def __init__(self, curve: HyperellipticCurve, u: Poly, v: Poly):
        if u.is_zero() or u.leading() != curve.ctx.one:
            raise ValueError("u must be monic")
        if u.degree == 0:
            if not v.is_zero():
                raise ValueError("the identity class carries v = 0")
        elif not v.is_zero() and v.degree >= u.degree:
            raise ValueError("v must reduce mod u")
        if not ((v * v + v + curve.f) % u).is_zero():
            raise ValueError("v^2 + v = f fails mod u")
        self.curve = curve
        self.u = u
        self.v = v

    @property
    def is_identity(self) -> bool:
        return self.u.degree == 0

    @property
    def is_reduced(self) -> bool:
        return self.u.degree <= self.curve.genus

    def conjugate(self) -> "MumfordDivisor":
        """The inverse class, from the involution on the support."""
        if self.is_identity:
            return self
        v = (self.v + Poly.one(self.curve.ctx)) % self.u
        return MumfordDivisor(self.curve, self.u, v)

    def __eq__(self, other):
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        return (self.curve == other.curve and self.u == other.u
                and self.v == other.v)

    def __hash__(self):
        return hash((self.curve, self.u, self.v))

    def __repr__(self):
        return f"MumfordDivisor(u={self.u!r}, v={self.v!r})"

    def to_json(self) -> dict:
        return {"u": [format(c, "x") for c in self.u.coeffs],
                "v": [format(c, "x") for c in self.v.coeffs],
                "d": self.curve.ctx.degree,
                "genus": self.curve.genus}


def cantor_add(curve: HyperellipticCurve, D1: MumfordDivisor,
               D2: MumfordDivisor) -> MumfordDivisor:
    """Reduced sum of two reduced divisors; Cantor with h = 1, char 2."""
    for D in (D1, D2):
        if D.curve != curve:
            raise ValueError("divisor on a different curve")
        if not D.is_reduced:
            raise ValueError("divisor is not reduced")
    f = curve.f
    one = Poly.one(curve.ctx)
    u1, v1, u2, v2 = D1.u, D1.v, D2.u, D2.v
    d12, e1, e2 = u1.xgcd(u2)
    d, c1, c2 = d12.xgcd(v1 + v2 + one)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 // d) * (u2 // d)
    v = (s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)) // d % u
    while u.degree > curve.genus:
        u = ((f + v + v * v) // u).monic()
        v = (v + one) % u
    if u.degree == 0:
        return curve.identity_divisor()
    return MumfordDivisor(curve, u, v)


def cantor_mul(curve: HyperellipticCurve, D: MumfordDivisor,
               n: int) -> MumfordDivisor:
    """n-fold sum by double-and-add; negative n uses the conjugate."""
    if n < 0:
        return cantor_mul(curve, D.conjugate(), -n)
    acc = curve.identity_divisor()
    step = D
    while n:
        if n & 1:  # the first term, or one after a partial sum hit 0, is copied
            acc = step if acc.is_identity else cantor_add(curve, acc, step)
        n >>= 1
        if n:
            step = cantor_add(curve, step, step)
    return acc


def class_of_point_pair(curve: HyperellipticCurve, pt) -> MumfordDivisor:
    """The reduced class of (P) - (sigma P) for an affine point P."""
    if pt is INFINITY:
        raise ValueError("the point pair needs an affine point")
    x, y = pt
    if not curve.contains(x, y):
        raise ValueError("point is not on the curve")
    D = curve.point_divisor(pt)
    return cantor_add(curve, D, curve.point_divisor(curve.sigma(pt)).conjugate())


def divisor_class_order(curve: HyperellipticCurve,
                        D: MumfordDivisor) -> int:
    """Exact order, from the Jacobian order as a multiple."""
    return order_from_multiple(curve.jacobian_order(), D,
                               lambda k, E: cantor_mul(curve, E, k),
                               lambda E: E.is_identity)


# -- L-polynomials from exact counts ---------------------------------------------


def zeta_lpoly(genus: int, counts) -> list:
    """Integer L-polynomial coefficients [c_0, ..., c_2g] from point counts.

    counts[d-1] = #C(F_{2^d}) for d = 1..genus determines the first half by
    Newton's identities; the functional equation c_{2g-i} = 2^(g-i) c_i
    fills in the rest.  Counts beyond the genus, when supplied, are
    validated against the finished polynomial.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    counts = list(counts)
    if len(counts) < genus:
        raise ValueError(f"need point counts over F_2 .. F_{2 ** genus}")
    s = [0] + [(1 << d) + 1 - counts[d - 1] for d in range(1, genus + 1)]
    e = _elementary(s)
    c = [0] * (2 * genus + 1)
    for i in range(genus + 1):
        c[i] = (-1) ** i * e[i]
    for i in range(genus):
        c[2 * genus - i] = (1 << (genus - i)) * c[i]
    for d in range(genus + 1, len(counts) + 1):
        predicted = (1 << d) + 1 - power_sum(c, d)
        if predicted != counts[d - 1]:
            raise VerificationError(
                f"count over F_{2 ** d} contradicts the functional equation: "
                f"expected {predicted}, got {counts[d - 1]}")
    return c


def _elementary(s: list) -> list:
    """[e_0, ..., e_n] from power sums [_, s_1, ..., s_n] by Newton's identities.

    Every division must be exact; when one is not, no integer polynomial
    has these power sums and the inputs are inconsistent.
    """
    e = [1]
    for k in range(1, len(s)):
        q, r = divmod(sum((-1) ** (i - 1) * e[k - i] * s[i]
                          for i in range(1, k + 1)), k)
        if r:
            raise VerificationError(
                f"power sums are inconsistent: Newton identity fails at {k}")
        e.append(q)
    return e


@lru_cache(maxsize=None)
def _family_lpoly(genus: int) -> list:
    counts = [HyperellipticCurve(GF(d), genus).count_points()
              for d in range(1, genus + 1)]
    return zeta_lpoly(genus, counts)


def jacobian_order(L: list, d: int = 1) -> int:
    """#J(F_(2^d)) = prod_i (1 - alpha_i^d) over the inverse roots of L.

    The power sums s_d, s_2d, ..., s_(2g)d of the alpha_i are the power sums
    of the alpha_i^d; Newton's identities turn them into the elementary
    symmetric functions e_k of the alpha_i^d, and the product is
    sum_k (-1)^k e_k.  Integer arithmetic throughout, exact for any d.
    """
    deg = len(L) - 1
    if deg == 0 or d < 1:
        raise ValueError("need a nonconstant L-polynomial and d >= 1")
    e = _elementary([0] + [power_sum(L, k * d) for k in range(1, deg + 1)])
    return sum((-1) ** k * ek for k, ek in enumerate(e))


def _lower_hull(points: list) -> list:
    """Lower convex hull of (x, y) points, by the monotone chain."""
    hull = []
    for p in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) < (p[1] - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append(p)
    return hull


def is_supersingular(L: list) -> dict:
    """Newton-polygon verdict with certificate for an L-polynomial.

    Supersingular means the 2-adic polygon is one segment of slope 1/2:
    v2(c_i) >= i/2 at every nonzero coefficient, with equality forced at
    i = 2g.  The certificate carries the valuation points, the hull, and
    its slopes, so a failed verdict shows where the polygon breaks.
    """
    if not L or L[0] != 1 or len(L) % 2 == 0:
        raise ValueError("malformed L-polynomial")
    genus = (len(L) - 1) // 2
    for i in range(genus):
        if L[2 * genus - i] != (1 << (genus - i)) * L[i]:
            raise ValueError("functional equation fails")
    pts = [(i, _v2(ci)) for i, ci in enumerate(L) if ci]
    hull = _lower_hull(pts)
    slopes = [Fraction(y2 - y1, x2 - x1)
              for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    ss = all(2 * v >= i for i, v in pts) and _v2(L[2 * genus]) == genus
    return {"genus": genus, "lpoly": list(L), "supersingular": ss,
            "valuations": pts, "polygon": hull, "slopes": slopes}


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1
