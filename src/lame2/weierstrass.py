"""Elliptic curves in long Weierstrass form over binary fields.

A curve is Y^2 + a1*X*Y + a3*Y = X^3 + a2*X^2 + a4*X + a6 with coefficients
in one :class:`~lame2.gf2.FieldContext`.  The quantities b2, b4, b6, b8, c4
and the discriminant follow the classical integer formulas; because field
elements absorb integer scalars mod 2, the same expressions serve both this
module and characteristic-zero callers that pass :class:`fractions.Fraction`
coefficients.

Two families recur throughout the package:

* the supersingular curve ``Y^2 + Y = X^3`` (j = 0, Frobenius trace 0 over
  F_2), and
* the ordinary curves ``Y^2 + X*Y = X^3 + t*X`` with t != 0 (j = 1/t^2,
  unique two-torsion point (0, 0)).

A point is its (x, y) pair of bits; ``.x`` and ``.y`` are FieldElement
views.  ``_slope`` gives the chord or tangent slope on ints to the group law
``_add_pairs`` and to the lines of Miller's algorithm in ``funcfield``.

The group of ``Y^2 + Y = X^3`` over every F_(2^d) is read from pi^2 = -2 for
its F_2-Frobenius pi: the exponent, the n-torsion field, point orders.
Scalar multiplication, point counting, a torsion-basis search with a
per-prime independence certificate, and the (u, r, s, t) change of
variables also live here.
"""

from __future__ import annotations

import random

from .arith import factorint, order_from_multiple
from .common import INFINITY, Infinity, TorsionSearchExhausted, VerificationError
from .gf2 import GF, FieldContext, FieldElement, embed, solve_artin_schreier


def curve_invariants(a1, a2, a3, a4, a6):
    """b- and c-quantities plus discriminant for any coefficient ring.

    Returns a dict with keys b2, b4, b6, b8, c4, c6, disc.  Written with
    integer scalars so it is exact over Fraction and reduces correctly over
    binary fields.  Raises VerificationError if the classical consistency
    identities fail, which would indicate broken scalar arithmetic.
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2 * b8) - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) \
        + 9 * b2 * b4 * b6
    if 4 * b8 != b2 * b6 - b4 * b4:
        raise VerificationError("b-invariant identity failed")
    if 1728 * disc != c4 * c4 * c4 - c6 * c6:
        raise VerificationError("1728*disc identity failed")
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8,
            "c4": c4, "c6": c6, "disc": disc}


def transformed_coefficients(coeffs, u, r, s, t):
    """Weierstrass coefficients after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Standard change-of-variables table; valid over any field whose elements
    absorb integer scalars.  u must be invertible.
    """
    a1, a2, a3, a4, a6 = coeffs
    u2 = u * u
    u3 = u2 * u
    new_a1 = (a1 + 2 * s) / u
    new_a2 = (a2 - s * a1 + 3 * r - s * s) / u2
    new_a3 = (a3 + r * a1 + 2 * t) / u3
    new_a4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1
              + 3 * r * r - 2 * s * t) / (u2 * u2)
    new_a6 = (a6 + r * a4 + r * r * a2 + r * r * r
              - t * a3 - t * t - r * t * a1) / (u3 * u3)
    return (new_a1, new_a2, new_a3, new_a4, new_a6)


class WeierstrassCurve:
    """A smooth long-Weierstrass curve over a binary field."""

    __slots__ = ("ctx", "a1", "a2", "a3", "a4", "a6")

    def __init__(self, ctx: FieldContext, a1, a2, a3, a4, a6):
        self.ctx = ctx
        self.a1 = ctx(a1)
        self.a2 = ctx(a2)
        self.a3 = ctx(a3)
        self.a4 = ctx(a4)
        self.a6 = ctx(a6)
        if self.discriminant() == ctx.zero:
            raise ValueError("singular curve")

    @classmethod
    def supersingular(cls, field) -> "WeierstrassCurve":
        """Y^2 + Y = X^3 over GF(2^d); `field` is a context or a degree."""
        ctx = field if isinstance(field, FieldContext) else GF(field)
        return cls(ctx, 0, 0, 1, 0, 0)

    @classmethod
    def ordinary(cls, field, t) -> "WeierstrassCurve":
        """Y^2 + X*Y = X^3 + t*X over GF(2^d), t != 0."""
        ctx = field if isinstance(field, FieldContext) else GF(field)
        t = ctx(t)
        if t == ctx.zero:
            raise ValueError("t = 0 gives a singular curve")
        return cls(ctx, 1, 0, 0, t, 0)

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def invariants(self) -> dict:
        return curve_invariants(*self.coefficients())

    def discriminant(self) -> FieldElement:
        return curve_invariants(*self.coefficients())["disc"]

    def j_invariant(self) -> FieldElement:
        inv = self.invariants()
        c4 = inv["c4"]
        return c4 * c4 * c4 / inv["disc"]

    def is_supersingular(self) -> bool:
        # in characteristic 2 a smooth curve is supersingular iff a1 = 0
        return self.a1 == self.ctx.zero

    def rhs(self, x: FieldElement) -> FieldElement:
        """X^3 + a2 X^2 + a4 X + a6 at x."""
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def hpoly(self, x: FieldElement) -> FieldElement:
        """a1 X + a3 at x; zero exactly at the two-torsion x-coordinates."""
        return self.a1 * x + self.a3

    def contains(self, x, y) -> bool:
        x = self.ctx(x)
        y = self.ctx(y)
        return y * y + self.hpoly(x) * y == self.rhs(x)

    def point(self, x, y) -> "CurvePoint":
        x = self.ctx(x)
        y = self.ctx(y)
        if not self.contains(x, y):
            raise ValueError("point is not on the curve")
        return CurvePoint(self, (x.bits, y.bits))

    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, None)

    def fiber_y(self, x) -> tuple:
        """All y with (x, y) on the curve, sorted by bit pattern."""
        x = self.ctx(x)
        h = self.hpoly(x)
        f = self.rhs(x)
        if h == self.ctx.zero:
            # y^2 = f has the single root sqrt(f)
            return (f.sqrt(),)
        ys = tuple(h * z for z in solve_artin_schreier(f / (h * h)))
        return tuple(sorted(ys, key=lambda e: e.bits))

    def count_points(self) -> int:
        """|E(F_q)| by fiber enumeration; refuses fields past 2^20."""
        if self.ctx.degree > 20:
            raise ValueError("field too large to enumerate; use a formula")
        # on ints: one y where h = 0, else two or none as Tr(f / h^2) is 0 or 1
        ctx = self.ctx
        mul, sqr, inv, mask = ctx.mul, ctx.sqr, ctx.inv, ctx.trace_mask()
        a1, a2, a3, a4, a6 = (a.bits for a in self.coefficients())
        if not a1:  # h = a3 != 0 everywhere: Tr(f / a3^2) = parity(f & cmask)
            c = inv(sqr(a3))
            cmask = sum((mul(c, 1 << i) & mask).bit_count() % 2 << i
                        for i in range(ctx.degree))
            return 1 + 2 * sum(
                not ((mul(mul(x ^ a2, x) ^ a4, x) ^ a6) & cmask).bit_count() & 1
                for x in range(1 << ctx.degree))
        total = 1
        for x in range(1 << ctx.degree):
            h = mul(a1, x) ^ a3
            if not h:
                total += 1
            else:
                f = mul(mul(x ^ a2, x) ^ a4, x) ^ a6
                if not (mul(f, inv(sqr(h))) & mask).bit_count() & 1:
                    total += 2
        return total

    def random_point(self, rng: random.Random) -> "CurvePoint":
        """A random affine point; ValueError if none, which needs q <= 4."""
        if self.ctx.degree <= 2 and self.count_points() == 1:
            raise ValueError("the curve has no affine point")
        while True:
            x = self.ctx.random(rng)
            ys = self.fiber_y(x)
            if ys:
                y = ys[rng.randrange(len(ys))]
                return CurvePoint(self, (x.bits, y.bits))

    def base_change(self, target: FieldContext) -> "WeierstrassCurve":
        if target is self.ctx:
            return self
        return WeierstrassCurve(
            target, *(embed(a, target) for a in self.coefficients()))

    def lift_point(self, pt: "CurvePoint", target: FieldContext) -> "CurvePoint":
        big = self.base_change(target)
        if pt.is_infinity():
            return big.infinity()
        return big.point(embed(pt.x, target), embed(pt.y, target))

    def transform(self, u, r, s, t):
        """Isomorphic curve under (u, r, s, t) plus the forward point map."""
        u = self.ctx(u)
        r = self.ctx(r)
        s = self.ctx(s)
        t = self.ctx(t)
        if u == self.ctx.zero:
            raise ValueError("u must be invertible")
        new = WeierstrassCurve(
            self.ctx, *transformed_coefficients(self.coefficients(), u, r, s, t))
        u2 = u * u
        u3 = u2 * u

        def fwd(pt: "CurvePoint") -> "CurvePoint":
            if pt.is_infinity():
                return new.infinity()
            xp = (pt.x + r) / u2
            yp = (pt.y + t + s * (pt.x + r)) / u3
            return new.point(xp, yp)

        return new, fwd

    def to_json(self) -> dict:
        return {"d": self.ctx.degree,
                "a": [a.to_json()["hex"] for a in self.coefficients()]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeierstrassCurve):
            return NotImplemented
        return self.ctx == other.ctx and self.coefficients() == other.coefficients()

    def __hash__(self):
        return hash((self.ctx, tuple(a.bits for a in self.coefficients())))

    def __repr__(self) -> str:
        a = [format(c.bits, "x") for c in self.coefficients()]
        return f"WeierstrassCurve(GF(2^{self.ctx.degree}), a=[{', '.join(a)}])"


class CurvePoint:
    """A point on a WeierstrassCurve: its (x, y) pair of bits ``xy``, None at
    the origin, trusted to lie on the curve (``WeierstrassCurve.point``
    checks).  ``x`` and ``y`` are read-only FieldElement views, None at O."""

    __slots__ = ("curve", "xy")

    def __init__(self, curve: WeierstrassCurve, xy):
        self.curve = curve
        self.xy = xy

    x = property(lambda self: None if self.xy is None
                 else FieldElement(self.curve.ctx, self.xy[0]))
    y = property(lambda self: None if self.xy is None
                 else FieldElement(self.curve.ctx, self.xy[1]))

    def is_infinity(self) -> bool:
        return self.xy is None

    def __neg__(self) -> "CurvePoint":
        if self.xy is None:
            return self
        (x, y), E = self.xy, self.curve
        return CurvePoint(E, (x, y ^ E.ctx.mul(E.a1.bits, x) ^ E.a3.bits))

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.curve != other.curve:
            raise ValueError("points on different curves")
        return CurvePoint(self.curve,
                          _add_pairs(self.curve, self.xy, other.xy))

    def __sub__(self, other: "CurvePoint") -> "CurvePoint":
        return self + (-other)

    def __mul__(self, k: int) -> "CurvePoint":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (-self) * (-k)
        acc = None
        for bit in format(k, "b"):  # from the top: no doubling left unread
            acc = _add_pairs(self.curve, acc, acc)
            if bit == "1":
                acc = _add_pairs(self.curve, acc, self.xy)
        return CurvePoint(self.curve, acc)

    __rmul__ = __mul__

    def to_json(self):
        if self.xy is None:
            return INFINITY.to_json()
        return {"curve": [a.to_json() for a in self.curve.coefficients()],
                "x": self.x.to_json(), "y": self.y.to_json()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self.curve == other.curve and self.xy == other.xy

    def __hash__(self):
        return hash((self.curve, self.xy))

    def __repr__(self) -> str:
        if self.xy is None:
            return "CurvePoint(infinity)"
        return (f"CurvePoint(x=0x{self.xy[0]:x}, y=0x{self.xy[1]:x}, "
                f"d={self.curve.ctx.degree})")


def _slope(curve: WeierstrassCurve, p, q):
    """Slope of the line through the affine (x, y) pairs of bits p and q on
    the curve, the tangent when p == q; None when the line is vertical,
    that is when p + q is the origin."""
    mul, inv = curve.ctx.mul, curve.ctx.inv
    (x1, y1), (x2, y2) = p, q
    if x1 != x2:
        return mul(y1 ^ y2, inv(x1 ^ x2))
    a1 = curve.a1.bits
    h = mul(a1, x1) ^ curve.a3.bits
    if y2 == y1 ^ h:
        return None
    # tangent; h(x1) != 0 here since h = 0 forces y2 = y1 + h = y1
    return mul(curve.ctx.sqr(x1) ^ curve.a4.bits ^ mul(a1, y1), inv(h))


def _add_pairs(curve: WeierstrassCurve, p, q):
    """p + q on the curve, for (x, y) pairs of bits with None the origin: the
    chord-and-tangent law, the one adder CurvePoint wraps."""
    if p is None or q is None:
        return q if p is None else p
    lam = _slope(curve, p, q)
    if lam is None:
        return None
    mul, a1 = curve.ctx.mul, curve.a1.bits
    x1, y1 = p
    x3 = curve.ctx.sqr(lam) ^ mul(a1, lam) ^ curve.a2.bits ^ x1 ^ q[0]
    return x3, mul(lam ^ a1, x3) ^ mul(lam, x1) ^ y1 ^ curve.a3.bits


def supersingular_trace(d: int) -> int:
    """Frobenius trace of Y^2 + Y = X^3 over GF(2^d).

    t_0 = 2, t_1 = 0, t_k = -2 t_{k-2}; zero for odd d.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d % 2 == 1:
        return 0
    m = d // 2
    return 2 * (-2) ** m


def supersingular_order(d: int) -> int:
    """|E(F_{2^d})| for Y^2 + Y = X^3."""
    return (1 << d) + 1 - supersingular_trace(d)


def _is_supersingular_model(curve: WeierstrassCurve) -> bool:
    """Is the curve exactly Y^2 + Y = X^3, not merely isomorphic to it?"""
    return tuple(a.bits for a in curve.coefficients()) == (0, 0, 1, 0, 0)


def _supersingular_exponent(d: int) -> int:
    """Exponent of E(F_(2^d)) for E: Y^2 + Y = X^3.

    2^m - (-1)^m at d = 2m: Frobenius satisfies pi^2 = -2, so E(F_q) =
    ker(pi^d - 1) = E[(-2)^m - 1], which is (Z/M)^2 with M = |(-2)^m - 1|.
    2^d + 1 at odd d, the whole order, as the group is cyclic: a full E[p]
    in E(F_q) would put the p-th roots of unity in F_q (Weil pairing), so p
    would divide gcd(2^d + 1, 2^d - 1) = 1.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d % 2:
        return (1 << d) + 1
    m = d // 2
    return (1 << m) - (-1) ** m


def torsion_field_degree(n: int) -> int:
    """Least d with the full n-torsion of Y^2 + Y = X^3 rational over GF(2^d).

    That is the least even d whose exponent n divides, 2 * ord_n(-2): at
    odd d the group is cyclic and holds no (Z/n)^2.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    d = 2
    while _supersingular_exponent(d) % n:
        d += 2
    return d


def extension_order(base_order: int, q: int, k: int) -> int:
    """|E(F_{q^k})| from |E(F_q)| via the Frobenius eigenvalue recurrence.

    With t = q + 1 - base_order, the power sums s_j of the two eigenvalues
    satisfy s_0 = 2, s_1 = t, s_j = t*s_{j-1} - q*s_{j-2}.
    """
    t = q + 1 - base_order
    s0, s1 = 2, t
    for _ in range(k - 1):
        s0, s1 = s1, t * s1 - q * s0
    return q ** k + 1 - s1


def point_order(curve: WeierstrassCurve, point: "CurvePoint",
                group_order: int | None = None) -> int:
    """Exact order of a point: strip primes from a multiple that kills it.

    The multiple is `group_order` when given, the exponent of the group on
    the Y^2 + Y = X^3 model, and the enumerated count otherwise; callers on
    large ordinary fields must pass it in (e.g. from extension_order).
    order_from_multiple certifies that the multiple kills the point.
    """
    if point.curve != curve:
        raise ValueError("point lies on a different curve")
    if point.is_infinity():
        return 1
    N = group_order
    if N is None:
        N = (_supersingular_exponent(curve.ctx.degree)
             if _is_supersingular_model(curve) else curve.count_points())
    return order_from_multiple(N, lambda k: (k * point).is_infinity())


# random points the cofactor search draws per prime before it gives up
_EXACT_ORDER_TRIALS = 256


def point_of_exact_order(curve: WeierstrassCurve, group_order: int, n: int,
                         rng: random.Random) -> CurvePoint:
    """A point of exact order n, via the cofactor method prime by prime."""
    parts = []
    for p, e in factorint(n).items():
        cofactor = group_order
        while cofactor % p == 0:
            cofactor //= p
        if (group_order // cofactor) % p ** e:
            raise ValueError(f"group order lacks {p}^{e}")
        for attempt in range(_EXACT_ORDER_TRIALS):
            S = cofactor * curve.random_point(rng)
            # S has order p^j; walk down to exact order p^e
            chain = [S]
            while not chain[-1].is_infinity():
                chain.append(p * chain[-1])
            j = len(chain) - 1
            if j >= e:
                parts.append(chain[j - e])
                break
        else:
            raise TorsionSearchExhausted(
                f"no point of order {p ** e} found in"
                f" {_EXACT_ORDER_TRIALS} trials", trials=_EXACT_ORDER_TRIALS)
    acc = curve.infinity()
    for pt in parts:
        acc = acc + pt
    if not (n * acc).is_infinity():
        raise VerificationError("cofactor search returned a bad point")
    for p in factorint(n):
        if ((n // p) * acc).is_infinity():
            raise VerificationError("cofactor search returned a bad point")
    return acc


def _spans_torsion(P: CurvePoint, Q: CurvePoint, n: int) -> bool:
    """Do P and Q of exact order n generate E[n] = (Z/n)^2?

    They do exactly when, for each prime p | n, (n/p)Q is not among the p
    multiples of (n/p)P: a nonzero relation aP + bQ = 0 has a multiple of
    prime order p, which is a dependence between (n/p)P and (n/p)Q, and
    (n/p)P has order p.  This costs O(sum of p) additions, not n^2.
    """
    for p in factorint(n):
        Pp, Qp = (n // p) * P, (n // p) * Q
        acc = P.curve.infinity()
        for _ in range(p):
            if acc == Qp:
                return False
            acc = acc + Pp
    return True


def torsion_basis(n: int, seed: int = 0):
    """(curve, P, Q): a certified basis of the n-torsion of Y^2 + Y = X^3.

    The curve lives over GF(2^d) with d = torsion_field_degree(n).  P and Q
    come certified of exact order n from the cofactor search, and the pair
    is kept only when ``_spans_torsion`` proves it independent at every
    prime p | n, so (P, Q) really generates (Z/n)^2.
    """
    d = torsion_field_degree(n)
    curve = WeierstrassCurve.supersingular(d)
    N = supersingular_order(d)
    if d <= 12 and N != curve.count_points():
        raise VerificationError("order formula disagrees with enumeration")
    rng = random.Random(seed)
    P = point_of_exact_order(curve, N, n, rng)
    for attempt in range(64):
        Q = point_of_exact_order(curve, N, n, rng)
        if _spans_torsion(P, Q, n):
            return curve, P, Q
    raise TorsionSearchExhausted(
        f"no basis of the {n}-torsion found in 64 trials", seed=seed,
        trials=64)


def torsion_points(curve: WeierstrassCurve, P: CurvePoint, Q: CurvePoint,
                   n: int, exact: bool = True) -> list:
    """All points a*P + b*Q, filtered to exact order n when `exact`."""
    if P.curve != curve or Q.curve != curve:
        raise ValueError("points on different curves")
    pts = []
    for a in range(n):
        for b in range(n):
            T = a * P + b * Q
            if not exact:
                pts.append(T)
                continue
            if (n * T).is_infinity() and not T.is_infinity():
                good = all(not ((n // p) * T).is_infinity()
                           for p in factorint(n))
                if good:
                    pts.append(T)
    return pts
