"""Function field tests.

The master oracle is pointwise evaluation: function arithmetic must commute
with evaluation at every point where the direct formula applies.  Local
expansions are checked by plugging the series back into the curve equation,
and the different exponents are pinned against hand-computed valuations.
"""

import importlib.util
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lame2 import (GF, INFINITY, FieldElement, FieldInputError,
                   Poly, cover_profile, embed, ordinary_torsion_point)
from lame2.common import (FiberEscapeError, PrecisionError, ProfileFalsified,
                          VerificationError)
from lame2.gf2 import _pmod, poly_roots
from lame2.funcfield import (
    _check_on_curve,
    _expand_shifted,
    _fiber_poly,
    _line_through,
    local_expand,
    CurveFunction,
    Series,
    different_exponent,
    differentiate,
    fiber,
    _miller_accumulate,
    miller_function,
    ramification_index,
    ramification_profile,
    xy_expansion,
)
from lame2.weierstrass import WeierstrassCurve, torsion_basis


def coordinate_x(curve):
    """The function X on the curve."""
    return CurveFunction(curve, Poly.x(curve.ctx), 0, 1)


def coordinate_y(curve):
    """The function Y on the curve."""
    return CurveFunction(curve, 0, Poly.one(curve.ctx), 1)


# ---------------------------------------------------------------------------
# series


def test_series_geometric_inverse():
    ctx = GF(3)
    one = ctx.one
    # 1 + t
    s = Series(ctx, 0, [one, one] + [ctx.zero] * 14)
    inv = s.inverse()
    prod = s * inv
    assert prod.valuation() == 0
    assert prod.coeff(0) == one
    for k in range(1, 12):
        assert prod.coeff(k) == ctx.zero


def test_series_precision_bookkeeping():
    ctx = GF(2)
    one = ctx.one
    a = Series(ctx, 2, [one, ctx.zero, one])   # t^2 + t^4 + O(t^5)
    b = Series(ctx, -1, [one, one])            # t^-1 + 1 + O(t)
    assert a.prec == 5
    assert (a * b).val == 1
    assert (a * b).prec == 3  # min(5 + (-1), 1 + 2)
    assert (a + b).val == -1
    assert (a + b).prec == 1


def test_series_derivative_char2():
    ctx = GF(2)
    one = ctx.one
    s = Series(ctx, 2, [one, one, one, one])  # t^2 + t^3 + t^4 + t^5
    ds = s.deriv()
    # 2t + 3t^2 + 4t^3 + 5t^4 -> t^2 + t^4
    assert ds.valuation() == 2
    assert ds.coeff(2) == one
    assert ds.coeff(3) == ctx.zero
    assert ds.coeff(4) == one


def test_series_zero_to_precision():
    ctx = GF(2)
    z = Series(ctx, 5, [])
    with pytest.raises(PrecisionError):
        z.valuation()
    with pytest.raises(PrecisionError):
        z.inverse()


def test_series_square_matches_product():
    ctx = GF(8)
    rng = random.Random(12)
    for val in (-3, 0, 2):
        s = Series(ctx, val, [ctx.random(rng) for _ in range(15)])
        copy = Series(ctx, s.val, s.coeffs)
        sq, prod = s * s, s * copy
        assert (sq.val, sq.prec, sq.coeffs) == \
            (prod.val, prod.prec, prod.coeffs)


def test_exact_zero_product_keeps_the_other_window():
    # a series times the exact scalar 0 is exactly 0, so a sum with it keeps
    # the other summand's window instead of taking the zero factor's
    E = WeierstrassCurve.supersingular(4)
    X, Y = xy_expansion(E, E.infinity(), 10)
    assert (X.prec, Y.prec) == (7, 6)
    for zero in (0, E.ctx.zero):
        assert (X + Y * zero).prec == (X + zero * Y).prec == X.prec
        assert X + Y * zero == X


class ReferenceSeries:
    """Series with FieldElement coefficients, the representation Series had
    before it stored raw ints; the oracle for the int arithmetic."""

    __slots__ = ("ctx", "val", "coeffs")

    def __init__(self, ctx, val, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            val += 1
        self.ctx = ctx
        self.val = val
        self.coeffs = tuple(coeffs)

    @classmethod
    def uniformizer(cls, ctx, prec):
        return cls(ctx, 1, [ctx.one] + [ctx.zero] * (prec - 2))

    @property
    def prec(self):
        return self.val + len(self.coeffs)

    def is_zero_to_prec(self):
        return not self.coeffs

    def coeff(self, k):
        if k >= self.prec:
            raise PrecisionError(f"coefficient of t^{k} beyond precision")
        if k < self.val:
            return self.ctx.zero
        return self.coeffs[k - self.val]

    def _scalar(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, int):
            return self.ctx(other & 1)
        return None

    def __add__(self, other):
        c = self._scalar(other)
        if c is not None:
            if self.prec <= 0:
                return self
            lo = min(self.val, 0)
            out = [self.coeff(k) for k in range(lo, self.prec)]
            out[-lo] = out[-lo] + c
            return ReferenceSeries(self.ctx, lo, out)
        lo = min(self.val, other.val)
        hi = min(self.prec, other.prec)
        out = []
        for k in range(lo, hi):
            a = self.coeffs[k - self.val] if self.val <= k < self.prec \
                else self.ctx.zero
            b = other.coeffs[k - other.val] if other.val <= k < other.prec \
                else self.ctx.zero
            out.append(a + b)
        return ReferenceSeries(self.ctx, lo, out)

    __radd__ = __add__

    def __mul__(self, other):
        c = self._scalar(other)
        if c is not None:
            if not c:
                return c
            return ReferenceSeries(self.ctx, self.val,
                                   [a * c for a in self.coeffs])
        out_prec = min(self.prec + other.val, other.prec + self.val)
        if not self.coeffs or not other.coeffs:
            return ReferenceSeries(self.ctx, out_prec, [])
        val = self.val + other.val
        length = out_prec - val
        out = [self.ctx.zero] * length
        for i, a in enumerate(self.coeffs):
            for j in range(min(len(other.coeffs), length - i)):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return ReferenceSeries(self.ctx, val, out)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise PrecisionError("cannot invert a series with no known term")
        inv0 = 1 / self.coeffs[0]
        n = len(self.coeffs)
        out = [inv0] + [self.ctx.zero] * (n - 1)
        for k in range(1, n):
            acc = self.ctx.zero
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out[k] = acc * inv0
        return ReferenceSeries(self.ctx, -self.val, out)

    def __truediv__(self, other):
        c = self._scalar(other)
        if c is not None:
            return self * (1 / c)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * self._scalar(other)

    def deriv(self):
        return ReferenceSeries(self.ctx, self.val - 1, [
            a if (self.val + i) & 1 else self.ctx.zero
            for i, a in enumerate(self.coeffs)])

    def __eq__(self, other):
        hi = min(self.prec, other.prec)
        lo = min(self.val, other.val)
        for k in range(lo, hi):
            a = self.coeffs[k - self.val] if self.val <= k else self.ctx.zero
            b = other.coeffs[k - other.val] if other.val <= k else self.ctx.zero
            if a != b:
                return False
        return True


def _as_bits(s):
    """(val, prec, coefficient bits) of a Series or a ReferenceSeries, or
    the bits of the exact scalar zero a product by 0 returns."""
    if isinstance(s, FieldElement):
        return s.bits
    return (s.val, s.prec,
            tuple(c.bits if isinstance(c, FieldElement) else c
                  for c in s.coeffs))


def _context_id(ctx):
    return f"d{ctx.degree}-m{ctx.modulus:x}"


ORACLE_CONTEXTS = [GF(1), GF(4), GF(8), GF(24)]


def _random_pair(ctx, rng):
    """The same random series as a Series and a ReferenceSeries; leading
    zeros, sparse terms and empty windows all occur."""
    val = rng.randrange(-4, 4)
    bits = [rng.getrandbits(ctx.degree) if rng.random() < 0.7 else 0
            for _ in range(rng.randrange(0, 12))]
    return (Series(ctx, val, bits),
            ReferenceSeries(ctx, val, [ctx(b) for b in bits]))


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=_context_id)
def test_series_arithmetic_matches_the_field_element_reference(ctx):
    rng = random.Random(100 + ctx.degree + ctx.modulus % 7)
    for _ in range(60):
        (s, rs), (u, ru) = _random_pair(ctx, rng), _random_pair(ctx, rng)
        assert _as_bits(s) == _as_bits(rs)
        assert _as_bits(s + u) == _as_bits(rs + ru)
        assert _as_bits(s * u) == _as_bits(rs * ru)
        assert _as_bits(s * s) == _as_bits(rs * rs)
        assert _as_bits(s.deriv()) == _as_bits(rs.deriv())
        assert (s == u) == (rs == ru)
        assert s == Series(ctx, s.val, s.coeffs)
        if u.coeffs:
            assert _as_bits(u.inverse()) == _as_bits(ru.inverse())
            assert _as_bits(s / u) == _as_bits(rs / ru)
        else:
            with pytest.raises(PrecisionError):
                u.inverse()
        for c in (0, 1, 2, 3, ctx.zero, ctx.one, ctx.random(rng)):
            assert _as_bits(s + c) == _as_bits(rs + c)
            assert _as_bits(c + s) == _as_bits(c + rs)
            assert _as_bits(s * c) == _as_bits(rs * c)
            assert _as_bits(c * s) == _as_bits(c * rs)
            if (c & 1 if isinstance(c, int) else c):  # ints stand for GF(2)
                assert _as_bits(s / c) == _as_bits(rs / c)
            if s.coeffs:
                assert _as_bits(c / s) == _as_bits(c / rs)


@pytest.mark.parametrize("make", [
    lambda ctx, cs: Poly(ctx, cs).coeffs,
    lambda ctx, cs: Series(ctx, 0, cs).coeffs,
    # each coefficient as the constant of a function, read back as bits
    lambda ctx, cs: tuple(
        CurveFunction(WeierstrassCurve.supersingular(ctx), c).A.coeff(0).bits
        for c in cs),
    # each coefficient as a point at which x is evaluated
    lambda ctx, cs: tuple(Poly.x(ctx)(c).bits for c in cs),
], ids=["Poly", "Series", "CurveFunction", "Poly-point"])
def test_poly_and_series_share_one_coefficient_rule(make):
    # the constructor rule of FieldContext.__call__, read by every
    # constructor that takes field values
    ctx = GF(4)
    big = 0b1100101  # degree 6, reduced mod x^4 + x + 1
    assert make(ctx, [1, big]) == (1, _pmod(big, ctx.modulus))
    assert make(ctx, [1, ctx(0b1010), 0b1010]) == (1, 0b1010, 0b1010)
    with pytest.raises(FieldInputError, match="negative"):
        make(ctx, [1, -1])
    with pytest.raises(ValueError, match="different context"):
        make(ctx, [1, GF(8).one])
    with pytest.raises(ValueError, match="different context"):
        make(ctx, [1, GF(8)(3)])
    with pytest.raises(ValueError, match="different context"):
        make(ctx, [1, GF(2).one])


def _reduced_and_normal(ctx, obj):
    # what the public constructor would have made of the same coefficients
    assert all(type(c) is int and 0 <= c < 1 << ctx.degree
               for c in obj.coeffs), obj
    if isinstance(obj, Poly):
        assert obj == Poly(ctx, list(obj.coeffs))
        assert not obj.coeffs or obj.coeffs[-1]
    else:
        again = Series(ctx, obj.val, list(obj.coeffs))
        assert (again.val, again.coeffs) == (obj.val, obj.coeffs)
        assert not obj.coeffs or obj.coeffs[0]


@pytest.mark.parametrize("d", [5, 13, 48])
def test_arithmetic_results_skip_the_rule_and_stay_reduced(d):
    # Poly and Series arithmetic builds its results without the coefficient
    # rule; they must still be ints below 2^d in normal form, and the rule
    # must still guard the public constructors
    ctx = GF(d)
    rng = random.Random(200 + d)

    def coeffs(n):
        return [rng.getrandbits(d) if rng.random() < 0.7 else 0
                for _ in range(n)]

    for _ in range(40):
        p, q = Poly(ctx, coeffs(rng.randrange(0, 8))), Poly(
            ctx, coeffs(rng.randrange(0, 6)) + [rng.randrange(1, 1 << d)])
        quo, rem = divmod(p, q)
        for r in (p + q, p * q, p * p, quo, rem, p % q, p.deriv(),
                  p.gcd(q), p.monic()):
            _reduced_and_normal(ctx, r)
        s = Series(ctx, rng.randrange(-3, 3), coeffs(rng.randrange(0, 9)))
        u = Series(ctx, rng.randrange(-3, 3),
                   [rng.randrange(1, 1 << d)] + coeffs(rng.randrange(0, 8)))
        c = ctx(rng.randrange(1, 1 << d))  # s * 0 is the exact zero
        for r in (s + u, s * u, s * s, s * c, s + c, u.inverse(), s / u,
                  s.deriv()):
            _reduced_and_normal(ctx, r)
    for make in (lambda cs: Poly(ctx, cs), lambda cs: Series(ctx, 0, cs)):
        with pytest.raises(FieldInputError, match="negative"):
            make([1, -1])
        with pytest.raises(ValueError, match="different context"):
            make([1, GF(d + 1).one])


def test_series_coefficients_are_raw_ints():
    E = WeierstrassCurve.ordinary(GF(8), 0x35)
    for place in (INFINITY, E.point(0, E.fiber_y(E.ctx(0))[0])):
        for s in xy_expansion(E, place, 10):
            assert all(type(c) is int for c in s.coeffs)
            assert isinstance(s.coeff(s.val), FieldElement)


@pytest.mark.parametrize("other", [GF(4), GF(16)], ids=_context_id)
def test_series_context_mismatch_raises(other):
    # raw ints carry no context, so a mix must be caught before arithmetic;
    # every case here also raised when coefficients were FieldElements
    ctx = GF(8)
    s = Series(ctx, 0, [ctx(0b1011), ctx(0b110), ctx(1)])
    u = Series(other, -1, [other(0b11), other(0b101), other(1), other(1)])
    c = other(0b110)
    for op in (lambda: s + u, lambda: u + s, lambda: s * u, lambda: u * s,
               lambda: s / u, lambda: s + c, lambda: c + s, lambda: s * c,
               lambda: c * s, lambda: s / c):
        with pytest.raises(ValueError, match="different field contexts"):
            op()
    # the same bits over another context are another series
    twin = Series(other, 0, [other(0b1011), other(0b110), other(1)])
    assert s != twin and twin != s
# ---------------------------------------------------------------------------
# local expansions: the curve equation is the oracle


def _residual(curve, X, Y):
    return Y * Y + (curve.a1 * X + curve.a3) * Y \
        + ((X + curve.a2) * X + curve.a4) * X + curve.a6


@pytest.mark.parametrize("dd", [2, 4])
def test_expansion_generic_point(dd):
    E = WeierstrassCurve.supersingular(dd)
    P = E.point(0, 1)
    X, Y = xy_expansion(E, P, 20)
    # X = x0 + t exactly
    assert X.coeff(0) == P.x
    assert X.coeff(1) == E.ctx.one
    assert all(X.coeff(k) == E.ctx.zero for k in range(2, 10))
    assert Y.value_at_origin() == P.y
    assert _residual(E, X, Y).is_zero_to_prec()


def test_expansion_two_torsion_point():
    # ordinary curve, point (0, 0) has h(x) = 0: uniformizer is Y
    E = WeierstrassCurve.ordinary(GF(4), 9)
    R = E.point(0, 0)
    X, Y = xy_expansion(E, R, 20)
    assert Y.valuation() == 1
    assert _residual(E, X, Y).is_zero_to_prec()
    # X - x0 must vanish to order exactly 2: wild double point of the x-map
    assert X.valuation() == 2 if X.coeff(0) == E.ctx.zero else X.coeff(0) == E.ctx.zero


def test_expansion_at_origin():
    E = WeierstrassCurve.supersingular(3)
    X, Y = xy_expansion(E, INFINITY, 24)
    assert X.valuation() == -2
    assert Y.valuation() == -3
    assert _residual(E, X, Y).is_zero_to_prec()
    # for Y^2 + Y = X^3 the w-series is z^3 + z^6 + z^12 + ...
    w = 1 / Y
    assert w.valuation() == 3
    assert w.coeff(3) == E.ctx.one
    assert w.coeff(6) == E.ctx.one
    assert w.coeff(12) == E.ctx.one
    assert w.coeff(4) == E.ctx.zero
    assert w.coeff(9) == E.ctx.zero


def test_expansion_accepts_infinite_point():
    E = WeierstrassCurve.supersingular(2)
    X1, Y1 = xy_expansion(E, E.infinity(), 12)
    X2, Y2 = xy_expansion(E, INFINITY, 12)
    assert X1 == X2 and Y1 == Y2


def _newton_reference(curve, place, prec):
    """(X, Y) at place by Newton's iteration u <- u + F(u)/F'(u).

    F is the curve equation in the unknown series (Y, X, or w = 1/Y at the
    origin); F' is a local unit, so each step doubles the known precision.
    """
    ctx = curve.ctx
    a1, a2, a3, a4, a6 = curve.coefficients()
    t = Series.uniformizer(ctx, prec + 1)
    if place is INFINITY:
        z = t
        w = Series(ctx, 3, [ctx.one] + [ctx.zero] * (prec - 2))
        for _ in range(8):
            g = w + a1 * (z * w) + a2 * (z * z * w) + a3 * (w * w) \
                + a4 * (z * (w * w)) + a6 * (w * w * w) + z * z * z
            if g.is_zero_to_prec():
                return z / w, 1 / w
            w = w + g / (a1 * z + a2 * (z * z) + a6 * (w * w) + 1)
    elif curve.h(place.x):
        X = t + place.x
        Y = Series.constant(place.y, prec + 1)
        for _ in range(8):
            g = _residual(curve, X, Y)
            if g.is_zero_to_prec():
                return X, Y
            Y = Y + g / (a1 * X + a3)
    else:
        Y = t + place.y
        X = Series.constant(place.x, prec + 1)
        for _ in range(8):
            g = _residual(curve, X, Y)
            if g.is_zero_to_prec():
                return X, Y
            X = X + g / (a1 * Y + X * X + a4)
    raise AssertionError("Newton reference did not converge")


def _regime(E, place):
    """The uniformizer xy_expansion takes at place: X/Y, X - x0 or Y - y0."""
    if place is INFINITY or place.is_infinity():
        return "x_over_y_at_infinity"
    return "x_minus_x0" if E.h(place.x) else "y_based"


def _oracle_places(E, rng):
    """The origin, a point with h(x0) != 0 and, when a1 != 0, the point
    with h(x0) = 0, whose uniformizer is Y - y0."""
    places = [INFINITY]
    while True:
        P = E.random_point(rng)
        if not P.is_infinity() and E.h(P.x):
            places.append(P)
            break
    if E.a1:
        x0 = E.a3 / E.a1
        places.append(E.point(x0, E.fiber_y(x0)[0]))
    return places


def reference_xy_expansion(curve, place, prec):
    """xy_expansion as it was on FieldElement coefficients, over
    ReferenceSeries, certified by the same residual."""
    ctx = curve.ctx
    zero = ctx.zero
    a1, a2, a3, a4, a6 = curve.coefficients()
    t = ReferenceSeries.uniformizer(ctx, prec + 1)
    if place is INFINITY:
        n = max(prec + 2, 4)
        w, S = [zero] * n, [zero] * n
        for k in range(3, n):
            Sw = sum((S[i] * w[k - i] for i in range(6, k - 2, 2)), zero)
            wk = a1 * w[k - 1] + a2 * w[k - 2] + a3 * S[k] + a4 * S[k - 1] \
                + a6 * Sw
            w[k] = wk + 1 if k == 3 else wk
            if 2 * k < n:
                S[2 * k] = w[k].square()
        Y = ReferenceSeries(ctx, 0, w).inverse()
        X = t * Y
    elif curve.h(place.x):
        x0, y0 = place.x, place.y
        X = t + x0
        f = [zero, x0.square() + a4, x0 + a2, ctx.one]
        inv = 1 / curve.h(x0)
        y = [y0]
        for k in range(1, prec + 1):
            yk = a1 * y[k - 1] + (f[k] if k <= 3 else zero)
            if k % 2 == 0:
                yk = yk + y[k // 2].square()
            y.append(yk * inv)
        Y = ReferenceSeries(ctx, 0, y)
    else:
        x0, y0 = place.x, place.y
        Y = t + y0
        inv = 1 / (x0.square() + a1 * y0 + a4)
        x, xsq = [x0], [x0.square()]
        for k in range(1, prec + 1):
            xk = a1 * x[k - 1] + sum(
                (xsq[i] * x[k - 2 * i] for i in range(1, k // 2 + 1)), zero)
            if k == 1:
                xk = xk + a3
            elif k % 2 == 0:
                xk = xk + a2 * xsq[k // 2] + (1 if k == 2 else 0)
            x.append(xk * inv)
            xsq.append(x[k].square())
        X = ReferenceSeries(ctx, 0, x)
    assert _residual(curve, X, Y).is_zero_to_prec()
    return X, Y


@pytest.mark.parametrize("ctx", [GF(3), GF(8), GF(24)], ids=_context_id)
def test_expansion_matches_the_field_element_reference(ctx):
    # Y^2 + Y = X^3, an ordinary curve, and one with a1, a3 != 0, in all
    # three uniformizer regimes
    rng = random.Random(30 + ctx.degree + ctx.modulus % 7)
    nonzero = [ctx(1 + rng.randrange((1 << ctx.degree) - 1))
               for _ in range(6)]
    curves = [WeierstrassCurve.supersingular(ctx),
              WeierstrassCurve.ordinary(ctx, nonzero[0]),
              WeierstrassCurve(ctx, *nonzero[1:6])]
    tags = set()
    for E in curves:
        for place in _oracle_places(E, rng):
            tags.add(_regime(E, place))
            for prec in (1, 2, 5, 17, 40):
                got = xy_expansion(E, place, prec)
                want = reference_xy_expansion(E, place, prec)
                for g, w in zip(got, want):
                    assert _as_bits(g) == _as_bits(w), (E, place, prec)
    assert tags == {"x_minus_x0", "y_based", "x_over_y_at_infinity"}


@pytest.mark.parametrize("d", [3, 8, 24])
def test_expansion_matches_newton_reference(d):
    ctx = GF(d)
    rng = random.Random(90 + d)
    nonzero = [ctx(1 + rng.randrange((1 << d) - 1)) for _ in range(7)]
    curves = [WeierstrassCurve.supersingular(ctx),
              WeierstrassCurve.ordinary(ctx, nonzero[0]),
              WeierstrassCurve(ctx, *nonzero[1:6]),
              WeierstrassCurve(ctx, 0, nonzero[5], 1, 0, nonzero[6])]
    tags = set()
    for E in curves:
        for place in _oracle_places(E, rng):
            tags.add(_regime(E, place))
            for prec in (1, 3, 12, 40):
                got = xy_expansion(E, place, prec)
                want = _newton_reference(E, place, prec)
                for g, w in zip(got, want):
                    assert (g.val, g.prec, g.coeffs) == \
                        (w.val, w.prec, w.coeffs), (E, place, prec)
    assert tags == {"x_minus_x0", "y_based", "x_over_y_at_infinity"}


def test_expansion_certificate_rejects_a_corrupted_coefficient(monkeypatch):
    E = WeierstrassCurve.ordinary(GF(5), 3)
    P = next(E.point(x, y) for x in E.ctx.elements() if E.h(x)
             for y in E.fiber_y(x))
    for place in (P, INFINITY):
        X, Y = xy_expansion(E, place, 12)
        _check_on_curve(E, X, Y)
        bad = list(Y.coeffs)
        bad[2] = bad[2] ^ 1
        with pytest.raises(VerificationError):
            _check_on_curve(E, X, Series(E.ctx, Y.val, bad))
    # at the origin Y = 1/w; a wrong inverse must not pass unnoticed

    def corrupted_inverse(self):
        s = original(self)
        return Series(s.ctx, s.val, [s.coeffs[0]] + [s.coeffs[1] ^ 1]
                      + list(s.coeffs[2:]))

    original = Series.inverse
    monkeypatch.setattr(Series, "inverse", corrupted_inverse)
    with pytest.raises(VerificationError):
        xy_expansion(E, INFINITY, 12)


# ---------------------------------------------------------------------------
# function arithmetic: pointwise oracle


def _random_function(E, rng, deg=2):
    ctx = E.ctx
    def rp():
        return Poly(ctx, [ctx.random(rng).bits for _ in range(deg + 1)])
    while True:
        D = rp()
        if not D.is_zero():
            return CurveFunction(E, rp(), rp(), D)


def test_canonical_form():
    E = WeierstrassCurve.supersingular(4)
    ctx = E.ctx
    x = Poly.x(ctx)
    c = ctx(7)
    f1 = CurveFunction(E, x * x * c, Poly(ctx, [c]), x * c)
    f2 = CurveFunction(E, x * x, Poly.one(ctx), x)
    assert f1 == f2
    assert f1.D.leading() == ctx.one
    z = CurveFunction(E, 0, 0, x)
    assert z.is_zero() and z.D == Poly.one(ctx)


def test_y_squared_reduces():
    E = WeierstrassCurve.ordinary(GF(3), 5)
    Y = coordinate_y(E)
    X = coordinate_x(E)
    lhs = Y * Y
    rhs = (E.a1 * X + E.a3) * Y + (X + E.a2) * X * X + E.a4 * X + E.a6
    assert lhs == rhs


def test_pointwise_oracle():
    E = WeierstrassCurve.ordinary(GF(4), 11)
    rng = random.Random(5)
    fs = [_random_function(E, rng) for _ in range(6)]
    pts = [E.random_point(rng) for _ in range(10)]
    for f, g in zip(fs, fs[1:]):
        s = f + g
        p = f * g
        q = f / g
        for P in pts:
            fv = f.evaluate(P)
            gv = g.evaluate(P)
            if fv is INFINITY or gv is INFINITY:
                continue
            assert s.evaluate(P) == fv + gv
            assert p.evaluate(P) == fv * gv
            if gv != E.ctx.zero and q.evaluate(P) is not INFINITY:
                assert q.evaluate(P) == fv / gv


def test_conjugate_and_norm():
    E = WeierstrassCurve.supersingular(4)
    rng = random.Random(9)
    f = _random_function(E, rng)
    c = f.conjugate()
    prod = f * c
    assert prod.B.is_zero()
    for _ in range(6):
        P = E.random_point(rng)
        v = f.evaluate(P)
        w = c.evaluate(-P)
        if v is INFINITY or w is INFINITY:
            continue
        assert v == w  # conjugation is composition with negation


def test_inverse_roundtrip():
    E = WeierstrassCurve.supersingular(3)
    rng = random.Random(13)
    f = _random_function(E, rng)
    assert (f * f.inverse()).constant_value() == E.ctx.one


def test_degree_of_coordinates():
    E = WeierstrassCurve.supersingular(4)
    assert coordinate_x(E).degree() == 2
    assert coordinate_y(E).degree() == 3
    assert CurveFunction.constant(E, 5).degree() == 0
    X = coordinate_x(E)
    Y = coordinate_y(E)
    # div(Y/X) = 2((0,0)) - ((0,1)) - (O): degree 2
    assert (Y / X).degree() == 2


# ---------------------------------------------------------------------------
# Miller functions


def test_miller_three_torsion_is_y():
    E = WeierstrassCurve.supersingular(2)
    P = E.point(0, 0)
    f = miller_function(P, 3)
    assert f == coordinate_y(E)


def test_miller_divisor_via_fibers():
    for n in (3, 5):
        curve, P, _Q = torsion_basis(n)
        f = miller_function(P, n)
        assert f.degree() == n
        zeros = fiber(f, curve.ctx.zero)
        assert zeros == [(P, n)]
        poles = fiber(f, INFINITY)
        assert poles == [(curve.infinity(), n)]


def test_miller_rejects_non_torsion_multiple():
    curve, P, _Q = torsion_basis(5)
    with pytest.raises(ValueError):
        miller_function(P, 3)


def test_miller_intermediate_divisor():
    # for n*P != O the accumulator's divisor is n(P) - (nP) - (n-1)(O)
    curve, P, _Q = torsion_basis(5)
    f, T = _miller_accumulate(P, 3)
    assert T == 3 * P
    assert f.degree() == 3
    zeros = fiber(f, curve.ctx.zero)
    assert zeros == [(P, 3)]
    poles = dict(fiber(f, INFINITY))
    assert poles == {3 * P: 1, curve.infinity(): 2}


def reference_miller_accumulate(P, n):
    """The division route: after each line, f is divided by the vertical
    function X - x(T) through the new multiple T (1 at the origin)."""
    E = P.curve

    def vertical(S):
        if S.is_infinity():
            return CurveFunction.constant(E, 1)
        return CurveFunction(E, Poly(E.ctx, [S.xy[0], 1]))

    f = CurveFunction.constant(E, 1)
    T = P
    for bit in bin(n)[3:]:
        line = _line_through(T, T)
        T = T + T
        f = f * f * line / vertical(T)
        if bit == "1":
            line = _line_through(T, P)
            T = T + P
            f = f * line / vertical(T)
    return f


def _ordinary_pool_points():
    """(n, P) for the ordinary `ramify` argvs of the benchmark's pool."""
    out = []
    for argv in _pool_ramify_argvs():
        if "--ordinary" in argv:
            opt = dict(zip(argv[1::2], argv[2::2]))
            t = GF(int(opt["--field"])).from_hex(opt["--ordinary"])
            n = int(opt["--order"])
            out.append((n, ordinary_torsion_point(t, n, 0)[1]))
    return out


def test_miller_matches_the_division_route():
    # every multiple m <= n of the torsion_basis point, whose accumulator
    # ends at mP, and the ordinary points the benchmark certifies: the
    # normalised (A + BY)/D is unique, so A, B and D agree exactly
    cases = [(torsion_basis(n)[1], n, range(1, n + 1))
             for n in range(3, 14, 2)]
    ordinary = _ordinary_pool_points()
    assert len(ordinary) == 9
    cases += [(P, n, [n]) for n, P in ordinary]
    for P, n, multiples in cases:
        for m in multiples:
            f, T = _miller_accumulate(P, m)
            ref = reference_miller_accumulate(P, m)
            assert T == m * P, (P, m)
            assert (f.A, f.B, f.D) == (ref.A, ref.B, ref.D), (P, m)
        assert miller_function(P, n) == reference_miller_accumulate(P, n)


def test_base_change_to_its_own_field_is_the_same_function():
    E = WeierstrassCurve.supersingular(3)
    f = CurveFunction(E, Poly(E.ctx, [5, 1]), Poly.one(E.ctx), Poly.x(E.ctx))
    assert f.base_change(f.curve.ctx) is f
    big = f.base_change(GF(6))
    assert big.curve.ctx is GF(6) and big.curve == E.base_change(GF(6))


def reference_line(P, Q):
    # the chord-and-tangent line on FieldElements, as _line_through once
    # built it
    E = P.curve
    ctx = E.ctx
    if P.x == Q.x and (P != Q or P.y == Q.y + E.h(P.x)):
        return CurveFunction(E, Poly(ctx, [P.x, ctx.one]), 0, 1)
    if P == Q:
        lam = (P.x * P.x + E.a4 + E.a1 * P.y) / E.h(P.x)
    else:
        lam = (P.y + Q.y) / (P.x + Q.x)
    nu = P.y + lam * P.x
    return CurveFunction(E, Poly(ctx, [nu, lam]), Poly.one(ctx), 1)


def _check_line(P, Q):
    # the line matches the reference, and its zeros are exactly P, Q and
    # -(P+Q), with multiplicity, the origin left out
    label = (P.curve, P, Q)
    line = _line_through(P, Q)
    assert line == reference_line(P, Q), label
    zeros = [R for R in (P, Q, -(P + Q)) if not R.is_infinity()]
    for R in zeros:
        assert line.evaluate(R) == 0, label
    assert dict(fiber(line, 0)) == Counter(zeros), label


def _general_curve(ctx, rng):
    """A smooth curve with every a_i drawn at random."""
    while True:
        try:
            return WeierstrassCurve(ctx, *(ctx.random(rng) for _ in range(5)))
        except ValueError:
            continue


@pytest.mark.parametrize("d", [3, 8, 13])
def test_line_through_matches_the_fieldelement_formulas(d):
    # general curves (every a_i random) reach the chord, the tangent and
    # the vertical line through P and -P
    rng = random.Random(70 + d)
    for E in (_general_curve(GF(d), rng) for _ in range(2)):
        pts = [E.random_point(rng) for _ in range(4)]
        for P in pts:
            for Q in pts + [-P]:
                _check_line(P, Q)


@pytest.mark.parametrize("d, t", [(3, 5), (8, 0x1d), (13, 2)])
def test_line_through_two_torsion_is_vertical(d, t):
    # (0, 0) on Y^2 + XY = X^3 + tX: h(0) = 0, so its tangent is X
    E = WeierstrassCurve.ordinary(GF(d), t)
    P = E.point(0, 0)
    assert _line_through(P, P) == coordinate_x(E)
    _check_line(P, P)


# ---------------------------------------------------------------------------
# ramification


def test_x_map_wild_at_origin():
    E = WeierstrassCurve.supersingular(3)
    X = coordinate_x(E)
    O = E.infinity()
    assert ramification_index(X, O) == 2
    assert different_exponent(X, O) == 4
    # affine points are unramified: h = 1 never vanishes
    P = E.point(0, 0)
    assert ramification_index(X, P) == 1


def test_y_map_profile_on_supersingular():
    # Y is the 3-torsion cover: branch values 0, 1, infinity, each totally
    # ramified with e = 3 and tame different 2; the global sum is 2*3
    E = WeierstrassCurve.supersingular(2)
    Y = coordinate_y(E)
    prof = ramification_profile(Y, [0, 1, INFINITY])
    zero, one = E.ctx.zero, E.ctx.one
    assert prof[zero] == [(E.point(0, 0), 3, 2)]
    assert prof[one] == [(E.point(0, 1), 3, 2)]
    assert prof[INFINITY] == [(E.infinity(), 3, 2)]


def test_profile_falsified_on_wrong_claim():
    E = WeierstrassCurve.supersingular(2)
    Y = coordinate_y(E)
    with pytest.raises(ProfileFalsified) as exc:
        ramification_profile(Y, [0, INFINITY])  # misses the branch value 1
    report = exc.value.report
    assert report["required_total"] == 6
    found = {v.bits for (_q, v, _e) in report["extra_ramification"]
             if v is not INFINITY}
    assert 1 in found
    # the x-map of an ordinary curve also ramifies at the two-torsion point,
    # which only the root of h reveals: dX/dX = 1 has no critical point
    E = WeierstrassCurve.ordinary(GF(4), 9)
    with pytest.raises(ProfileFalsified) as exc:
        ramification_profile(coordinate_x(E), [INFINITY])
    assert exc.value.report["extra_ramification"] == [
        (E.point(0, 0), E.ctx.zero, 2)]


def test_x_map_profile():
    E = WeierstrassCurve.supersingular(2)
    X = coordinate_x(E)
    prof = ramification_profile(X, [INFINITY])
    assert prof[INFINITY] == [(E.infinity(), 2, 4)]


def test_fiber_escape():
    # over GF(2^3) some values of X^3 + x have no rational preimage on the
    # curve; the fiber certifier must refuse rather than undercount
    E = WeierstrassCurve.supersingular(3)
    X = coordinate_x(E)
    escaped = False
    for c in E.ctx.elements():
        try:
            pts = fiber(X, c)
        except FiberEscapeError as err:
            escaped = True
            assert err.leftover == 2
            continue
        assert sum(e for _p, e in pts) == 2
    assert escaped


def test_fiber_reads_an_int_value_as_field_bits():
    # as _fiber_poly and ramification_profile read it
    E = WeierstrassCurve.supersingular(4)
    Y = coordinate_y(E)
    want = fiber(Y, E.ctx(6))
    assert len(want) == 3
    assert fiber(Y, 6) == want


def test_function_reads_an_int_operand_as_a_gf2_scalar():
    # as FieldElement, Poly and Series do; constructors keep reading field bits
    E = WeierstrassCurve.supersingular(4)
    X = coordinate_x(E)
    P = E.random_point(random.Random(1))
    zero = CurveFunction.constant(E, 0)
    for c in range(8):
        assert (X + c).expand(P, 2) == X.expand(P, 2) + c
        assert X + c == (X + 1 if c & 1 else X)
        assert X * c == (X if c & 1 else zero)
    assert CurveFunction.constant(E, 6).constant_value() == E.ctx(6)
    assert CurveFunction(E, 6).constant_value() == E.ctx(6)
    # every operand type reads an int as its image in GF(2), on either side,
    # and refuses an element of another context with one message
    ctx, foreign = E.ctx, GF(8)(3)
    a = ctx(0b1011)
    for v in (a, Poly(ctx, [a, 1, 0b110]), X.expand(P, 4),
              X + coordinate_y(E) * a):
        for c in range(-2, 8):
            g = ctx(c & 1)
            assert v + c == v + g and c + v == g + v, (v, c)
            assert v - c == v - g and c - v == g - v, (v, c)
            assert v * c == v * g and c * v == g * v, (v, c)
        for op in (lambda: v + foreign, lambda: foreign + v,
                   lambda: v * foreign, lambda: foreign * v):
            with pytest.raises(ValueError) as err:
                op()
            assert str(err.value) == "operands live in different field contexts"


def test_fiber_poly_holds_the_fiber_x_coordinates():
    # D at INFINITY; an int value coerces into the context; every affine
    # point of a fiber is a root; a function that is identically the value
    # has no fiber polynomial
    E = WeierstrassCurve.supersingular(4)
    rng = random.Random(17)
    f = _random_function(E, rng)
    assert _fiber_poly(f, INFINITY) == f.D
    assert _fiber_poly(f, 1) == _fiber_poly(f, E.ctx.one)
    assert _fiber_poly(f, 0) == f.norm_numerator()
    for _ in range(12):
        P = E.random_point(rng)
        if not P.is_infinity():
            assert not _fiber_poly(f, f.evaluate(P))(P.x), P
    with pytest.raises(ValueError):
        _fiber_poly(CurveFunction.constant(E, 5), 5)


def test_fiber_point_over_a_root_of_the_denominator():
    # f = (tangent at Q) / (X - x(Q)) has divisor (Q) + (-2Q) - (-Q) - (O):
    # a zero at Q, where D vanishes too, which the norm alone finds
    rng = random.Random(29)
    checked = 0
    for d in (3, 5, 8):
        E = _general_curve(GF(d), rng)
        points = [E.point(x, y) for x in E.ctx.elements()
                  for y in E.fiber_y(x)]
        for Q in [Q for Q in points if not (3 * Q).is_infinity()
                  and not (2 * Q).is_infinity()][:6]:
            f = _line_through(Q, Q) / (coordinate_x(E) + Q.x)
            assert not f.D(Q.x), Q
            assert not _fiber_poly(f, 0)(Q.x), Q
            assert dict(fiber(f, 0)) == {Q: 1, -(2 * Q): 1}, Q
            checked += 1
    assert checked == 18


def test_ramification_of_two_torsion_x_map():
    # on an ordinary curve X ramifies wildly at the two-torsion point
    E = WeierstrassCurve.ordinary(GF(4), 9)
    X = coordinate_x(E)
    R = E.point(0, 0)
    assert ramification_index(X, R) == 2
    d_R = different_exponent(X, R)
    O = E.infinity()
    assert ramification_index(X, O) == 2
    d_O = different_exponent(X, O)
    assert d_R + d_O == 4  # Riemann-Hurwitz for the degree-2 x-map


def test_profile_passes_the_fiber_value(monkeypatch):
    import lame2.funcfield as ff
    seen = []
    real = ff._local_datum

    def spy(func, value, place, s=None):
        seen.append(value)
        return real(func, value, place, s)

    monkeypatch.setattr(ff, "_local_datum", spy)
    E = WeierstrassCurve.supersingular(2)
    ramification_profile(coordinate_y(E), [0, 1, INFINITY])
    assert seen == [E.ctx.zero, E.ctx.one, INFINITY]


def reference_expand_shifted(func, value, place, prec):
    """The series of func - value rebuilt as a function and expanded, or of
    1/func at a pole: the route _expand_shifted replaced.  The value is read
    into the context, as fiber reads it."""
    if value is INFINITY:
        return func.inverse().expand(place, prec)
    return (func + func.curve.ctx(value)).expand(place, prec)


def _over_its_field(rep):
    """(function, profile) of a cover_profile report, the function base
    changed to the field its third fiber was listed in."""
    return rep["function"].base_change(GF(rep["field_degree"])), rep["profile"]


def _certified_cover(P, n):
    """(function, profile) as cover_profile(P, n) certified them."""
    return _over_its_field(cover_profile(P, n))


def _ramify_covers():
    """The covers `ramify` certifies for n = 3, 5, 7, 9 (seed 0) and for
    `ramify --order 5 --ordinary 1 --field 3`."""
    points = [(torsion_basis(n, 0)[1], n) for n in (3, 5, 7, 9)]
    points.append((ordinary_torsion_point(GF(3).from_hex("1"), 5, 0)[1], 5))
    return [(n, *_certified_cover(P, n)) for P, n in points]


def test_shifted_series_matches_the_rebuilt_function():
    # both windows the certificate asks for: e <= n and d <= 2n
    checked = 0
    for n, f, profile in _ramify_covers():
        for value, fib in profile.items():
            for Q, _e, _d in fib:
                for prec in (n + 1, 2 * n + 2):
                    s = _expand_shifted(f, value, Q, prec)
                    assert s.prec >= prec
                    assert s == reference_expand_shifted(f, value, Q, prec)
                    checked += 1
    assert checked >= 2 * 5 * 3
    # an int value is field bits, as fiber and _fiber_poly read it, not a
    # GF(2) scalar as func + value reads it
    E = WeierstrassCurve.supersingular(4)
    X, P = coordinate_x(E), E.point(0, 0)
    assert (_expand_shifted(X, 3, P, 4)
            == reference_expand_shifted(X, 3, P, 4)
            == X.expand(P, 4) + E.ctx(3))


def test_local_expand_at_a_pole_has_a_negative_valuation():
    # f has its n-fold pole at the origin and 1/f at P; Y has a triple pole
    # at the origin
    for n, f, profile in _ramify_covers():
        E = f.curve
        (P, e, _d), = profile[E.ctx.zero]
        assert e == n
        cases = [(f, E.infinity(), n), (f.inverse(), P, n),
                 (coordinate_y(E), E.infinity(), 3)]
        for g, Q, pole in cases:
            for m in range(1, 13):
                s = local_expand(g, Q, m)
                assert s == g.expand(Q, m)
                assert s.valuation() == -pole
                # both inverses are known through t^(m-1) at least; == reads
                # the shorter window
                assert s.inverse() == g.inverse().expand(Q, m)


def _inverse_builds(monkeypatch):
    """A list that gains one entry per CurveFunction built inside inverse."""
    built, inside = [], []
    real_init, real_inverse = CurveFunction.__init__, CurveFunction.inverse

    def init(self, *args, **kw):
        if inside:
            built.append(args)
        real_init(self, *args, **kw)

    def inverse(self):
        inside.append(self)
        try:
            return real_inverse(self)
        finally:
            inside.pop()

    monkeypatch.setattr(CurveFunction, "__init__", init)
    monkeypatch.setattr(CurveFunction, "inverse", inverse)
    return built


def test_one_inverse_per_function(monkeypatch):
    # two poles above x = 1 (2 inverses when each pole built its own), and
    # a wild pole whose different needs the wider window (2 when widening
    # rebuilt 1/f); 1/X at (0, 0) has the different of X there
    E = WeierstrassCurve.supersingular(4)
    f = CurveFunction(E, 1, 0, Poly(E.ctx, [1, 0, 1]))  # 1/(X + 1)^2
    E2 = WeierstrassCurve.ordinary(GF(3), 5)
    R = E2.point(0, 0)
    g = CurveFunction(E2, 1, 0, Poly.x(E2.ctx))  # 1/X
    want = different_exponent(coordinate_x(E2), R)
    built = _inverse_builds(monkeypatch)
    assert [e for _Q, e in fiber(f, INFINITY)] == [2, 2]
    assert len(built) == 1
    built.clear()
    assert different_exponent(g, R) == want > 1
    assert len(built) == 1
    assert g.inverse() is g.inverse()
    assert len(built) == 1


def test_profile_builds_functions_only_for_the_pole_fiber(monkeypatch):
    # f - c is f's series shifted by c, so the only function built is 1/f
    # at the origin, whose one series gives the index and the different
    f, profile = _certified_cover(torsion_basis(7, 0)[1], 7)
    built = []
    real = CurveFunction.__init__

    def counting(self, *args, **kw):
        built.append(args)
        real(self, *args, **kw)

    monkeypatch.setattr(CurveFunction, "__init__", counting)
    assert ramification_profile(f, list(profile)) == profile
    assert len(built) == 1


# ---------------------------------------------------------------------------
# expansion windows


def _power(f, k):
    out = CurveFunction.constant(f.curve, 1)
    for _ in range(k):
        out = out * f
    return out


def test_high_order_denominator_is_not_read_as_zero():
    # D = X^42 vanishes to order 42 at (0, 0); the quotient is
    # (Y / X^3)^14 = (1 + t^3 + ...)^14 = 1 + t^6 + ..., so f(Q) = 1, e = 6
    E = WeierstrassCurve.supersingular(GF(2))
    X = coordinate_x(E)
    Y = coordinate_y(E)
    f = _power(Y, 14) / _power(X, 42)
    Q = E.point(0, 0)
    assert f.evaluate(Q) == E.ctx.one
    assert ramification_index(f, Q) == 6


def test_value_at_origin_needs_a_window_through_t0():
    ctx = GF(3)
    assert Series(ctx, 1, []).value_at_origin() == ctx.zero
    with pytest.raises(PrecisionError):
        Series(ctx, 0, []).value_at_origin()


def test_expand_delivers_the_window_it_is_asked_for():
    # affine, two-torsion (t = Y - y0) and origin places, with D vanishing
    # there to several orders; every window agrees with a wider one
    rng = random.Random(17)
    for E in (WeierstrassCurve.supersingular(3),
              WeierstrassCurve.ordinary(GF(3), 3)):
        X = coordinate_x(E)
        places = [E.infinity(), E.point(0, E.fiber_y(E.ctx.zero)[0]),
                  E.random_point(rng)]
        for Q in places:
            funcs = [X, coordinate_y(E)]
            if not Q.is_infinity():
                line = X + Q.x
                funcs += [_random_function(E, rng, deg=2) / _power(line, k)
                          for k in (1, 3)]
            funcs.append(_random_function(E, rng, deg=3) / _power(X + 1, 2))
            for f in funcs:
                for prec in (1, 2, 5, 9):
                    s = f.expand(Q, prec)
                    assert s.prec >= prec
                    assert s == f.expand(Q, prec + 12)


def test_short_window_at_a_wild_point_raises():
    # the wild third point of `ramify --order 5 --ordinary 1 --field 3`
    _curve, P, _k = ordinary_torsion_point(GF(3).from_hex("1"), 5, 0)
    rep = cover_profile(P, 5)
    shifted = rep["function"] + rep["third_value"]
    Q, e, d = rep["third_point"], rep["index"], rep["different_exponent"]
    assert (e, d) == (2, 2)
    for w in range(1, 2 * 5 + 3):
        s = shifted.expand(Q, w)
        assert s.prec == w  # the cover has no affine pole: no slack
        if w <= e:
            with pytest.raises(PrecisionError):
                s.valuation()
        else:
            assert s.valuation() == e
        if w <= d + 1:
            with pytest.raises(PrecisionError):
                s.deriv().valuation()
        else:
            assert s.deriv().valuation() == d


# ---------------------------------------------------------------------------
# windows sized by the fact they prove, against the full-window routes


def reference_evaluate(func, place):
    """func(Q) with expand(place, 1) at the origin and where D vanishes."""
    if not place.is_infinity():
        dx = func.D(place.x)
        if dx:
            return (func.A(place.x) + func.B(place.x) * place.y) / dx
    s = func.expand(place, 1)
    if s.coeffs and s.val < 0:
        return INFINITY
    return s.value_at_origin()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 10), deg=st.integers(0, 3), with_y=st.booleans(),
       seed=st.integers(0, 10 ** 6))
def test_origin_rule_matches_the_series_route(d, deg, with_y, seed):
    # the degrees of A, B and D against an expansion at the origin, for a
    # random function on a general curve and its inverse, B = 0 unless with_y
    rng = random.Random(seed)
    E = _general_curve(GF(d), rng)
    func = _random_function(E, rng, deg)
    if not with_y:
        func = CurveFunction(E, func.A, 0, func.D)
    if func.is_zero():
        return
    O = E.infinity()
    for g in (func, func.inverse()):
        assert g._origin_valuation() == g.expand(O, 1).valuation(), g
        assert g.evaluate(O) == reference_evaluate(g, O), g


def reference_fiber(func, value):
    """fiber with every point expanded through t^n, n = deg func."""
    E = func.curve
    n = func.degree()
    if value is not INFINITY:
        value = E.ctx(value)
    points = [E.point(r, y0) for r, _m in poly_roots(_fiber_poly(func, value))
              for y0 in E.fiber_y(r)]
    hits = [(Q, _expand_shifted(func, value, Q, n + 1).valuation())
            for Q in points + [E.infinity()]
            if reference_evaluate(func, Q) == value]
    total = sum(e for _Q, e in hits)
    if total != n:
        raise FiberEscapeError(f"fiber accounts for {total} of {n} sheets",
                               leftover=n - total)
    return hits


def reference_different_exponent(func, place, value):
    """d with s expanded through t^(2n+1), the Riemann-Hurwitz bound."""
    s = _expand_shifted(func, value, place, 2 * func.degree() + 2)
    assert s.valuation() >= 1
    return s.deriv().valuation()


def _check_routes(func, profile, label):
    """fiber, different_exponent and evaluate against their references over
    every certified fiber, and e <= m, the root multiplicity of x(Q) in
    _fiber_poly, at every affine point over a finite value."""
    E = func.curve
    for value, entries in profile.items():
        assert fiber(func, value) == reference_fiber(func, value), label
        if value is not INFINITY:
            mult = {r.bits: m
                    for r, m in poly_roots(_fiber_poly(func, value))}
        for Q, e, d in entries:
            assert different_exponent(func, Q) == d \
                == reference_different_exponent(func, Q, value), label
            if value is not INFINITY and not Q.is_infinity():
                assert e <= mult[Q.x.bits], label
            for g in (func, func.inverse()):
                assert g.evaluate(Q) == reference_evaluate(g, Q), label
    O = E.infinity()
    for g in (func, func.inverse(), func + func.curve.ctx.one,
              coordinate_y(E)):
        assert g.evaluate(O) == reference_evaluate(g, O), label


def _pool_ramify_argvs():
    """The 40 `ramify` argvs of the benchmark's pool."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for argv in workloads.pool() if argv[0] == "ramify"]


def _counted_cover(P, n):
    """(cover_profile(P, n), calls): calls counts its poly_roots,
    _distinct_degree and ramification_profile calls, spied on under every
    name funcfield and lame bind them to."""
    import lame2.funcfield as ff
    import lame2.gf2 as gf2
    import lame2.lame as lame
    calls = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((gf2, "poly_roots"), (gf2, "_distinct_degree"),
                            (ff, "ramification_profile")):
            counted = spy(owner, name)
            for module in (ff, lame):
                mp.setattr(module, name, counted, raising=False)
        return cover_profile(P, n), calls


@pytest.fixture(scope="module")
def ramify_pool_covers():
    """(argv, report, calls) for every cover the 40 `ramify` argvs of the
    benchmark's pool certify, as run through the CLI (_counted_cover)."""
    import lame2.cli as cli
    covers = []

    def certify(P, n):
        covers.append(_counted_cover(P, n))
        return covers[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "cover_profile", certify)
        for argv in _pool_ramify_argvs():
            assert cli.run(argv)[0] == 0, argv
            covers[-1] = (" ".join(argv), *covers[-1])
    return covers


def test_tame_ramify_certifies_the_first_point_of_torsion_basis():
    # the zero fiber of f_P is P alone, so the report names its point
    import lame2.cli as cli
    tame = [argv for argv in _pool_ramify_argvs() if "--ordinary" not in argv]
    assert len(tame) == 31  # 30 drawn seeds, and `ramify --order 13`
    for argv in tame:
        flags = dict(zip(argv[1::2], map(int, argv[2::2])))
        n, seed = flags["--order"], flags.get("--seed", 0)
        doc = json.loads(cli.run(argv)[1])
        P = torsion_basis(n, seed)[1]
        P = P.curve.lift_point(P, GF(doc["field_degree"]))
        zero = [fib["points"] for fib in doc["profile"]
                if fib["value"] == P.curve.ctx.zero.to_json()]
        assert zero == [[{"point": P.to_json(), "e": n, "d": n - 1}]], argv


def test_routes_match_their_references_on_the_pool(ramify_pool_covers):
    assert len(ramify_pool_covers) == 40
    for label, rep, _calls in ramify_pool_covers:
        _check_routes(*_over_its_field(rep), label)


def reference_cover_profile(rep):
    """The route cover_profile replaced: all three fibers listed and
    certified by ramification_profile over the report's field."""
    big = GF(rep["field_degree"])
    return ramification_profile(rep["function"].base_change(big),
                                [big.zero, embed(rep["third_value"], big),
                                 INFINITY])


def test_cover_profile_matches_the_three_fiber_route(ramify_pool_covers):
    # the zero and pole fibers come from the divisor, and the third fiber is
    # listed by its places over P's field from one distinct-degree
    # factorisation, so each cover makes no poly_roots call (one, for the
    # third fiber over the splitting field, before) and no
    # ramification_profile call; the route that listed all three fibers is
    # the reference, in order as well as in content
    covers = list(ramify_pool_covers)
    for n in range(3, 14, 2):
        for seed in range(6):
            covers.append((f"torsion_basis(n={n}, seed={seed})",
                           *_counted_cover(torsion_basis(n, seed)[1], n)))
    assert len(covers) == 40 + 36
    for label, rep, calls in covers:
        assert calls == {"_distinct_degree": 1}, label
        assert list(rep["profile"].items()) \
            == list(reference_cover_profile(rep).items()), label


def test_base_change_carries_the_degree_it_would_recompute(
        ramify_pool_covers):
    # the degree of a map to P^1 does not change under base change, so the
    # one computed over the base field is carried to the extension; a fresh
    # function on the same A, B and D recomputes it there
    E = WeierstrassCurve.supersingular(3)
    cases = [(CurveFunction(E, Poly(E.ctx, [5, 1]), Poly.one(E.ctx),
                            Poly.x(E.ctx)), 2)]
    cases += [(miller_function(torsion_basis(n)[1], n), k)
              for n in range(3, 14, 2) for k in (2, 3)]
    for f, k in cases:
        big = f.base_change(GF(f.curve.ctx.degree * k))
        fresh = CurveFunction(big.curve, big.A, big.B, big.D)
        assert big._degree == fresh.degree() == f.degree(), (f, k)
    for label, rep, _calls in ramify_pool_covers:
        func, _profile = _over_its_field(rep)
        fresh = CurveFunction(func.curve, func.A, func.B, func.D)
        assert func.degree() == fresh.degree(), label


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([3, 5, 7, 9]), seed=st.integers(0, 10 ** 6))
def test_routes_match_their_references_on_drawn_covers(n, seed):
    func, profile = _certified_cover(torsion_basis(n, seed)[1], n)
    _check_routes(func, profile, f"torsion_basis(n={n}, seed={seed})")


# ---------------------------------------------------------------------------
# fibers against enumeration


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 10), deg=st.integers(0, 2), with_y=st.booleans(),
       seed=st.integers(0, 10 ** 6))
def test_fiber_matches_enumeration(d, deg, with_y, seed):
    # a random function (A + BY)/D on a random curve, B = 0 unless with_y,
    # over the value it takes at a random point of E(F_(2^d)), the origin
    # included; the fiber is every such point where the function takes
    # that value, and e comes from the expansion through t^n, n = deg func
    label = f"d={d}, deg={deg}, with_y={with_y}, seed={seed}"
    rng = random.Random(seed)
    E = _general_curve(GF(d), rng)
    func = _random_function(E, rng, deg)
    if not with_y:
        func = CurveFunction(E, func.A, 0, func.D)
    n = func.degree()
    if n == 0:
        return
    points = [E.infinity()] + [E.point(x, y) for x in E.ctx.elements()
                               for y in E.fiber_y(x)]
    value = func.evaluate(rng.choice(points))
    sheets = {Q: _expand_shifted(func, value, Q, n + 1).valuation()
              for Q in points if func.evaluate(Q) == value}
    try:
        hits = fiber(func, value)
    except FiberEscapeError as err:
        assert sum(sheets.values()) == n - err.leftover < n, label
        return
    assert dict(hits) == sheets, label
    assert sum(sheets.values()) == n, label


def test_wild_points_widen_to_the_riemann_hurwitz_window():
    # the x-maps have degree n = 2 and d > n - 1 at their wild points, so
    # ds/dt vanishes through t^(n-1) and d comes from the wider window
    for E, values in ((WeierstrassCurve.supersingular(2), [INFINITY]),
                      (WeierstrassCurve.ordinary(GF(4), 9),
                       [GF(4).zero, INFINITY])):
        X = coordinate_x(E)
        profile = ramification_profile(X, values)
        assert all(d > 1 for fib in profile.values() for _Q, _e, d in fib)
        _check_routes(X, profile, repr(E))


# `perfbench/run.py --workload covers --seed 1`: six tame and three wild
# covers, the argvs of one pass
COVERS_SEED_1 = [argv.split() for argv in (
    "ramify --order 7 --ordinary 5 --field 4",
    "ramify --order 13 --seed 4",
    "ramify --order 7 --seed 0",
    "ramify --order 11 --seed 0",
    "ramify --order 5 --ordinary 1 --field 3",
    "ramify --order 3 --seed 1",
    "ramify --order 3 --ordinary d --field 5",
    "ramify --order 5 --seed 5",
    "ramify --order 9 --seed 3",
)]


def test_expansion_windows_pinned(monkeypatch):
    # xy_expansion calls and the sum of their windows over one pass, run in
    # one process: one expansion through t^n per multiple root, origin and
    # pole gives both e and d; expanding every fiber point through t^n,
    # every ramified one again through t^(2n+1) and the origin's value
    # through t^(n+1) made 120 calls with windows summing to 1,110, and
    # expanding multiple roots through t^m, then ramified points again for
    # the different, made 82 summing to 308; listing the zero and pole
    # fibers too, each reading the origin's value through t^1, made 55
    # summing to 203, before the divisor certified those fibers; and reading
    # the origin's value in the third fiber through t^1 and the pole's
    # (e, d) from 1/f through t^1, before the degrees of A, B and D gave
    # both, made 37 summing to 167
    import lame2.funcfield as ff
    from lame2.cli import run
    windows = []
    real = ff.xy_expansion

    def counting(curve, place, prec):
        windows.append(prec)
        return real(curve, place, prec)

    monkeypatch.setattr(ff, "xy_expansion", counting)
    for argv in COVERS_SEED_1:
        assert run(argv)[0] == 0, argv
    assert (len(windows), sum(windows)) == (19, 131)


def test_root_finding_counts_pinned(monkeypatch):
    # packed-row operations, gcds, function constructions and inverses and
    # on-curve point checks over one pass with cold embeddings; reducing
    # every row mod every factor after each split, d rows for the conjugate
    # roots and a second 1/f per pole fiber made 1,258 squares, 3,329
    # reductions, 3,472 scalar-product passes and 702 gcds; dividing each
    # Miller step by a vertical function and each cover by a constant one
    # made 684 gcds, 227 constructions and 50 inverses; a gcd taken with a
    # constant denominator made 492 gcds, lifting points to their own
    # field made 133 point checks, and splitting one root off each whole
    # subfield modulus, before a gcd per maximal subfield cut out the
    # compatible roots, made 634 squares, 143 trials, 266 gcds, 1,101
    # reductions and 1,214 scalar-product passes; listing the zero and
    # pole fibers in the splitting field, before the divisor certified
    # them in the point's own field, made 599 squares, 290 gcds, 1,077
    # reductions, 1,182 scalar-product passes and 121 point checks; and
    # reducing the embedding rows, already built mod g, a second time in
    # _split_linear made 847 reductions and 952 scalar-product passes; and
    # building 1/f for each cover's pole certificate, before the degrees of
    # A, B and D gave v_O(f), made 9 inverses, 131 constructions and 281
    # gcds (two per construction); and splitting the third fiber's norm
    # over the splitting field, after factoring it over P's field, and
    # listing both points over each root, made 403 squares, 795
    # reductions, 900 scalar-product passes, 263 gcds, 140 trials and 115
    # point checks; and splitting the linear factors on step 1's rows mod
    # the norm, reduced mod g_1, before _orbits squared d rows mod g_1
    # itself, made 290 squares, 571 reductions and 661 scalar-product passes;
    # folding _split_linear's split tree into _orbits, which _embed_gen now
    # calls with its bound e, changed no count
    import lame2.gf2 as gf2
    from lame2.cli import run
    counts = dict.fromkeys(["square", "reduce", "dot", "gcd", "trial",
                            "__init__", "inverse", "point"], 0)

    def counting(cls, name):
        real = getattr(cls, name)

        def spy(*args):
            counts[name] += 1
            if name == "gcd" and \
                    sys._getframe(1).f_code is gf2._split_once.__code__:
                counts["trial"] += 1
            return real(*args)
        monkeypatch.setattr(cls, name, spy)

    for name in ("square", "reduce", "dot"):
        counting(gf2._Modulus, name)
    counting(gf2.Poly, "gcd")
    counting(CurveFunction, "__init__")
    counting(CurveFunction, "inverse")
    counting(WeierstrassCurve, "point")
    monkeypatch.setattr(gf2, "_EMBED_GEN", {})
    for argv in COVERS_SEED_1:
        assert run(argv)[0] == 0, argv
    assert counts == {"square": 404, "reduce": 577, "dot": 667,
                      "gcd": 237, "trial": 114, "__init__": 122,
                      "inverse": 0, "point": 87}


def test_differentiate_product_rule():
    E = WeierstrassCurve.supersingular(4)
    rng = random.Random(21)
    f = _random_function(E, rng, deg=1)
    g = _random_function(E, rng, deg=1)
    lhs = differentiate(f * g)
    rhs = differentiate(f) * g + f * differentiate(g)
    assert lhs == rhs


@pytest.mark.parametrize("d", [3, 8, 13])
def test_differentiate_on_general_curves(d):
    # dY/dX = (X^2 + a4 + a1 Y)/h read from the coefficients, and the
    # product rule, where a1 = h', a2 and a4 are nonzero
    ctx = GF(d)
    rng = random.Random(d)
    done = 0
    while done < 3:
        a1, a2, a4 = (1 + rng.randrange(ctx.order - 1) for _ in range(3))
        try:
            E = WeierstrassCurve(ctx, a1, a2, ctx.random(rng), a4,
                                 ctx.random(rng))
        except ValueError:  # singular
            continue
        X = coordinate_x(E)
        Y = coordinate_y(E)
        assert differentiate(X) == CurveFunction.constant(E, 1)
        assert differentiate(Y) * (E.a1 * X + E.a3) == \
            X * X + E.a4 + E.a1 * Y
        f, g = (_random_function(E, rng, deg=1) for _ in range(2))
        assert differentiate(f * g) == \
            differentiate(f) * g + f * differentiate(g)
        done += 1


def test_differentiate_of_x_and_y():
    E = WeierstrassCurve.supersingular(2)
    X = coordinate_x(E)
    Y = coordinate_y(E)
    assert differentiate(X) == CurveFunction.constant(E, 1)
    # dY/dX = X^2 on this curve (a4 = 0, a1 = 0, h = 1)
    assert differentiate(Y) == X * X


# ---------------------------------------------------------------------------
# local expansions


def test_local_expand_of_x_at_origin():
    E = WeierstrassCurve.supersingular(2)
    X = coordinate_x(E)
    s = local_expand(X, E.point(0, 0), 3)
    assert [s.coeff(k).bits for k in range(3)] == [0, 1, 0]
    assert s.prec == 3
    assert s.valuation() == 1


def test_local_expand_valuations():
    E = WeierstrassCurve.supersingular(2)
    X = coordinate_x(E)
    Y = coordinate_y(E)
    P = E.point(0, 0)
    O = E.infinity()
    assert local_expand(Y, P, 4).valuation() == 3
    assert local_expand(X / Y, O, 3).valuation() == 1
    pole = local_expand(Y, O, 6)
    assert pole.valuation() == -3
    assert pole.prec == 6


def test_local_expand_y_based():
    E = WeierstrassCurve.ordinary(GF(4), 2)
    X = coordinate_x(E)
    P = E.point(0, 0)
    assert _regime(E, P) == "y_based"
    assert local_expand(X, P, 5).valuation() == 2


def test_local_expand_validation():
    E = WeierstrassCurve.supersingular(2)
    X = coordinate_x(E)
    P = E.point(0, 0)
    with pytest.raises(ValueError):
        local_expand(X, P, 0)
    with pytest.raises(ValueError):
        local_expand(X, P, 65)
    with pytest.raises(ValueError):
        local_expand(CurveFunction.constant(E, 0), P, 4)


def test_local_expand_is_the_expansion_of_func():
    # affine points, the two-torsion point (uniformizer Y - y0), the origin
    # and poles, on random functions and at both window bounds
    rng = random.Random(11)
    regimes = set()
    for E in (WeierstrassCurve.supersingular(3),
              WeierstrassCurve.ordinary(GF(4), 2)):
        places = [E.infinity()] + [E.point(x, y) for x in E.ctx.elements()
                                   for y in E.fiber_y(x)]
        poles = 0
        for _ in range(6):
            f = _random_function(E, rng, deg=2)
            for Q in places:
                for m in (1, 5, 64):
                    s, ref = local_expand(f, Q, m), f.expand(Q, m)
                    assert (s.val, s.prec, s.coeffs) == \
                        (ref.val, ref.prec, ref.coeffs)
                    regimes.add(_regime(E, Q))
                    poles += bool(s.coeffs) and s.val < 0
        assert poles
    assert regimes == {"x_minus_x0", "y_based", "x_over_y_at_infinity"}


def test_local_expand_multiplicative():
    E = WeierstrassCurve.supersingular(3)
    rng = random.Random(5)
    P = E.point(0, 0)
    poles = 0
    for _ in range(8):
        f = _random_function(E, rng, deg=2)
        g = _random_function(E, rng, deg=2)
        if f.is_zero() or g.is_zero():
            continue
        for Q in (P, E.infinity()):
            a, b = local_expand(f, Q, 6), local_expand(g, Q, 6)
            # == compares through the shorter of the two windows
            assert local_expand(f * g, Q, 6) == a * b
            poles += a.valuation() < 0 or b.valuation() < 0
    assert poles


def test_function_json_format():
    E = WeierstrassCurve.supersingular(4)
    X = coordinate_x(E)
    Y = coordinate_y(E)
    rec = (Y / X).to_json()
    assert rec == {"A": [], "B": ["1"], "D": ["0", "1"], "d": 4}
