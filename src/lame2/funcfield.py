"""Function fields of binary elliptic curves, local expansions, ramification.

Every rational function on a curve E: Y^2 + h(X) Y = f(X) (with h = a1 X + a3
and f = X^3 + a2 X^2 + a4 X + a6) has a unique presentation

    (A(X) + B(X) Y) / D(X),   D monic, gcd(A, B, D) = 1,

because 1 and Y generate the coordinate ring over k[X] freely.  Arithmetic
reduces Y^2 via the curve equation; division multiplies by the conjugate
A + B h + B Y, whose product with the numerator is the Y-free norm
A^2 + A B h + B^2 f.

Places are curve points; the three local-uniformizer regimes are

* t = X - x0 at affine points with h(x0) != 0,
* t = Y - y0 at the two-torsion x-coordinates (h(x0) = 0), and
* t = X/Y at the origin of the group law,

each expanded one coefficient at a time: in characteristic 2 the curve
equation is linear in the newest coefficient, with a local unit as its
multiplier, and every expansion is certified against the curve equation
before it is returned.  Series coefficients are raw ints, as in Poly, and
the recurrences run on the context's int kernel; FieldElements appear only
at the edges (coeff, value_at_origin and scalar operands).

On top of the expansions sit the ramification index e_Q = v_Q(f - f(Q)),
the different exponent d_Q = v_t(d(f - f(Q))/dt) (poles use 1/f), and a
fiber certifier that accounts for every preimage of a claimed branch value
and balances the global different against 2 deg f, the Riemann-Hurwitz
total for a genus-one cover of the line.
"""

from __future__ import annotations

from .common import (
    INFINITY,
    FiberEscapeError,
    PrecisionError,
    ProfileFalsified,
    VerificationError,
)
from .gf2 import (FieldElement, Poly, _operand_bits, _root_multiplicity,
                  poly_roots)
from .weierstrass import CurvePoint, WeierstrassCurve, _slope


# ---------------------------------------------------------------------------
# truncated Laurent series


class Series:
    """Laurent series sum c_k t^k known for val <= k < prec.

    coeffs[i] is the bits of the coefficient of t^(val + i), a raw int as in
    Poly, and the leading coefficient is nonzero after normalization.  An
    empty coefficient tuple means the series vanishes to order prec, in
    which case its true valuation is unknown.  Coefficients are read as
    FieldElements through coeff() and value_at_origin(); scalar operands
    follow the operand rule of ``gf2._operand_bits``.
    """

    __slots__ = ("ctx", "val", "coeffs")

    def __init__(self, ctx, val, coeffs):
        self._set(ctx, val, [ctx.bits_of(c) for c in coeffs])

    def _set(self, ctx, val, cs):
        lead = next((i for i, c in enumerate(cs) if c), len(cs))
        self.ctx, self.val, self.coeffs = ctx, val + lead, tuple(cs[lead:])
        return self

    # the private constructor, for lists of reduced ints from arithmetic
    _of = classmethod(lambda cls, *args: cls.__new__(cls)._set(*args))

    @classmethod
    def uniformizer(cls, ctx, prec):
        return cls(ctx, 1, [1] + [0] * (prec - 2))

    @classmethod
    def constant(cls, c, prec):
        return cls(c.ctx, 0, [c] + [0] * (prec - 1))

    @property
    def prec(self):
        return self.val + len(self.coeffs)

    def is_zero_to_prec(self):
        return not self.coeffs

    def valuation(self):
        if not self.coeffs:
            raise PrecisionError(
                f"series vanishes to O(t^{self.val}); valuation undetermined")
        return self.val

    def _at(self, k):
        """The bits of the coefficient of t^k, 0 outside val <= k < prec."""
        i = k - self.val
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def coeff(self, k):
        if k >= self.prec:
            raise PrecisionError(f"coefficient of t^{k} beyond precision")
        return FieldElement(self.ctx, self._at(k))

    def value_at_origin(self):
        """The value at t = 0; needs no pole and a window past t^0."""
        if self.coeffs and self.val < 0:
            raise ValueError("pole at the expansion point")
        return self.coeff(0)

    def _same_context(self, other):
        if other.ctx != self.ctx:
            raise ValueError("operands live in different field contexts")

    def __add__(self, other):
        c = _operand_bits(self.ctx, other)
        if c is not None:
            # scalars are exact; they fold into the t^0 slot of this window
            if self.prec <= 0:
                return self
            lo = min(self.val, 0)
            out = [self._at(k) for k in range(lo, self.prec)]
            out[-lo] ^= c
            return Series._of(self.ctx, lo, out)
        if not isinstance(other, Series):
            return NotImplemented
        self._same_context(other)
        lo = min(self.val, other.val)
        hi = min(self.prec, other.prec)
        return Series._of(self.ctx, lo,
                          [self._at(k) ^ other._at(k) for k in range(lo, hi)])

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        """By the exact scalar 0 the product is the field zero, not a Series
        with a window, so that X + 0*Y keeps the whole window of X."""
        mul = self.ctx.mul
        c = _operand_bits(self.ctx, other)
        if c is not None:
            if not c:
                return self.ctx.zero
            return Series._of(self.ctx, self.val, [mul(a, c) for a in self.coeffs])
        if not isinstance(other, Series):
            return NotImplemented
        self._same_context(other)
        # val is a lower bound on the true valuation of each factor (it
        # equals prec when no coefficient is known), so the product is known
        # through min(p1 + v2, p2 + v1)
        out_prec = min(self.prec + other.val, other.prec + self.val)
        if not self.coeffs or not other.coeffs:
            return Series._of(self.ctx, out_prec, [])
        val = self.val + other.val
        length = out_prec - val
        out = [0] * length
        if other is self:
            # a square: in characteristic 2 the cross terms cancel in pairs
            sqr = self.ctx.sqr
            for i, a in enumerate(self.coeffs[:(length + 1) // 2]):
                out[2 * i] = sqr(a)
            return Series._of(self.ctx, val, out)
        b = other.coeffs
        for i, a in enumerate(self.coeffs[:length]):
            if a:
                for j in range(min(len(b), length - i)):
                    if b[j]:
                        out[i + j] ^= mul(a, b[j])
        return Series._of(self.ctx, val, out)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise PrecisionError("cannot invert a series with no known term")
        mul, c = self.ctx.mul, self.coeffs
        inv0 = self.ctx.inv(c[0])
        out = [inv0]
        for k in range(1, len(c)):
            acc = 0
            for i in range(1, k + 1):
                acc ^= mul(c[i], out[k - i])
            out.append(mul(acc, inv0))
        return Series._of(self.ctx, -self.val, out)

    def __truediv__(self, other):
        c = _operand_bits(self.ctx, other)
        if c is not None:
            return self * FieldElement(self.ctx, self.ctx.inv(c))
        if not isinstance(other, Series):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def deriv(self):
        return Series._of(self.ctx, self.val - 1,
                          [a if (self.val + i) & 1 else 0
                           for i, a in enumerate(self.coeffs)])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        lo = min(self.val, other.val)
        hi = min(self.prec, other.prec)
        return other.ctx == self.ctx and all(
            self._at(k) == other._at(k) for k in range(lo, hi))

    def __repr__(self):
        terms = [f"{FieldElement(self.ctx, a)!r}*t^{self.val + i}"
                 for i, a in enumerate(self.coeffs) if a]
        body = " + ".join(terms) if terms else "0"
        return f"Series({body} + O(t^{self.prec}))"


# ---------------------------------------------------------------------------
# local expansions of the coordinate functions


def _at_origin(place) -> bool:
    """Whether the place is the origin of the group law (or INFINITY)."""
    return place is INFINITY or (
        isinstance(place, CurvePoint) and place.is_infinity())


def xy_expansion(curve: WeierstrassCurve, place, prec: int):
    """(X, Y) as Laurent series in the local uniformizer at `place`.

    The uniformizer is X - x0 generically, Y - y0 where h vanishes, and X/Y
    at the origin of the group law (pass the infinite point or INFINITY).
    In characteristic 2 the t^k coefficient of the curve equation is linear
    in the k-th unknown coefficient, with a unit multiplier, so each
    coefficient is solved exactly from the ones before it.  The result is
    certified by substituting it back into the curve equation.
    """
    ctx = curve.ctx
    mul, sqr = ctx.mul, ctx.sqr
    a1, a2, a3, a4, a6 = curve.a
    t = Series.uniformizer(ctx, prec + 1)
    if _at_origin(place):
        # w = 1/Y solves w = a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3
        # + z^3 with z = t; S = w^2 has S_2i = w_i^2, and the t^k terms on
        # the right involve only w_j for j < k
        n = max(prec + 2, 4)  # w is solved through t^(n-1), at least t^3
        w, S = [0] * n, [0] * n
        for k in range(3, n):
            Sw = 0
            for i in range(6, k - 2, 2):
                Sw ^= mul(S[i], w[k - i])
            w[k] = mul(a1, w[k - 1]) ^ mul(a2, w[k - 2]) ^ mul(a3, S[k]) \
                ^ mul(a4, S[k - 1]) ^ mul(a6, Sw) ^ (k == 3)
            if 2 * k < n:
                S[2 * k] = sqr(w[k])
        Y = Series._of(ctx, 0, w).inverse()
        X = t * Y
    else:
        if place.curve != curve:
            raise ValueError("place lies on a different curve")
        x0, y0 = place.xy
        h0 = mul(a1, x0) ^ a3
        if h0:
            # t = X - x0: y_k = (f_k + [k even] y_(k/2)^2 + a1 y_(k-1)) / h0
            # with f_k the t^k coefficient of f(x0 + t)
            X = t + place.x
            f = [0, sqr(x0) ^ a4, x0 ^ a2, 1]
            inv = ctx.inv(h0)
            y = [y0]
            for k in range(1, prec + 1):
                yk = mul(a1, y[k - 1]) ^ (f[k] if k <= 3 else 0)
                if k % 2 == 0:
                    yk ^= sqr(y[k // 2])
                y.append(mul(yk, inv))
            Y = Series._of(ctx, 0, y)
        else:
            # t = Y - y0: x_k = (a1 x_(k-1) + sum_(2i+j=k, i>0) x_i^2 x_j
            # + [k=1] a3 + [k even] a2 x_(k/2)^2 + [k=2]) / u, where
            # u = x0^2 + a1 y0 + a4 = dF/dX is a unit at a smooth point
            Y = t + place.y
            inv = ctx.inv(sqr(x0) ^ mul(a1, y0) ^ a4)
            x, xsq = [x0], [sqr(x0)]
            for k in range(1, prec + 1):
                xk = mul(a1, x[k - 1])
                for i in range(1, k // 2 + 1):
                    xk ^= mul(xsq[i], x[k - 2 * i])
                if k == 1:
                    xk ^= a3
                elif k % 2 == 0:
                    xk ^= mul(a2, xsq[k // 2]) ^ (k == 2)
                x.append(mul(xk, inv))
                xsq.append(sqr(x[k]))
            X = Series._of(ctx, 0, x)
    _check_on_curve(curve, X, Y)
    return X, Y


def _check_on_curve(curve: WeierstrassCurve, X: Series, Y: Series):
    """Raise unless Y^2 + h(X) Y + f(X) vanishes through its window."""
    residual = Y * Y + curve.h(X) * Y + curve.f(X)
    if not residual.is_zero_to_prec():
        raise VerificationError(
            "local expansion does not satisfy the curve equation")


# ---------------------------------------------------------------------------
# rational functions


def _as_poly(curve, v):
    """v as a Poly over the curve's context, a constant by the constructor rule."""
    p = v if isinstance(v, Poly) else Poly(curve.ctx, [v])
    if p.ctx is not curve.ctx:
        raise ValueError("polynomial over a different context")
    return p


def _norm(curve, A, B):
    """A^2 + A B h + B^2 f, the norm of A + B Y on the curve."""
    return A * A + A * B * curve.h + B * B * curve.f


class CurveFunction:
    """A rational function (A + B Y)/D on a fixed Weierstrass curve."""

    __slots__ = ("curve", "A", "B", "D", "_degree", "_inverse")

    def __init__(self, curve: WeierstrassCurve, A, B=0, D=1):
        A = _as_poly(curve, A)
        B = _as_poly(curve, B)
        D = _as_poly(curve, D)
        if D.is_zero():
            raise ZeroDivisionError("zero denominator")
        if A.is_zero() and B.is_zero():
            D = Poly.one(curve.ctx)
        else:
            g = A.gcd(B).gcd(D) if D.degree > 0 else D  # constant D: gcd 1
            if g.degree > 0:
                A, B, D = A // g, B // g, D // g
            lead = D.leading()
            if lead != curve.ctx.one:
                A = A * (1 / lead)
                B = B * (1 / lead)
                D = D * (1 / lead)
        self.curve = curve
        self.A = A
        self.B = B
        self.D = D
        self._degree = self._inverse = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def constant(cls, curve, c):
        return cls(curve, curve.ctx(c), 0, 1)

    def base_change(self, target) -> "CurveFunction":
        """The same function viewed over an extension of the base field,
        with its degree, which as a map to P^1 survives base change."""
        if target is self.curve.ctx:
            return self
        out = CurveFunction(self.curve.base_change(target),
                            self.A.map_context(target),
                            self.B.map_context(target),
                            self.D.map_context(target))
        out._degree = self.degree()
        return out

    # -- structure -----------------------------------------------------------
    def is_zero(self):
        return self.A.is_zero() and self.B.is_zero()

    def is_constant(self):
        return self.B.is_zero() and self.D.degree == 0 and self.A.degree <= 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant function")
        return self.A.coeff(0)

    def __eq__(self, other):
        if not isinstance(other, CurveFunction):
            return NotImplemented
        return (self.curve == other.curve and self.A == other.A
                and self.B == other.B and self.D == other.D)

    def __hash__(self):
        return hash((self.curve, self.A, self.B, self.D))

    def __repr__(self):
        return f"CurveFunction(A={self.A!r}, B={self.B!r}, D={self.D!r})"

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CurveFunction):
            if other.curve != self.curve:
                raise ValueError("functions on different curves")
            return other
        c = _operand_bits(self.curve.ctx, other)
        return None if c is None else CurveFunction.constant(self.curve, c)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CurveFunction(
            self.curve,
            self.A * other.D + other.A * self.D,
            self.B * other.D + other.B * self.D,
            self.D * other.D)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        h, f = self.curve.h, self.curve.f
        A1, B1, A2, B2 = self.A, self.B, other.A, other.B
        # (A1 + B1 Y)(A2 + B2 Y) with Y^2 = h Y + f
        A = A1 * A2 + B1 * B2 * f
        B = A1 * B2 + A2 * B1 + B1 * B2 * h
        return CurveFunction(self.curve, A, B, self.D * other.D)

    __rmul__ = __mul__

    def conjugate(self):
        """Image under the hyperelliptic involution Y -> Y + h."""
        return CurveFunction(self.curve, self.A + self.B * self.curve.h,
                             self.B, self.D)

    def norm_numerator(self):
        """A^2 + A B h + B^2 f, the Y-free product numerator with the conjugate."""
        return _norm(self.curve, self.A, self.B)

    def inverse(self):
        """1/func = D (A + Bh + BY) / norm(A + BY), built once per function."""
        if self._inverse is None:
            if self.is_zero():
                raise ZeroDivisionError("inverting the zero function")
            self._inverse = CurveFunction(
                self.curve, self.D * (self.A + self.B * self.curve.h),
                self.D * self.B, self.norm_numerator())
        return self._inverse

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    # -- geometry ------------------------------------------------------------
    def degree(self) -> int:
        """Degree as a morphism to the projective line (0 for constants).

        The function T = (A + BY)/D satisfies
        D^2 T^2 + (D B h) T + (A^2 + A B h + B^2 f) = 0 over k(X); the
        minimal polynomial of X over k(T) is the primitive part of that
        relation, so the degree is the top coefficient degree minus the
        X-content.  The content is exactly the spurious locus where
        numerator and denominator vanish at the same curve points.
        Computed once per function.
        """
        if self._degree is None:
            self._degree = 0
            if not self.is_zero():
                n0 = self.norm_numerator()
                n1 = self.D * self.B * self.curve.h
                n2 = self.D * self.D
                content = n0.gcd(n1).gcd(n2)
                self._degree = (max(n0.degree, n1.degree, n2.degree)
                                - content.degree)
        return self._degree

    def evaluate(self, place):
        """Value at a point; INFINITY for poles.

        At the origin v = _origin_valuation() decides, with no series: a pole
        below 0, a zero above, and at 0 lead(A), as deg A = deg D, D is monic
        and X leads with t^-2 in t = X/Y.
        """
        if self.is_constant():
            return self.constant_value()
        if _at_origin(place):
            v = self._origin_valuation()
            if v:
                return INFINITY if v < 0 else self.curve.ctx.zero
            return self.A.leading()
        x0 = place.x
        dx = self.D(x0)
        if dx:
            return (self.A(x0) + self.B(x0) * place.y) / dx
        s = self.expand(place, 1)
        if s.coeffs and s.val < 0:
            return INFINITY
        return s.value_at_origin()

    def expand(self, place, prec: int) -> Series:
        """Laurent expansion at `place`, known at least through t^(prec-1).

        The window asked of xy_expansion is proved sufficient here, and the
        result is checked against it: a shorter one raises PrecisionError.
        Constant polynomials evaluate to exact field elements and B = 0 is
        left out, so no truncated constant shortens a window below.

        Affine place: X and Y are regular and known through t^N, where N is
        the window asked for, so the numerator A(X) + B(X) Y is regular and
        known through t^N too.  D(X) = t^v u has the exact valuation
        v = m v_Q(X - x0), m the multiplicity of x0 as a root of D, and
        v_Q(X - x0) = 1, or 2 at the two-torsion points where t = Y - y0.
        The unit u is known through t^(N-v), so 1/D(X) = t^(-v) / u is known
        through t^(N-2v), and so is its product with the regular numerator.
        N = prec - 1 + 2v leaves the quotient known through t^(prec-1).

        Origin: X and Y have the exact valuations -2 and -3 and, for N >= 2,
        N - 1 known terms each.  Sums of series with distinct valuations,
        products and inverses keep that count of known terms past the
        leading one, and A(X), B(X) Y and D(X) have the exact valuations
        -2 deg A, -2 deg B - 3 and -2 deg D (the first two differ in parity
        and cannot cancel).  So the quotient has the valuation
        v = 2 deg D - max(2 deg A, 2 deg B + 3) and N - 1 known terms, and is
        known through t^(v+N-2); N = max(2, prec + 1 - v) suffices.
        """
        if prec < 1:
            raise ValueError("precision must be positive")
        if self.is_constant():
            return Series.constant(self.constant_value(), prec)
        if _at_origin(place):
            window = max(2, prec + 1 - self._origin_valuation())
        else:
            v = _root_multiplicity(self.D, place.x)
            if not self.curve.h(place.x):
                v *= 2
            window = prec - 1 + 2 * v
        X, Y = xy_expansion(self.curve, place, window)
        num = self.A(X)
        if not self.B.is_zero():
            num = num + self.B(X) * Y
        s = num / self.D(X)
        if s.prec < prec:
            raise PrecisionError(
                f"expansion known through t^{s.prec - 1}, not t^{prec - 1}")
        return s

    def _origin_valuation(self) -> int:
        """v_O = 2 deg D - max(2 deg A, 2 deg B + 3), as expand proves."""
        pole = 2 * self.A.degree  # -2 when A = 0; then B != 0
        if not self.B.is_zero():
            pole = max(pole, 2 * self.B.degree + 3)
        return 2 * self.D.degree - pole

    def to_json(self):
        return {"A": [format(c, "x") for c in self.A.coeffs],
                "B": [format(c, "x") for c in self.B.coeffs],
                "D": [format(c, "x") for c in self.D.coeffs],
                "d": self.curve.ctx.degree}


# ---------------------------------------------------------------------------
# Miller functions


def _line_through(P: CurvePoint, Q: CurvePoint) -> CurveFunction:
    """A function with divisor (P) + (Q) + (-(P+Q)) - 3(O)."""
    if P.is_infinity() or Q.is_infinity():
        raise ValueError("lines require affine operands")
    E = P.curve
    lam = _slope(E, P.xy, Q.xy)
    x1, y1 = P.xy
    if lam is None:
        # vertical: P + Q = O (covers P = -Q, including 2-torsion doubling)
        return CurveFunction(E, Poly(E.ctx, [x1, 1]))
    return CurveFunction(E, Poly(E.ctx, [y1 ^ E.ctx.mul(lam, x1), lam]), 1)


def _miller_accumulate(P: CurvePoint, n: int):
    """(f, nP), f with divisor n(P) - (nP) - (n-1)(O); no constraint on nP.

    Double-and-add accumulation of chord lines into the numerator f, a
    polynomial in X and Y, and of the verticals X - x(T) at the new
    multiples T into the denominator D (1 at the origin); f/D is normalised
    once, and the normalised (A + BY)/D is unique.
    """
    if P.is_infinity():
        raise ValueError("the base point must be affine")
    if n < 1:
        raise ValueError("n must be positive")
    E = P.curve
    f = CurveFunction.constant(E, 1)
    D = Poly.one(E.ctx)
    T = P
    for bit in bin(n)[3:]:
        f, D = f * f, D * D
        for S in (T, P) if bit == "1" else (T,):  # double, then add P
            f = f * _line_through(T, S)
            T = T + S
            if not T.is_infinity():
                D = D * Poly(E.ctx, [T.xy[0], 1])
    return CurveFunction(E, f.A, f.B, D), T


def miller_function(P: CurvePoint, n: int) -> CurveFunction:
    """f with divisor exactly n(P) - n(O), for an n-torsion point P."""
    f, nP = _miller_accumulate(P, n)
    if not nP.is_infinity():
        raise ValueError("n*P must be the identity for a degree-n cover")
    return f


# ---------------------------------------------------------------------------
# ramification


def _expand_shifted(func: CurveFunction, value, place, prec: int) -> Series:
    """Series of func - value (or 1/func when value is INFINITY) at place.

    A constant shifts the series of func exactly, inside the window that
    expand has proved.  At a pole 1/func is expanded directly: expand
    asks xy_expansion for a narrower window for it than for func.
    """
    if value is INFINITY:
        return func.inverse().expand(place, prec)
    # subtraction is addition here
    return func.expand(place, prec) + func.curve.ctx(value)


def local_expand(func: CurveFunction, place, m: int) -> Series:
    """func.expand(place, m) for 1 <= m <= 64; a pole has valuation < 0."""
    if not 1 <= m <= 64:
        raise ValueError("precision must be between 1 and 64")
    if func.is_zero():
        raise ValueError("the zero function has no valuation")
    return func.expand(place, m)


def ramification_index(func: CurveFunction, place) -> int:
    """e = v_Q(func - func(Q)), the local degree of the cover at Q.

    e <= n = deg(func), so the expansion is needed through t^n only.
    """
    return _expand_shifted(func, func.evaluate(place), place,
                           func.degree() + 1).valuation()


def different_exponent(func: CurveFunction, place) -> int:
    """d = v_t(ds/dt) for s the pullback of a uniformizer below.

    s is func - func(Q) at finite values and 1/func at poles.  Odd (tame)
    e must give d = e - 1 or raise; even indices are wild and carry the
    extra conductor the series computes (windows and check: _local_datum).
    """
    return _local_datum(func, func.evaluate(place), place)[1]


def _local_datum(func: CurveFunction, value, place, s: Series | None = None):
    """(e, d) = (v_t(s), v_t(ds/dt)), d = 0 when e = 1, for s the series
    _expand_shifted(func, value, place, n + 1), expanded unless given: it
    fixes e <= n = deg func and every tame d = e - 1, and s is widened to
    t^(2n+1) only at a wild point, where ds/dt vanishes through t^(n-1), as
    the differents of a genus-one cover of the line sum to 2n.  Odd e is
    tame in characteristic 2, so d = e - 1 is checked here, for every route."""
    if s is None:
        s = _expand_shifted(func, value, place, func.degree() + 1)
    e = s.valuation()
    if e < 1:
        raise VerificationError(f"function does not take {value!r} at {place!r}")
    if e == 1:
        return 1, 0
    if s.deriv().is_zero_to_prec():
        s = _expand_shifted(func, value, place, 2 * func.degree() + 2)
    d = s.deriv().valuation()
    if e % 2 and d != e - 1:
        raise VerificationError(f"tame point reports d={d}, expected {e - 1}")
    return e, d


def _fiber_poly(func: CurveFunction, value) -> Poly:
    """A polynomial whose roots hold the x-coordinates of the fiber over
    value: D at INFINITY; over c = value, coerced into the context, the norm
    (A+cD)^2 + (A+cD)Bh + B^2 f of g = A + cD + BY.  It needs no factor D:
    a fiber point Q over a root of D has v_Q(g) = e + v_Q(D) > v_Q(D) >= 1,
    so x(Q) is a root of the norm too."""
    if value is INFINITY:
        return func.D
    norm = _norm(func.curve, func.A + func.D * func.curve.ctx(value), func.B)
    if norm.is_zero():
        raise ValueError("function is identically the requested value")
    return norm


def fiber(func: CurveFunction, value):
    """All rational points with func = value, as [(point, e)] sorted.

    At an affine Q over a finite c, e <= m, the multiplicity of x(Q) in
    _fiber_poly, the norm of g = A + cD + BY: g vanishes at Q to order
    e + v_Q(D) >= e, and its norm to order m v_Q(X - x(Q)), its order at Q
    plus that at the conjugate point, or twice that at Q where h(x(Q)) = 0
    and v_Q(X - x(Q)) = 2.  So a simple root gives e = 1 unexpanded; a
    multiple one, the origin and the poles are expanded through t^n,
    n = deg func, and that series gives the different exponent too
    (_local_datum); the poles share one 1/func (CurveFunction.inverse).

    Raises FiberEscapeError when the multiplicities do not add up to the
    degree of the cover, i.e. part of the fiber lives in an extension field.
    """
    return [(Q, e) for Q, e, _s in _fiber(func, value)]


def _fiber(func: CurveFunction, value):
    """fiber(func, value) as [(point, e, s)], s the series _expand_shifted
    gave through t^n, or None where e = 1 came from a simple root."""
    E = func.curve
    n = func.degree()
    if n == 0:
        raise ValueError("constant functions have no finite fibers")
    if value is not INFINITY:
        value = E.ctx(value)
    points = [(E.point(r, y0), n if value is INFINITY else m)
              for r, m in poly_roots(_fiber_poly(func, value))
              for y0 in E.fiber_y(r)]
    hits = []
    for Q, m in points + [(E.infinity(), n)]:
        if func.evaluate(Q) == value:
            s = None if m == 1 else _expand_shifted(func, value, Q, n + 1)
            hits.append((Q, 1 if s is None else s.valuation(), s))
    total = sum(e for _Q, e, _s in hits)
    if total != n:
        raise FiberEscapeError(
            f"fiber over {value!r} accounts for {total} of {n} sheets",
            leftover=n - total)
    return hits


def ramification_profile(func: CurveFunction, branch_values):
    """Certified ramification data over the claimed branch values.

    Returns {value: [(point, e, d), ...]} where e is the ramification index
    and d the different exponent.  The certificate checks that every fiber
    is fully rational, that tame points satisfy d = e - 1 (_local_datum),
    and that the summed different reaches 2 deg(func) exactly, which
    Riemann-Hurwitz forces for a cover of the line by a genus-one curve.
    Ramification found outside the claimed values falsifies the profile.
    """
    E = func.curve
    n = func.degree()
    out = {}
    total_d = 0
    seen_points = set()
    for value in branch_values:
        key = value if value is INFINITY else E.ctx(value)
        out[key] = entries = [  # d read from _fiber's series
            (Q, e, 0 if s is None else _local_datum(func, key, Q, s)[1])
            for Q, e, s in _fiber(func, key)]
        seen_points.update(Q for Q, _e, _d in entries)
        total_d += sum(d for _Q, _e, d in entries)
    if total_d > 2 * n:
        raise VerificationError("different exceeds the Riemann-Hurwitz total")
    if total_d < 2 * n:
        # hunt for ramification the claim missed: critical points of the
        # X-derivative, two-torsion fibers, and the origin
        suspects = _ramification_suspects(func)
        extra = []
        for Q in suspects:
            if Q in seen_points:
                continue
            e = ramification_index(func, Q)
            if e > 1:
                v = func.evaluate(Q)
                extra.append((Q, v, e))
        report = {
            "degree": n,
            "claimed_total": total_d,
            "required_total": 2 * n,
            "extra_ramification": extra,
        }
        raise ProfileFalsified(
            f"different sums to {total_d}, Riemann-Hurwitz needs {2 * n}",
            report=report)
    return out


def differentiate(func: CurveFunction) -> CurveFunction:
    """d(func)/dX, using dY/dX = (f' + h' Y)/h."""
    E = func.curve
    h, A, B, D = E.h, func.A, func.B, func.D
    Ad, Bd, Dd = A.deriv(), B.deriv(), D.deriv()
    # quotient rule times h to clear the dY/dX denominator
    new_A = h * Ad * D + B * E.f.deriv() * D + h * Dd * A
    new_B = h * Bd * D + h.deriv() * B * D + h * Dd * B
    return CurveFunction(E, new_A, new_B, h * D * D)


def _ramification_suspects(func: CurveFunction):
    """Rational points that could carry ramification of func."""
    E = func.curve
    pts = [E.infinity()]
    dfunc = differentiate(func)
    # the critical points of the X-derivative, the two-torsion
    # x-coordinates (the X-uniformizer heuristic is blind there; a constant
    # h has none) and the poles
    polys = [] if dfunc.is_zero() else [dfunc.norm_numerator()]
    xs = {r.bits for p in polys + [E.h, func.D] for r, _m in poly_roots(p)}
    for xb in sorted(xs):
        x0 = E.ctx(xb)
        for y0 in E.fiber_y(x0):
            pts.append(E.point(x0, y0))
    return pts
