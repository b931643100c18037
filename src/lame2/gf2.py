"""Exact arithmetic in the binary fields F_(2^d).

Field elements are bit-polynomials packed into Python integers: bit i of the
integer is the coefficient of x^i.  lame2 fixes one model of each field:
``GF(d)`` (the same class as ``FieldContext``) is F_(2^d) modulo the canonical
modulus of degree d, the numerically smallest integer with bit d set whose
bit-polynomial is irreducible over GF(2).  There is one context per degree,
so contexts compare by identity and nothing needs to be serialized beyond d.

Each context builds one raw-int kernel, ``ctx.mul``, ``ctx.sqr`` and
``ctx.inv`` (``_table_kernel`` for 2 <= d <= 12, else ``_field_kernel``),
and all element and polynomial arithmetic runs on it; it reduces by one fold
loop over the modulus taps, for any modulus.  Root finding and factor
degrees (``_factor_degrees``) pack each row mod g into one int, 2d bits a
coefficient (``_Modulus``).

Cross-field structure:

- ``embed`` maps F_(2^e) into F_(2^d) for e | d.  The image of the source
  generator is built on demand, once per (e, d) pair, as the least root of
  the source modulus that agrees with the embeddings of the source's own
  subfields, so composites of embeddings agree with direct embeddings.
- ``element_degree`` returns the degree of the subfield generated by an
  element (the length of its Frobenius orbit).

Values are immutable; each context caches one GF(2)-linear table, that of
y -> y^2 + y, which gives both the Artin-Schreier solutions and the trace,
and is safe to share; embedding generators are cached per context pair.
"""

from array import array
from functools import cache, reduce
from operator import xor

from .arith import divisors, factorint
from .common import FieldInputError, VerificationError

__all__ = [
    "GF",
    "FieldContext",
    "FieldElement",
    "Poly",
    "embed",
    "element_degree",
    "lexmin_irreducible",
    "poly_roots",
    "solve_artin_schreier",
    "trace",
]


# ---------------------------------------------------------------------------
# raw bit-polynomial helpers (coefficients in GF(2), packed into ints)

def _nonnegative(v):
    if v < 0:
        raise FieldInputError(f"negative int {v} is not a field element")
    return v


def _pmod(a, m):
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b)
    return a


def _comb(a):
    """a * k over GF(2) for k < 16, the table of the 4-bit comb multiply."""
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a5, a6 = a2 ^ a, a4 ^ a, a4 ^ a2
    a7 = a4 ^ a3
    return (0, a, a2, a3, a4, a5, a6, a7,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)


_TABLE_MAX_DEGREE = 12  # contexts of degree 2 to this use exp/log tables


def _field_kernel(d, m):
    """(mul, sqr, inv) on ints below 2^d, modulo m of degree d.

    Contexts use it for d = 1 and d > 12, ``_is_irreducible`` at every d.
    mul runs over the set bits of an operand below 2^16, else a 4-bit comb
    (the products a*k for k < 16, then b a nibble at a time); sqr reads the
    binary digits of a in base 4.  red folds the bits at and above x^d onto
    the taps of m + x^d, all below d, so each round lowers the degree and
    the loop ends for any m (two rounds when the taps lie at or below d/2,
    as for the lexmin moduli).  inv is the shift-and-add extended Euclid
    (Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 2.48): a*g1 = u and
    a*g2 = v mod m, and every pass lowers deg u + deg v, so it stops at
    u = 1, or at u = 0 when a = 0.
    """
    mask = (1 << d) - 1
    taps = [t for t in range(d) if m >> t & 1]

    def red(a):
        while h := a >> d:
            a &= mask
            for t in taps:
                a ^= h << t
        return a

    nibbles = range((d - 1) & ~3, -1, -4)

    def mul(a, b):
        if a >> 16 and b >> 16:
            comb = _comb(a)
            r = 0
            for s in nibbles:
                r = (r << 4) ^ comb[(b >> s) & 15]
            return red(r)
        if a >> 16:
            a, b = b, a
        r = 0
        while a:  # a < 2^16: add b * (lowest set bit of a)
            bit = a & -a
            r ^= b * bit
            a ^= bit
        return red(r)

    def sqr(a):
        return red(int(format(a, "b"), 4))

    def inv(a):
        u, v, g1, g2 = a, m, 1, 0
        while u > 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        if not u:  # a = 0, or a shares a factor with m
            raise ZeroDivisionError(f"{a:#x} is not invertible mod {m:#x}")
        return g1

    return mul, sqr, inv


def _table_kernel(ctx):
    """(mul, sqr, inv) by exp/log tables of g, the least primitive element.

    Certified: the walk x -> x*g (shifts, then x^d and up folded) meets every
    nonzero element and is back at 1 after n = 2^d - 1 steps.
    """
    d, m, n = ctx.degree, ctx.modulus, ctx.order - 1
    g = next(c for c in range(2, n + 1) if all(
        FieldElement(ctx, c) ** (n // p) != 1 for p in factorint(n)))
    shifts = [i for i in range(g.bit_length()) if g >> i & 1]
    fold = [_pmod(h << d, m) for h in range(1 << g.bit_length())]
    exp, log = array("H", [0]) * (2 * n - 1), array("H", [0]) * (n + 1)
    seen, x = bytearray(n + 1), 1
    for k in range(n):
        seen[x] = 1
        exp[k], log[x] = x, k
        y = 0
        for i in shifts:
            y ^= x << i
        x = (y & n) ^ fold[y >> d]
    if x != 1 or 0 in seen[1:]:  # n steps miss an element only by a repeat
        raise VerificationError(f"{g:#x} is not primitive mod {m:#x}")
    exp[n:] = exp[:n - 1]

    def inv(a):
        if not a:
            raise ZeroDivisionError(f"0 is not invertible mod {m:#x}")
        return exp[n - log[a]]

    return (lambda a, b: exp[log[a] + log[b]] if a and b else 0,
            lambda a: exp[2 * log[a]] if a else 0, inv)


def _is_irreducible(m, d):
    """Rabin test: x^(2^d) = x mod m and gcd(x^(2^(d/p)) - x, m) = 1."""
    if m.bit_length() - 1 != d:
        return False
    sqr = _field_kernel(d, m)[1]
    x = _pmod(2, m)
    r = x
    powers = {}
    for k in range(1, d + 1):
        r = sqr(r)
        powers[k] = r
    if powers[d] != x:
        return False
    for p in factorint(d):
        if _pgcd(powers[d // p] ^ x, m) != 1:
            return False
    return True


def lexmin_irreducible(d):
    """Smallest integer with bit d set whose bit-polynomial is irreducible.

    For d >= 2 an irreducible has neither 0 nor 1 as a root: its constant
    term is 1 and its number of terms odd, so only such m are tested.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    m = 1 << d | (d > 1)  # x is the one irreducible with constant term 0
    while not (m.bit_count() & 1 and _is_irreducible(m, d)):
        m += 2
    return m


# ---------------------------------------------------------------------------
# contexts and elements

_CANONICAL = {}


class FieldContext:
    """F_(2^d) modulo ``lexmin_irreducible(d)``, one context per degree.

    ``FieldContext(d)``, ``GF(d)`` and an unpickled context of degree d are
    one object, built with its kernel on first use; the degree must be an
    int (not a bool) and at least 1.
    """

    __slots__ = ("degree", "modulus", "zero", "one", "mul", "sqr", "inv",
                 "_as_rows")

    def __new__(cls, degree):
        if type(degree) is not int:  # bool is refused here too
            raise TypeError(f"field degree must be an int, got {degree!r}")
        self = _CANONICAL.get(degree)
        if self is None:
            if degree < 1:
                raise ValueError(f"field degree must be >= 1, got {degree}")
            self = super().__new__(cls)
            self.degree, self.modulus = degree, lexmin_irreducible(degree)
            self.mul, self.sqr, self.inv = _field_kernel(degree, self.modulus)
            if 2 <= degree <= _TABLE_MAX_DEGREE:
                self.mul, self.sqr, self.inv = _table_kernel(self)
            self.zero, self.one = FieldElement(self, 0), FieldElement(self, 1)
            self._as_rows = None
            _CANONICAL[degree] = self
        return self

    # -- construction -----------------------------------------------------
    def __call__(self, v):
        if isinstance(v, FieldElement):
            if v.ctx is self:
                return v
            raise ValueError("element belongs to a different context")
        if isinstance(v, int):
            if v >> self.degree:  # every negative int lands here too
                v = _pmod(_nonnegative(v), self.modulus)
            return FieldElement(self, v)
        raise TypeError(f"cannot coerce {type(v).__name__} into GF(2^{self.degree})")

    def from_hex(self, s):
        """The element with this bit pattern; no reduction mod the modulus."""
        v = int(s, 16)
        if v.bit_length() > self.degree:
            raise FieldInputError(
                f"hex {s!r} does not fit in GF(2^{self.degree})")
        return self(v)

    def from_json(self, rec):
        d = rec.get("d")
        if type(d) is not int or d != self.degree:  # True, 4.0, "4" refused
            raise ValueError("field-element record has the wrong degree")
        return self.from_hex(rec["hex"])

    def elements(self):
        for b in range(1 << self.degree):
            yield FieldElement(self, b)

    def random(self, rng):
        return FieldElement(self, rng.getrandbits(self.degree))

    @property
    def order(self):
        return 1 << self.degree

    # -- identity ----------------------------------------------------------
    def __reduce__(self):
        # the kernel closures do not pickle; unpickling looks the context up
        return GF, (self.degree,)

    def __repr__(self):
        return f"GF(2^{self.degree})"

    # -- the cached linear table -------------------------------------------
    def trace_mask(self):
        """Bit i set iff Tr(x^i) = 1; trace is then a masked parity."""
        return self._artin_schreier_rows()[1]

    def _artin_schreier_rows(self):
        """RREF data for the GF(2)-linear map y -> y^2 + y.

        Returns (pivots, nullrow) where pivots is a list of (column,
        transform-mask) pairs and nullrow the transform mask of the one zero
        row; a transform mask selects which coordinates of the right-hand side
        get xored together.  The kernel of the map is {0, 1}, so there is
        exactly one zero row, and its mask is the trace mask: the image is
        the kernel of the trace (Lidl-Niederreiter, Finite Fields, 2.3).
        """
        if self._as_rows is None:
            d = self.degree
            cols = []
            for j in range(d):
                b = 1 << j
                cols.append(self.sqr(b) ^ b)
            rows = []
            for i in range(d):
                r = 0
                for j in range(d):
                    if (cols[j] >> i) & 1:
                        r |= 1 << j
                rows.append([r, 1 << i])
            pivot_at = []
            used = [False] * d
            for col in range(d):
                pivot = None
                for i in range(d):
                    if not used[i] and (rows[i][0] >> col) & 1:
                        pivot = i
                        break
                if pivot is None:
                    continue
                used[pivot] = True
                for i in range(d):
                    if i != pivot and (rows[i][0] >> col) & 1:
                        rows[i][0] ^= rows[pivot][0]
                        rows[i][1] ^= rows[pivot][1]
                pivot_at.append((col, pivot))
            # masks are read only after the reduction has settled
            pivots = [(col, rows[i][1]) for col, i in pivot_at]
            nullrows = [rows[i][1] for i in range(d) if rows[i][0] == 0]
            if len(nullrows) != 1:
                raise VerificationError(
                    f"y^2 + y has a kernel of rank {len(nullrows)}, not 1")
            self._as_rows = (pivots, nullrows[0])
        return self._as_rows


GF = FieldContext


class FieldElement:
    """One element of a binary field; immutable, hashable, operator-complete."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx, bits):
        self.ctx = ctx
        self.bits = bits

    # -- ring structure ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ValueError("operands live in different field contexts")
            return other
        if isinstance(other, int):
            return FieldElement(self.ctx, other & 1)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.bits ^ other.bits)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.mul(self.bits, other.bits))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.ctx
        return FieldElement(ctx, ctx.mul(self.bits, ctx.inv(other.bits)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return FieldElement(self.ctx, self.ctx.inv(self.bits))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        mul, sqr = self.ctx.mul, self.ctx.sqr
        r, b = 1, self.bits
        while e:
            if e & 1:
                r = mul(r, b)
            b = sqr(b)
            e >>= 1
        return FieldElement(self.ctx, r)

    def square(self):
        return FieldElement(self.ctx, self.ctx.sqr(self.bits))

    def sqrt(self):
        """The unique square root (squaring is bijective in characteristic 2)."""
        return self.frobenius(self.ctx.degree - 1)

    def frobenius(self, k=1):
        """Apply x -> x^(2^k)."""
        sqr = self.ctx.sqr
        r = self.bits
        for _ in range(k % self.ctx.degree):
            r = sqr(r)
        return FieldElement(self.ctx, r)

    # -- predicates and identity -------------------------------------------
    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx is other.ctx and self.bits == other.bits
        if isinstance(other, int):
            return other in (0, 1) and self.bits == other
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.degree, self.bits))

    def __repr__(self):
        return f"<0x{self.bits:x} in GF(2^{self.ctx.degree})>"

    # -- field-theoretic operations ------------------------------------------
    def trace(self):
        return (self.bits & self.ctx.trace_mask()).bit_count() & 1

    def degree(self):
        return element_degree(self)

    def embed(self, target):
        return embed(self, target)

    def to_json(self):
        return {"d": self.ctx.degree, "hex": format(self.bits, "x")}


def _coeff_bits(ctx, coeffs):
    """The bits of Poly or Series coefficients over ctx, as a list.

    An element of ctx gives its bits; an int is read as a bit-polynomial and
    reduced mod the modulus.  An element of another context raises
    ValueError, a negative int FieldInputError.
    """
    out = []
    for c in coeffs:
        if isinstance(c, FieldElement):
            if c.ctx is not ctx:
                raise ValueError("coefficient from a different context")
            c = c.bits
        elif c >> ctx.degree:  # every negative int lands here too
            c = _pmod(_nonnegative(c), ctx.modulus)
        out.append(c)
    return out


def trace(a):
    """Absolute trace F_(2^d) -> GF(2), as an int in {0, 1}."""
    return a.trace()


def solve_artin_schreier(c):
    """All y in the context of c with y^2 + y = c.

    Returns a tuple, empty when Tr(c) = 1 and (y, y + 1) otherwise.  Every
    degree solves the cached GF(2)-linear system of y -> y^2 + y, whose
    kernel is {0, 1}: its one zero row is the trace condition, and the
    pivots give the solution with the free coordinate set to 0.
    """
    ctx = c.ctx
    if c.trace():
        return ()
    pivots, cb = ctx._artin_schreier_rows()[0], c.bits
    yb = 0
    for col, mask in pivots:
        if (cb & mask).bit_count() & 1:
            yb |= 1 << col
    y = FieldElement(ctx, yb)
    if y.square() + y != c:
        raise VerificationError("Artin-Schreier solver produced a non-solution")
    return (y, y + ctx.one)


def element_degree(a):
    """Least e with a^(2^e) = a, i.e. the degree of the subfield GF(2)(a)."""
    for e in divisors(a.ctx.degree):
        if a.frobenius(e) == a:
            return e
    raise VerificationError("Frobenius orbit did not close")  # pragma: no cover


# ---------------------------------------------------------------------------
# compatible embeddings between subfields

_EMBED_GEN = {}


def _bit_poly(ctx, bits):
    """The bit-polynomial `bits`, coefficients in GF(2), as a Poly over ctx."""
    return Poly._of(ctx, [(bits >> i) & 1 for i in range(bits.bit_length())])


def _embed_gen(src, target):
    """The image of src's generator in target, as bits.

    The image is the least root of src's modulus in target that agrees with
    every proper subfield GF(2^s) of src: embedding GF(2^s) into src and then
    into target must give its direct embedding into target.  The recursion
    only asks for subfields of src, so each pair's image is fixed by its
    subfields alone, whatever order the pairs are asked in, and composites of
    embeddings agree with direct ones.
    """
    key = (src, target)
    gbits = _EMBED_GEN.get(key)
    if gbits is None:
        subs = [GF(s) for s in divisors(src.degree)[:-1]]
        for gbits in _conjugate_roots(_bit_poly(target, src.modulus)):
            g = FieldElement(target, gbits)
            if all(_bit_poly(target, _embed_gen(sub, src))(g).bits
                   == _embed_gen(sub, target) for sub in subs):
                break
        else:
            raise VerificationError("no composition-consistent embedding root")
        _EMBED_GEN[key] = gbits
    return gbits


def embed(a, target):
    """Embed a into the target context; the source degree must divide it.

    The source generator goes to ``_embed_gen(a.ctx, target)``, so composites
    of embeddings agree with direct ones.
    """
    src = a.ctx
    if src is target:
        return a
    if target.degree % src.degree != 0:
        raise ValueError("source degree does not divide target degree")
    g = FieldElement(target, _embed_gen(src, target))
    return _bit_poly(target, a.bits)(g)


# ---------------------------------------------------------------------------
# dense univariate polynomials over one context

class Poly:
    """Dense polynomial over a binary field, coefficients low to high."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self._set(ctx, _coeff_bits(ctx, coeffs))

    def _set(self, ctx, cs):
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx, self.coeffs = ctx, tuple(cs)
        return self

    # the private constructor, for lists of reduced ints from arithmetic
    _of = classmethod(lambda cls, *args: cls.__new__(cls)._set(*args))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, [0, 1])

    @classmethod
    def const(cls, v):
        return cls(v.ctx, [v.bits])

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [1])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [])

    @classmethod
    def from_roots(cls, ctx, roots):
        p = cls.one(ctx)
        for r in roots:
            p = p * cls(ctx, [r.bits if isinstance(r, FieldElement) else r, 1])
        return p

    # -- basic structure -----------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return FieldElement(self.ctx, self.coeffs[-1]) if self.coeffs else self.ctx.zero

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return FieldElement(self.ctx, self.coeffs[i])
        return self.ctx.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx.degree, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c:x}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + f") over GF(2^{self.ctx.degree})"

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("polynomials over different contexts")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return Poly._of(self.ctx, out)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = Poly.const(other)
        if self.ctx is not other.ctx:
            raise ValueError("polynomials over different contexts")
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        mul = self.ctx.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, i):
                if b:
                    out[j] ^= mul(a, b)
        return Poly._of(self.ctx, out)

    def square(self):
        sqr = self.ctx.sqr
        out = [0] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                out[2 * i] = sqr(a)
        return Poly._of(self.ctx, out)

    def _rem(self, other, quotient=None):
        """self mod other, appending the quotient's coefficients, high to low,
        to `quotient` when one is given.  A monic divisor, or one longer than
        self, needs no inversion."""
        if self.ctx is not other.ctx:
            raise ValueError("polynomials over different contexts")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        mul = self.ctx.mul
        db = other.degree
        low = other.coeffs[:-1]
        inv_lead = other.coeffs[-1]
        rem = list(self.coeffs)
        if inv_lead != 1 and len(rem) > db:
            inv_lead = self.ctx.inv(inv_lead)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c and inv_lead != 1:
                c = mul(c, inv_lead)
            if quotient is not None:
                quotient.append(c)
            if c:
                for j, b in enumerate(low, i - db):
                    if b:
                        rem[j] ^= mul(c, b)
        return Poly._of(self.ctx, rem[:db])

    def __divmod__(self, other):
        q = []
        r = self._rem(other, q)
        return Poly._of(self.ctx, q[::-1]), r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return self._rem(other)

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self * FieldElement(self.ctx, self.ctx.inv(self.coeffs[-1]))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, g monic."""
        r0, r1 = self, other
        s0, s1 = Poly.one(self.ctx), Poly.zero(self.ctx)
        t0, t1 = Poly.zero(self.ctx), Poly.one(self.ctx)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 + q * s1
            t0, t1 = t1, t0 + q * t1
        if r0.is_zero():
            return r0, s0, t0
        lead = r0.leading()
        inv = lead.inverse()
        return r0 * inv, s0 * inv, t0 * inv

    def deriv(self):
        # formal derivative in characteristic 2: only odd-degree terms survive
        return Poly._of(self.ctx, [c if i % 2 == 1 else 0
                                   for i, c in enumerate(self.coeffs[1:], start=1)])

    def __call__(self, x):
        if isinstance(x, FieldElement):
            if x.ctx is not self.ctx:
                raise ValueError("evaluation point in a different context")
            mul = self.ctx.mul
            acc = 0
            for c in reversed(self.coeffs):
                acc = mul(acc, x.bits) ^ c
            return FieldElement(self.ctx, acc)
        # generic Horner, used for series arguments
        acc = None
        for c in reversed(self.coeffs):
            ce = FieldElement(self.ctx, c)
            acc = ce if acc is None else acc * x + ce
        if acc is None:
            return self.ctx.zero
        return acc

    def map_context(self, target):
        """Coefficient-wise embedding into a larger context."""
        return Poly(target, [embed(self.coeff(i), target).bits
                             for i in range(len(self.coeffs))])

    def to_json(self):
        return {"d": self.ctx.degree,
                "coeffs": [format(c, "x") for c in self.coeffs]}


# ---------------------------------------------------------------------------
# root finding on packed rows

class _Modulus:
    """Polynomials mod g over GF(2^d) packed into ints, w = 2d bits a slot.

    Coefficient i sits at bit w*i, so a scalar times a row is one 4-bit comb
    pass over its int (``dot``).  A slot holds a sum of products of reduced
    coefficients, of degree <= 2d - 2 < w, so no slot spills into the next.
    ``fold`` reduces all slots by x^d = m + x^d: L (``ones``) masks the low
    d bits of the 2n + 1 slots a square needs, h = (a >> d) & L is below 2^d
    a slot, each tap t of m + x^d is below d, so h << t is below 2^w, and a
    round lowers each slot of degree >= d, so it ends for any m.  ``reduce``
    folds slot n + i into the low n by a table of x^(n+i) mod g grown on
    demand, one comb an entry; ``square`` spreads the bits (slot i to 2i).
    """

    sweep = {}  # (context, u) -> [u^(2^j) for j < d], made on first use

    def __init__(self, g):
        g = g.monic()  # so that x^n = g + x^n mod g
        ctx, n, d, w = g.ctx, g.degree, g.ctx.degree, 2 * g.ctx.degree
        self.g, self.ctx, self.n, self.d, self.w = g, ctx, n, d, w
        self.mask, self.low = (1 << d) - 1, (1 << w * n) - 1
        self.taps = [t for t in range(d) if ctx.modulus >> t & 1]
        self.ones = int(("0" * d + "1" * d) * (2 * n + 1), 2)
        self.last = sum(c << w * i for i, c in enumerate(g.coeffs[:-1]))
        self.combs = [_comb(self.last)]

    def poly(self, a):
        return Poly._of(self.ctx, [(a >> s) & self.mask
                                   for s in range(0, a.bit_length(), self.w)])

    def dot(self, scalars, combs):
        """sum scalars[i] * rows[i], from the rows' combs; slots unfolded."""
        terms = [(c, comb) for c, comb in zip(scalars, combs) if c]
        acc = 0
        for s in range((self.d - 1) & ~3, -1, -4):
            acc <<= 4
            for c, comb in terms:
                acc ^= comb[(c >> s) & 15]
        return acc

    def fold(self, a):
        d, L = self.d, self.ones
        while h := (a >> d) & L:
            a &= L
            for t in self.taps:
                a ^= h << t
        return a

    def reduce(self, a):
        """a mod g, for any packed row of reduced slots."""
        high, combs = self.poly(a >> self.w * self.n).coeffs, self.combs
        while len(combs) < len(high):  # x^(k+1) = x * x^k mod g
            self.last = self.reduce(self.last << self.w)
            combs.append(_comb(self.last))
        return self.fold((a & self.low) ^ self.dot(high, combs))

    def square(self, a):
        return self.reduce(self.fold(int(format(a, "b"), 4)))


def _frobenius_rows(mod, k=None):
    """[x^(2^j) mod g for j = 0..k], packed, by k (default d) squarings."""
    rows = [mod.reduce(1 << mod.w)]
    for _ in range(mod.d if k is None else k):
        rows.append(mod.square(rows[-1]))
    return rows


def _trace_mod(mod, u, combs):
    """Tr(u*x) mod g = sum_(j<d) u^(2^j) x^(2^j), packed, from the combs of
    the rows x^(2^j) mod g, j < e: e scalar products and one fold.  For e < d
    g divides x^(2^e) - x, so scalar i sums u^(2^j) over j = i mod e."""
    conj = mod.sweep.setdefault((mod.ctx, u), [u])  # the same u every sweep
    while len(conj) < mod.d:
        conj.append(mod.ctx.sqr(conj[-1]))
    if (e := len(combs)) < mod.d:
        conj = [reduce(xor, conj[i::e]) for i in range(e)]
    return mod.fold(mod.dot(conj, combs))


def _traces(mod, rows):
    """i -> Tr(u*x) mod g as a Poly, u = x^(d-1-i), for mod = _Modulus(g)
    and the packed rows x^(2^j) mod g; each trace is computed once."""
    combs, d = [_comb(row) for row in rows], mod.d
    return cache(lambda i: mod.poly(_trace_mod(mod, 1 << (d - 1 - i), combs)))


def _split_once(g, trace, start=0):
    """(h, g/h, i): a proper factorization of a product g of distinct linear
    factors, given trace(i) = Tr(u*x) mod some multiple of g (``_traces``),
    and the index i of the trial that split g.

    Berlekamp's trace algorithm: trial i is u = x^(d-1-i), from the top of
    the power basis down, as Tr(x^i) vanishes on the sparse moduli until i
    nears d.  For distinct roots r, r' the trace form is nondegenerate, so
    some u has Tr(u*(r+r')) = 1 and gcd(g, Tr(u*x) mod g) is a proper
    factor.  A factor's roots agree on every trial up to the one that split
    it off, so its own sweep may begin after that one, at ``start``.
    Deterministic, at most d attempts; a split tree shares its traces.
    """
    for i in range(start, g.ctx.degree):
        h = g.gcd(trace(i) % g)
        if 0 < h.degree < g.degree:
            return h, g // h, i
    raise VerificationError("splitting failed: input is not separable split")


def _split_linear(g, rows):
    """All roots of g, a product of distinct linear factors, given packed
    rows[j] = x^(2^j) mod some multiple of g for j < d, reduced mod g once;
    each factor resumes after the trial that split its parent (_split_once)."""
    if g.degree > 1:
        mod = _Modulus(g)
        trace = _traces(mod, [mod.reduce(row) for row in rows])

    def split(g, start):
        if g.degree == 1:
            return [g.coeff(0) / g.leading()]
        h, k, i = _split_once(g, trace, start)
        return split(h, i + 1) + split(k, i + 1)
    return split(g, 0)


def _conjugate_roots(f):
    """Sorted root bits of f, a GF(2) irreducible of degree e | d, over GF(2^d).

    f divides x^(2^e) - x, so the Frobenius rows repeat with period e and
    e rows serve every trace (_trace_mod).  A root r is found by following
    the smaller factor of each split down to a linear one, and the roots are
    its e conjugates r, r^2, ..., r^(2^(e-1)) (Lidl-Niederreiter, Thm 2.14):
    as f has bits for coefficients, f(r^2) = f(r)^2, so f(r) = 0 and e
    distinct conjugates certify the whole root set.
    """
    if any(c > 1 for c in f.coeffs):
        raise ValueError("conjugate roots need a polynomial over GF(2)")
    mod = _Modulus(f)
    trace = _traces(mod, _frobenius_rows(mod, f.degree - 1))
    g, start = mod.g, 0
    while g.degree > 1:
        h, k, i = _split_once(g, trace, start)
        g, start = min(h, k, key=lambda p: p.degree), i + 1
    roots = [g.coeff(0) / g.leading()]
    for _ in range(f.degree - 1):
        roots.append(roots[-1].square())
    if len({r.bits for r in roots}) != f.degree or f(roots[0]):
        raise VerificationError("Frobenius orbit is not the root set")
    return sorted(r.bits for r in roots)


def poly_roots(f):
    """Roots of f in its own context, with multiplicities.

    Returns a list of (root, multiplicity) pairs sorted by the root's bit
    pattern.  Only roots lying in the coefficient field are returned; callers
    needing more must lift the polynomial to a larger context first.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has every root")
    if f.degree == 0:
        return []
    mod = _Modulus(f)
    rows = _frobenius_rows(mod)
    g = f.gcd(mod.poly(rows.pop()) + Poly.x(f.ctx))
    if g.degree <= 0:
        return []
    roots = _split_linear(g, rows)
    out = []
    for r in sorted(roots, key=lambda e: e.bits):
        mult = _root_multiplicity(f, r)
        if mult == 0:
            raise VerificationError("splitting produced a non-root")
        out.append((r, mult))
    return out


def _factor_degrees(f):
    """Degrees of the distinct irreducible factors of the nonzero f, ascending.

    Distinct-degree factorisation (von zur Gathen-Gerhard, 14.2): at step i,
    g = gcd(f, x^(q^i) - x) is the product of the factors of degree i, and
    dividing f by gcd(f, g) until they are coprime strips repeated factors
    and squares too.  Once deg f <= 2i, f is irreducible or 1.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no factorisation")
    f, x, degrees, i = f.monic(), Poly.x(f.ctx), [], 0
    mod = _Modulus(f)
    r = mod.reduce(1 << mod.w)  # x^(q^i) mod f, packed
    while f.degree > 2 * i:
        i += 1
        for _ in range(f.ctx.degree):
            r = mod.square(r)
        g = f.gcd(mod.poly(r) + x)
        if g.degree > 0:
            degrees += [i] * (g.degree // i)
            while (h := f.gcd(g)).degree > 0:
                f = f // h
            mod = _Modulus(f)
            r = mod.reduce(r)
    if f.degree > 0:
        degrees.append(f.degree)
    return degrees


def _root_multiplicity(p, r):
    """Multiplicity of r as a root of the nonzero polynomial p.

    Each pass divides by x - r with Horner's rule, whose running values are
    the quotient's coefficients, high to low, and then the remainder p(r).
    """
    mul, cs, m = p.ctx.mul, p.coeffs, 0
    while True:
        q = [cs[-1]]
        for c in cs[-2::-1]:
            q.append(mul(q[-1], r.bits) ^ c)
        if q[-1]:
            return m
        cs, m = q[-2::-1], m + 1
