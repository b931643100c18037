"""Exact arithmetic in the binary fields F_(2^d).

Field elements are bit-polynomials packed into Python integers: bit i of the
integer is the coefficient of x^i.  A field is described by a FieldContext
holding the extension degree and the irreducible modulus; the canonical
modulus of degree d is the numerically smallest integer with bit d set whose
bit-polynomial is irreducible over GF(2), so every degree has one reproducible
field and nothing needs to be serialized beyond d.

Cross-field structure:

- ``embed`` maps F_(2^e) into F_(2^d) for e | d.  The image of the source
  generator is chosen once per (e, d) pair as the least root of the source
  modulus that is compatible with every previously fixed embedding between
  subfields, so composites of embeddings agree with direct embeddings.
- ``element_degree`` returns the degree of the subfield generated by an
  element (the length of its Frobenius orbit).

Values are immutable; contexts cache their derived tables (trace mask,
Artin-Schreier solver, embedding generators) and are safe to share.
"""

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

def _pmul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


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


def _pdivmod(a, m):
    dm = m.bit_length() - 1
    q = 0
    da = a.bit_length() - 1
    while da >= dm:
        q ^= 1 << (da - dm)
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return q, a


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pinvmod(a, m):
    """Inverse of a modulo m; raises ZeroDivisionError when gcd(a, m) != 1."""
    if _pmod(a, m) == 0:
        raise ZeroDivisionError("inversion of zero in GF(2^d)")
    r0, r1 = m, _pmod(a, m)
    s0, s1 = 0, 1
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _pmul(q, s1)
    if r0 != 1:
        raise ZeroDivisionError("element not invertible")
    return _pmod(s0, m)


def _psq(a):
    # (sum c_i x^i)^2 = sum c_i x^(2i) over GF(2)
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (2 * i)
        a >>= 1
        i += 1
    return r


def _is_irreducible(m, d):
    """Rabin test: x^(2^d) = x mod m and gcd(x^(2^(d/p)) - x, m) = 1."""
    if m.bit_length() - 1 != d:
        return False
    x = _pmod(2, m)
    r = x
    powers = {}
    for k in range(1, d + 1):
        r = _pmod(_psq(r), m)
        powers[k] = r
    if powers[d] != x:
        return False
    for p in factorint(d):
        if _pgcd(powers[d // p] ^ x, m) != 1:
            return False
    return True


_IRRED_CACHE = {}


def lexmin_irreducible(d):
    """Smallest integer with bit d set whose bit-polynomial is irreducible."""
    if d < 1:
        raise ValueError("degree must be positive")
    m = _IRRED_CACHE.get(d)
    if m is None:
        m = 1 << d
        while not _is_irreducible(m, d):
            m += 1
        _IRRED_CACHE[d] = m
    return m


# ---------------------------------------------------------------------------
# contexts and elements

_CANONICAL = {}


def GF(d):
    """The canonical field context of degree d (cached)."""
    ctx = _CANONICAL.get(d)
    if ctx is None:
        ctx = FieldContext(d)
        _CANONICAL[d] = ctx
    return ctx


class FieldContext:
    """Degree and modulus of one binary field, plus cached solver tables."""

    __slots__ = ("degree", "modulus", "zero", "one", "_trace_mask",
                 "_as_rows", "_adhoc_embed")

    def __init__(self, degree, modulus=None):
        if modulus is None:
            modulus = lexmin_irreducible(degree)
        elif not _is_irreducible(modulus, degree):
            raise ValueError("modulus is not irreducible of the stated degree")
        self.degree = degree
        self.modulus = modulus
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1 if degree > 0 else 0)
        self._trace_mask = None
        self._as_rows = None
        self._adhoc_embed = {}

    # -- construction -----------------------------------------------------
    def __call__(self, v):
        if isinstance(v, FieldElement):
            if v.ctx == self:
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
        if rec.get("d") != self.degree:
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

    def is_canonical(self):
        return self.modulus == lexmin_irreducible(self.degree)

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return other is self or isinstance(other, FieldContext) and (
            other.degree == self.degree and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return f"GF(2^{self.degree})"

    # -- cached linear tables ----------------------------------------------
    def trace_mask(self):
        """Bit i set iff Tr(x^i) = 1; trace is then a masked parity."""
        if self._trace_mask is None:
            mask = 0
            for i in range(self.degree):
                b = _pmod(1 << i, self.modulus)
                t = 0
                a = b
                for _ in range(self.degree):
                    t ^= a
                    a = _pmod(_psq(a), self.modulus)
                if t:  # trace lands in GF(2)
                    if t != 1:
                        raise VerificationError("trace left the prime field")
                    mask |= 1 << i
            self._trace_mask = mask
        return self._trace_mask

    def _artin_schreier_rows(self):
        """RREF data for the GF(2)-linear map y -> y^2 + y.

        Returns (pivots, nullrows) where pivots is a list of
        (column, transform-mask) pairs and nullrows the transform masks of the
        zero rows; transform masks select which coordinates of the right-hand
        side get xored together.
        """
        if self._as_rows is None:
            d = self.degree
            cols = []
            for j in range(d):
                b = _pmod(1 << j, self.modulus)
                cols.append(_pmod(_psq(b), self.modulus) ^ b)
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
            self._as_rows = (pivots, nullrows)
        return self._as_rows


class FieldElement:
    """One element of a binary field; immutable, hashable, operator-complete."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx, bits):
        self.ctx = ctx
        self.bits = bits

    # -- ring structure ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
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
        return FieldElement(self.ctx, _pmod(_pmul(self.bits, other.bits), self.ctx.modulus))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        inv = _pinvmod(other.bits, self.ctx.modulus)
        return FieldElement(self.ctx, _pmod(_pmul(self.bits, inv), self.ctx.modulus))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return FieldElement(self.ctx, _pinvmod(self.bits, self.ctx.modulus))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        m = self.ctx.modulus
        r, b = 1, self.bits
        while e:
            if e & 1:
                r = _pmod(_pmul(r, b), m)
            b = _pmod(_psq(b), m)
            e >>= 1
        return FieldElement(self.ctx, r)

    def square(self):
        return FieldElement(self.ctx, _pmod(_psq(self.bits), self.ctx.modulus))

    def sqrt(self):
        """The unique square root (squaring is bijective in characteristic 2)."""
        r = self
        for _ in range(self.ctx.degree - 1):
            r = r.square()
        return r

    def frobenius(self, k=1):
        """Apply x -> x^(2^k)."""
        r = self
        for _ in range(k % self.ctx.degree if self.ctx.degree else 0):
            r = r.square()
        return r

    # -- predicates and identity -------------------------------------------
    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.bits == other.bits
        if isinstance(other, int):
            return other in (0, 1) and self.bits == other
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.degree, self.ctx.modulus, self.bits))

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


def trace(a):
    """Absolute trace F_(2^d) -> GF(2), as an int in {0, 1}."""
    return a.trace()


def solve_artin_schreier(c):
    """All y in the context of c with y^2 + y = c.

    Returns a tuple, empty when Tr(c) = 1 and (y, y + 1) otherwise.  Odd
    degrees use the half-trace; even degrees solve the cached GF(2)-linear
    system, and the two routes are interchangeable where both apply.
    """
    ctx = c.ctx
    if c.trace():
        return ()
    d = ctx.degree
    if d % 2 == 1:
        y = c
        acc = c
        for _ in range((d - 1) // 2):
            acc = acc.square().square()
            y = y + acc  # half-trace: sum of c^(4^i) for 2i < d
    else:
        pivots, nullrows = ctx._artin_schreier_rows()
        cb = c.bits
        for mask in nullrows:
            if (cb & mask).bit_count() & 1:
                raise VerificationError("trace said solvable but system is inconsistent")
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
# compatible embeddings between canonical contexts

_EMBED_GEN = {}
_EMBED_BUILT = set()


def _eval_bits(bits, g):
    """Evaluate a GF(2)-coefficient bit-polynomial at the field element g."""
    acc = g.ctx.zero
    i = bits.bit_length() - 1
    while i >= 0:
        acc = acc * g
        if (bits >> i) & 1:
            acc = acc + g.ctx.one
        i -= 1
    return acc


def _ensure_embeddings(d):
    """Fix generator images for every subfield of GF(d), coherently.

    Divisors are processed in increasing order; for each source degree e the
    candidate roots of its modulus are filtered against all embeddings already
    fixed for smaller subfields, which forces composition-consistency.
    """
    if d in _EMBED_BUILT:
        return
    target = GF(d)
    for e in divisors(d):
        if e == d:
            _EMBED_GEN[(d, d)] = _pmod(2, target.modulus)
            continue
        _ensure_embeddings(e)
        mod_e = lexmin_irreducible(e)
        roots = _conjugate_roots(
            Poly(target, [(mod_e >> i) & 1 for i in range(e + 1)]))
        chosen = None
        for rbits in roots:
            g = FieldElement(target, rbits)
            ok = True
            for sub in divisors(e):
                if sub == e:
                    continue
                img_in_e = _EMBED_GEN[(sub, e)]
                if _eval_bits(img_in_e, g).bits != _EMBED_GEN[(sub, d)]:
                    ok = False
                    break
            if ok:
                chosen = rbits
                break
        if chosen is None:
            raise VerificationError("no composition-consistent embedding root")
        _EMBED_GEN[(e, d)] = chosen
    _EMBED_BUILT.add(d)


def embed(a, target):
    """Embed a into the target context; the source degree must divide it.

    Canonical-to-canonical embeddings come from the shared compatible system
    (composites agree with direct embeddings); other context pairs fall back
    to the least root of the source modulus, cached per pair.
    """
    src = a.ctx
    if src == target:
        return a
    if target.degree % src.degree != 0:
        raise ValueError("source degree does not divide target degree")
    if src.is_canonical() and target.is_canonical():
        _ensure_embeddings(target.degree)
        g = FieldElement(target, _EMBED_GEN[(src.degree, target.degree)])
    else:
        key = (src.degree, src.modulus)
        gbits = target._adhoc_embed.get(key)
        if gbits is None:
            f = Poly(target, [(src.modulus >> i) & 1 for i in range(src.degree + 1)])
            gbits = _conjugate_roots(f)[0]
            target._adhoc_embed[key] = gbits
        g = FieldElement(target, gbits)
    return _eval_bits(a.bits, g)


# ---------------------------------------------------------------------------
# dense univariate polynomials over one context

class Poly:
    """Dense polynomial over a binary field, coefficients low to high."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx != ctx:
                    raise ValueError("coefficient from a different context")
                cs.append(c.bits)
            elif c >> ctx.degree:
                cs.append(_pmod(_nonnegative(c), ctx.modulus))
            else:
                cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

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
        return (isinstance(other, Poly) and other.ctx == self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ctx.degree, self.ctx.modulus, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c:x}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + f") over GF(2^{self.ctx.degree})"

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ValueError("polynomials over different contexts")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return Poly(self.ctx, out)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = Poly.const(other)
        if self.ctx != other.ctx:
            raise ValueError("polynomials over different contexts")
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        m = self.ctx.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= _pmod(_pmul(a, b), m)
        return Poly(self.ctx, out)

    def square(self):
        m = self.ctx.modulus
        out = [0] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                out[2 * i] = _pmod(_psq(a), m)
        return Poly(self.ctx, out)

    def __divmod__(self, other):
        if self.ctx != other.ctx:
            raise ValueError("polynomials over different contexts")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = self.ctx.modulus
        inv_lead = _pinvmod(other.coeffs[-1], m)
        db = other.degree
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = _pmod(_pmul(c, inv_lead), m)
            q[i - db] = f
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] ^= _pmod(_pmul(f, b), m)
        return Poly(self.ctx, q), Poly(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        inv = FieldElement(self.ctx, _pinvmod(self.coeffs[-1], self.ctx.modulus))
        return self * inv

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
        return Poly(self.ctx, [c if i % 2 == 1 else 0
                               for i, c in enumerate(self.coeffs[1:], start=1)])

    def __call__(self, x):
        if isinstance(x, FieldElement):
            if x.ctx != self.ctx:
                raise ValueError("evaluation point in a different context")
            m = self.ctx.modulus
            acc = 0
            for c in reversed(self.coeffs):
                acc = _pmod(_pmul(acc, x.bits), m) ^ c
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


def _frobenius_rows(f):
    """[x^(2^j) mod f for j = 0..d] over GF(2^d), from d squarings mod f."""
    rows = [Poly.x(f.ctx) % f]
    for _ in range(f.ctx.degree):
        rows.append(rows[-1].square() % f)
    return rows


def _trace_mod(u, rows):
    """Tr(u*x) mod g = sum_(j<d) u^(2^j) * rows[j], given rows[j] = x^(2^j) mod g."""
    m = u.ctx.modulus
    c = u.bits
    out = [0] * max(len(row.coeffs) for row in rows)
    for row in rows:
        for k, a in enumerate(row.coeffs):
            if a:
                out[k] ^= _pmod(_pmul(c, a), m)
        c = _pmod(_psq(c), m)
    return Poly(u.ctx, out)


def _split_once(g, rows):
    """A proper factorization (h, g/h) of a product of distinct linear factors.

    rows[j] = x^(2^j) mod g for j < d (Berlekamp's trace algorithm).  Sweeps
    u over the power basis 1, x, ..., x^(d-1): for any two distinct roots
    r, r' the trace form is nondegenerate, so some basis element u has
    Tr(u*(r+r')) = 1 and gcd(g, Tr(u*x)) is a proper factor.  Deterministic
    and never needs more than d attempts.
    """
    ctx = g.ctx
    for i in range(ctx.degree):
        h = g.gcd(_trace_mod(FieldElement(ctx, 1 << i), rows))
        if 0 < h.degree < g.degree:
            return h, g // h
    raise VerificationError("splitting failed: input is not separable split")


def _split_linear(g, rows):
    """All roots of g, a product of distinct linear factors, given
    rows[j] = x^(2^j) mod some multiple of g for j < d."""
    if g.degree == 1:
        return [g.coeff(0) / g.leading()]
    rows = [row % g for row in rows]
    return [r for h in _split_once(g, rows) for r in _split_linear(h, rows)]


def _conjugate_roots(f):
    """Sorted root bits of f, a GF(2) irreducible of degree e | d, over GF(2^d).

    The roots are the e Frobenius conjugates r, r^2, ..., r^(2^(e-1)) of any
    one root r (Lidl-Niederreiter, Thm 2.14), and r is found by following the
    smaller factor of each split down to a linear one.
    """
    g = f
    rows = _frobenius_rows(f)[:-1]
    while g.degree > 1:
        rows = [row % g for row in rows]
        g = min(_split_once(g, rows), key=lambda p: p.degree)
    roots = [g.coeff(0) / g.leading()]
    for _ in range(f.degree - 1):
        roots.append(roots[-1].square())
    if len({r.bits for r in roots}) != f.degree or any(f(r) for r in roots):
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
    rows = _frobenius_rows(f)
    g = f.gcd(rows.pop() + Poly.x(f.ctx))
    if g.degree <= 0:
        return []
    roots = _split_linear(g, rows)
    out = []
    for r in sorted(roots, key=lambda e: e.bits):
        lin = Poly(f.ctx, [r.bits, 1])
        mult = 0
        rem = f
        while True:
            q, rr = divmod(rem, lin)
            if not rr.is_zero():
                break
            mult += 1
            rem = q
        if mult == 0:
            raise VerificationError("splitting produced a non-root")
        out.append((r, mult))
    return out
