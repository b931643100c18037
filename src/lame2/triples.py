"""Cyclic triples of positive integers: the characteristic-0 census.

A degree-n cover of the line that is totally ramified over two points and
has branch datum (n : n : 3, 1, ..., 1) is pinned down, up to isomorphism,
by the multiset of local degrees written as an ordered triple (a, b, c) of
positive integers summing to n, taken up to cyclic rotation.  The parity of
abc splits the census into the two reduction behaviors, and the primitive
triples (gcd 1) are the ones that do not factor through a smaller cover.

This module enumerates the triples exactly and cross-checks the counts
against the characteristic-2 classification: the signature-1 primitive
classes in each odd degree match the torsion classes there, which is the
counting shadow of the lifting bijection between the two worlds.
"""

from __future__ import annotations

import io
from fractions import Fraction
from math import comb, gcd

from .arith import divisors
from .lame import _CLASSIFIED_UP_TO, classify_torsion, lame_count_dividing, psi


def _canonical_rotation(a: int, b: int, c: int) -> tuple:
    return min((a, b, c), (b, c, a), (c, a, b))


class Triple:
    """A cyclic class of compositions of n into three positive parts."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        for v in (a, b, c):
            if not isinstance(v, int) or v < 1:
                raise ValueError("parts must be positive integers")
        self.a, self.b, self.c = _canonical_rotation(a, b, c)

    @classmethod
    def _canonical(cls, a: int, b: int, c: int) -> "Triple":  # least rotation
        t = object.__new__(cls)
        t.a, t.b, t.c = a, b, c
        return t

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c

    @property
    def signature(self) -> int:
        return (self.a * self.b * self.c) & 1

    @property
    def primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def parts(self) -> tuple:
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        if not isinstance(other, Triple):
            return NotImplemented
        return self.parts() == other.parts()

    def __hash__(self):
        return hash(self.parts())

    def __repr__(self):
        return f"Triple{self.parts()}"

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c,
                "degree": self.degree, "signature": self.signature,
                "primitive": self.primitive}


def enumerate_triples(n: int, signature=None, primitive_only: bool = False):
    """All canonical triples of degree n passing the filters, sorted.

    Only odd degrees are enumerated: the even-degree branch data follow a
    different rule that this census does not model, so even n is refused
    rather than silently miscounted.  The walk over a <= n/3, then b >= a,
    meets the classes in sorted order at their least rotations, as (a, b, c)
    is one when a is its least part, except (a, b, a) with b > a.
    """
    if n < 3:
        raise ValueError("degree must be at least 3")
    if n % 2 == 0:
        raise ValueError(
            "only odd degrees are enumerated; the even-degree census "
            "follows a different rule and is out of scope")
    out = []
    for a in range(1, n // 3 + 1):
        for b in range(a, n - 2 * a + 1):
            c = n - a - b
            if c == a and b > a:
                continue
            if signature is not None and (a * b * c) & 1 != signature:
                continue
            if primitive_only and gcd(gcd(a, b), c) != 1:
                continue
            out.append(Triple._canonical(a, b, c))
    return out


def cyclic_class_count(n: int) -> int:
    """Number of cyclic classes of degree n, by Burnside's lemma.

    Compositions of n into three positive parts number C(n-1, 2); a
    nontrivial rotation fixes only the constant triple, which exists
    exactly when 3 divides n.
    """
    if n < 3:
        raise ValueError("degree must be at least 3")
    return (comb(n - 1, 2) + 2 * (n % 3 == 0)) // 3


def expected_class_count(n: int) -> int:
    """Exact-order class count in characteristic 2 for odd n.

    psi(n)/24 away from n = 3; the order-3 locus is a single class because
    its points have a stabilizer of order 3 inside the 24-element group.
    """
    if n == 3:
        return 1
    q, r = divmod(psi(n), 24)
    if r:
        raise ArithmeticError(f"psi({n}) is not divisible by 24")
    return q


def lifting_count_check(n: int, primitive=None) -> dict:
    """Count witnesses of the lifting bijection for every order dividing n.

    For each divisor m > 1 the signature-1 primitive triples of degree m
    are counted and compared with the characteristic-2 class count (by
    classifying when m <= _CLASSIFIED_UP_TO, by the closed formula always);
    the divisor total must reproduce the order-dividing-n class count, and
    "passed" says whether every comparison held.  For m = n it filters
    ``primitive``, enumerate_triples(n, primitive_only=True), when given.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    per_order = {}
    cumulative = 0
    passed = True
    for m in divisors(n):
        if m == 1:
            continue
        triples = (enumerate_triples(m, signature=1, primitive_only=True)
                   if m < n or primitive is None
                   else [t for t in primitive if t.signature == 1])
        expected = expected_class_count(m)
        entry = {
            "signature_one_triples": len(triples),
            "expected_classes": expected,
            "psi_over_24": str(Fraction(psi(m), 24)),
        }
        if m <= _CLASSIFIED_UP_TO:
            entry["char2_classes"] = len(classify_torsion(m))
            passed &= entry["char2_classes"] == len(triples)
        passed &= len(triples) == expected
        per_order[m] = entry
        cumulative += len(triples)
    dividing = lame_count_dividing(n)
    passed &= cumulative == dividing
    return {"n": n, "per_order": per_order, "cumulative": cumulative,
            "order_dividing_classes": dividing, "passed": passed}


def triples_csv(n: int, signature=None, primitive_only: bool = False) -> str:
    """CSV census of degree-n triples: n,a,b,c,signature,primitive."""
    buf = io.StringIO()
    buf.write("n,a,b,c,signature,primitive\n")
    for t in enumerate_triples(n, signature, primitive_only):
        buf.write(f"{n},{t.a},{t.b},{t.c},{t.signature},"
                  f"{int(t.primitive)}\n")
    return buf.getvalue()
