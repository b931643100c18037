"""Automorphism quotient, torsion classification, counts, census, covers."""

import hashlib
import json
import random
import sys
from math import gcd

import pytest

from lame2 import gf2, lame
from lame2.cli import run
from lame2.common import FiberEscapeError, VerificationError
from lame2.gf2 import GF, Poly, element_degree, embed, poly_roots
from lame2.weierstrass import (WeierstrassCurve, supersingular_order,
                               torsion_basis, torsion_points)
from lame2.lame import (
    aut_group,
    aut_orbit,
    classify_torsion,
    cover_profile,
    degree_count_true,
    eta_paper,
    galois_equivariance_check,
    lame_count_dividing,
    moduli_census,
    ordinary_torsion_point,
    psi,
    rho,
    third_point_datum,
)
from lame2.funcfield import differentiate, ramification_index


# -- the order-24 automorphism group ----------------------------------------


def test_aut_group_size_and_identity():
    G = aut_group(GF(2))
    assert len(G) == 24
    assert G.count((1, 0, 0)) == 1


def test_aut_group_closure_and_inverses():
    ctx = GF(4)
    G = aut_group(ctx)
    keys = set(G)
    assert len(keys) == 24
    for g in G:
        for h in G:
            assert lame._compose(ctx, g, h) in keys
    # every element has an inverse in the set
    for g in G:
        assert any(lame._compose(ctx, g, h) == (1, 0, 0) for h in G)


def test_aut_group_is_nonabelian():
    ctx = GF(2)
    G = aut_group(ctx)
    assert any(lame._compose(ctx, g, h) != lame._compose(ctx, h, g)
               for g in G for h in G)


def test_negation_is_an_automorphism():
    curve = WeierstrassCurve.supersingular(6)
    assert (1, 0, 1) in aut_group(curve.ctx)
    P = curve.point(curve.ctx(2), curve.fiber_y(curve.ctx(2))[0])
    assert curve.point(*lame._act(curve.ctx, (1, 0, 1), P.x.bits, P.y.bits)) \
        == -P


def test_automorphisms_preserve_the_curve():
    curve = WeierstrassCurve.supersingular(4)
    pts = [curve.point(x, y) for x in curve.ctx.elements()
           for y in curve.fiber_y(x)]
    for key in aut_group(curve.ctx):
        for P in pts:
            x, y = lame._act(curve.ctx, key, P.x.bits, P.y.bits)
            assert curve.contains(x, y)
    assert aut_orbit(curve.infinity()) == {curve.infinity()}


def test_aut_group_rejects_ordinary_model():
    curve = WeierstrassCurve.ordinary(GF(2), GF(2)(2))
    P = curve.point(0, curve.fiber_y(curve.ctx.zero)[0])
    with pytest.raises(ValueError):
        rho(P)
    with pytest.raises(ValueError, match="even degree"):
        aut_group(GF(3))
    with pytest.raises(ValueError, match="Y\\^2\\+Y=X\\^3"):
        aut_orbit(P)


# -- the verifier against a FieldElement oracle ------------------------------


def _fe_act(key, P):
    """key(P) in FieldElement arithmetic; curve.point validates the image."""
    if P.is_infinity():
        return P
    u, a, c = (P.curve.ctx(v) for v in key)
    u2 = u * u
    return P.curve.point(u2 * P.x + a, P.y + u2 * a * a * P.x + c)


def _fe_compose(ctx, k1, k2):
    """The key of k1 after k2, in FieldElement arithmetic."""
    (u1, a1, c1), (u2, a2, c2) = ((ctx(v) for v in k) for k in (k1, k2))
    u1sq = u1 * u1
    return tuple(v.bits for v in (u1 * u2, u1sq * a2 + a1,
                                  c1 + c2 + u1sq * a1 * a1 * a2))


def reference_verify_aut_group(ctx, keys, act=_fe_act, compose=_fe_compose):
    """The per-pair FieldElement loop the int verifier replaced."""
    if len(keys) != 24:
        raise VerificationError("expected 24 automorphisms, found %d"
                                % len(keys))
    table = set(keys)
    if len(table) != 24:
        raise VerificationError("automorphism list has duplicates")
    if (1, 0, 0) not in table:
        raise VerificationError("identity element missing")

    curve = WeierstrassCurve.supersingular(ctx)
    rng = random.Random(0xA07)
    points = [curve.random_point(rng) for _ in range(4)]

    if (1, 0, 1) not in table:
        raise VerificationError("negation element missing")
    for P in points:
        if act((1, 0, 1), P) != -P:
            raise VerificationError("(1,0,1) does not act as negation")

    for key in keys:
        for P in points:
            act(key, P)
        if act(key, points[0] + points[1]) != \
                act(key, points[0]) + act(key, points[1]):
            raise VerificationError("automorphism is not additive")

    noncommuting = False
    for ka in keys:
        for kb in keys:
            gamma = compose(ctx, ka, kb)
            if gamma not in table:
                raise VerificationError("composition left the set")
            if act(gamma, points[0]) != act(ka, act(kb, points[0])):
                raise VerificationError("composition law disagrees with action")
            if not noncommuting and gamma != compose(ctx, kb, ka):
                noncommuting = True
    if not noncommuting:
        raise VerificationError("group verified abelian; expected non-abelian")


def _both_raise(ctx, keys, exc, match, act=_fe_act, compose=_fe_compose):
    with pytest.raises(exc, match=match):
        lame._verify_aut_group(ctx, keys)
    with pytest.raises(exc, match=match):
        reference_verify_aut_group(ctx, keys, act, compose)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 10, 12, 24])
def test_verifier_and_oracle_accept_the_group(d):
    G = aut_group(GF(d))
    lame._verify_aut_group(GF(d), G)
    reference_verify_aut_group(GF(d), G)
    assert G == sorted(G)
    for ka in G:
        for kb in G:
            assert lame._compose(GF(d), ka, kb) == _fe_compose(GF(d), ka, kb)
    if d == 2:
        assert G == [(u, a, c) for u in (1, 2, 3) for a in range(4)
                     for c in ((0, 1) if a == 0 else (2, 3))]


def _replaced(G, j, key):
    out = list(G)
    out[j] = key
    return out


def test_verifier_and_oracle_refuse_corrupted_lists():
    ctx = GF(6)
    G = aut_group(ctx)
    omega = G[-1][0]  # a cube root of unity other than 1
    assert ctx.sqr(omega) ^ omega == 1
    plain = G.index((omega, 0, 0))
    _u, a, c = G[plain]
    outsider = (0, a, c)  # u = 0: no member
    _both_raise(ctx, G[:23], VerificationError, "expected 24 automorphisms")
    _both_raise(ctx, _replaced(G, 3, G[4]), VerificationError, "duplicates")
    _both_raise(ctx, _replaced(G, G.index((1, 0, 0)), outsider),
                VerificationError, "identity element missing")
    _both_raise(ctx, _replaced(G, G.index((1, 0, 1)), outsider),
                VerificationError, "negation element missing")
    # c + omega solves c^2 + c = a^3 + 1, so every image leaves the curve
    flipped = (omega, a, c ^ omega)
    _both_raise(ctx, _replaced(G, plain, flipped), ValueError,
                "point is not on the curve")
    # every triple that keeps points on the curve is a member, so a
    # swapped-in outsider is refused by the membership certificate
    _both_raise(ctx, _replaced(G, plain, outsider), ValueError,
                "point is not on the curve")


def _element_action(action):
    """An action on keys (ctx, key, x, y) -> (x, y), as the oracle's act."""
    def act(key, P):
        if P.is_infinity():
            return P
        x, y = action(P.curve.ctx, key, P.x.bits, P.y.bits)
        return P.curve.point(x, y)
    return act


def _both_refuse_law(monkeypatch, match, law=lame._compose, action=lame._act):
    ctx = GF(6)
    G = aut_group(ctx)
    monkeypatch.setattr(lame, "_compose", law)
    monkeypatch.setattr(lame, "_act", action)
    _both_raise(ctx, G, VerificationError, match, _element_action(action), law)


def test_verifiers_refuse_a_law_that_leaves_the_set(monkeypatch):
    real = lame._compose

    def law(ctx, k1, k2):
        return (0, 0, 0) if k1 == k2 == (1, 0, 1) else real(ctx, k1, k2)
    _both_refuse_law(monkeypatch, "composition left the set", law)


def test_verifiers_refuse_a_law_that_disagrees_with_the_action(monkeypatch):
    real = lame._compose
    _both_refuse_law(monkeypatch, "disagrees with action",
                     lambda ctx, k1, k2: real(ctx, k2, k1))


def test_verifiers_refuse_an_abelian_group(monkeypatch):
    # Z/2 x Z/12 on the 24 keys, acting through its Z/2 factor by negation;
    # every other certificate holds, so only the non-abelian check refuses
    ctx = GF(6)
    keys = aut_group(ctx)
    rest = [k for k in keys if k not in ((1, 0, 0), (1, 0, 1))]
    coords = [(0, 0), (1, 0)] + [(e, m) for m in range(1, 12) for e in (0, 1)]
    label = dict(zip([(1, 0, 0), (1, 0, 1)] + rest, coords))
    key_of = {v: k for k, v in label.items()}
    real = lame._act

    def law(ctx, k1, k2):
        (e1, m1), (e2, m2) = label[k1], label[k2]
        return key_of[(e1 ^ e2, (m1 + m2) % 12)]

    def action(ctx, key, x, y):
        return real(ctx, (1, 0, label[key][0]), x, y)
    _both_refuse_law(monkeypatch, "abelian", law, action)


def test_verifiers_refuse_a_negation_that_fixes_points(monkeypatch):
    real = lame._act

    def action(ctx, key, x, y):
        return (x, y) if key == (1, 0, 1) else real(ctx, key, x, y)
    _both_refuse_law(monkeypatch, "does not act as negation", action=action)


def test_verifiers_refuse_a_non_additive_action(monkeypatch):
    ctx = GF(6)
    curve = WeierstrassCurve.supersingular(ctx)
    T = curve.random_point(random.Random(5))
    moved = aut_group(ctx)[5]
    real = lame._act

    def action(ctx, key, x, y):
        if key != moved:
            return real(ctx, key, x, y)
        Q = curve.point(ctx(x), ctx(y)) + T  # a translation keeps the curve
        return Q.x.bits, Q.y.bits
    _both_refuse_law(monkeypatch, "not additive", action=action)


# -- the invariant map and its orbits ---------------------------------------


def test_rho_at_the_base_point():
    curve = WeierstrassCurve.supersingular(2)
    P = curve.point(0, curve.fiber_y(curve.ctx.zero)[0])
    assert rho(P).bits == 0


def test_rho_is_invariant_under_the_group():
    curve = WeierstrassCurve.supersingular(6)
    x = curve.ctx(5)
    P = curve.point(x, curve.fiber_y(x)[0])
    v = rho(P)
    for key in aut_group(curve.ctx):
        x, y = lame._act(curve.ctx, key, P.x.bits, P.y.bits)
        assert rho(curve.point(x, y)) == v


def test_orbit_of_two_torsion_free_locus():
    # x in F_4 makes x^4 + x vanish; those eight points form one orbit
    curve = WeierstrassCurve.supersingular(2)
    P = curve.point(0, curve.fiber_y(curve.ctx.zero)[0])
    orbit = aut_orbit(P)
    assert len(orbit) == 8
    assert all(rho(Q).bits == 0 for Q in orbit)


def test_orbit_sizes_divide_group_order():
    curve = WeierstrassCurve.supersingular(4)
    seen = 0
    for x in curve.ctx.elements():
        ys = curve.fiber_y(x)
        if not ys:
            continue
        P = curve.point(x, ys[0])
        assert 24 % len(aut_orbit(P)) == 0
        seen += 1
        if seen >= 4:
            break
    assert seen == 4


# -- torsion classification --------------------------------------------------


FROZEN_CLASS_COUNTS = {3: 1, 5: 1, 7: 2, 9: 3, 11: 5, 13: 7}


def test_classify_torsion_frozen_counts():
    for n, want in FROZEN_CLASS_COUNTS.items():
        classes = classify_torsion(n)
        assert len(classes) == want, n
        assert all(c.order == n for c in classes)


def test_classify_torsion_order_five_details():
    (cls,) = classify_torsion(5)
    assert cls.rho_value.bits == 1
    assert cls.moduli_degree == 1


def test_classify_torsion_order_three_details():
    (cls,) = classify_torsion(3)
    assert cls.rho_value.bits == 0
    assert cls.moduli_degree == 1


def test_classify_torsion_moduli_degrees():
    degs = sorted(c.moduli_degree for c in classify_torsion(13))
    assert degs == [3, 3, 3, 4, 4, 4, 4]
    degs9 = sorted(c.moduli_degree for c in classify_torsion(9))
    assert degs9 == [3, 3, 3]


def test_classify_rejects_bad_orders():
    for bad in (1, 2, 4, 6, 15):
        with pytest.raises(ValueError):
            classify_torsion(bad)


def test_classes_partition_psi_points():
    for n in (5, 7, 9):
        classes = classify_torsion(n)
        sizes = []
        for cls in classes:
            orbit = aut_orbit(cls.representative)
            sizes.append(len(orbit))
            assert 24 % len(orbit) == 0
        assert sum(sizes) == psi(n)


def reference_classify_torsion(n):
    """The point-level route the int classification replaced: CurvePoint
    sums, aut_orbit, and the least member by the bytes of its JSON."""
    curve, P1, P2 = torsion_basis(n)
    row = [curve.infinity()]
    for _ in range(n - 1):
        row.append(row[-1] + P1)
    groups = {}
    for a in range(n):
        Q = a * P2
        for b in range(n):
            if gcd(gcd(a, b), n) == 1:
                P = row[b] + Q
                groups.setdefault(rho(P).bits, []).append(P)
    assert sum(len(members) for members in groups.values()) == psi(n)
    classes = []
    for bits in sorted(groups):
        members = groups[bits]
        rep = min(members, key=lambda P: json.dumps(
            P.to_json(), sort_keys=True).encode())
        assert aut_orbit(rep) == set(members)
        classes.append((bits, element_degree(curve.ctx(bits)), rep.to_json()))
    return classes


@pytest.mark.parametrize("n", range(3, 14, 2))
def test_classification_matches_the_point_level_route(n):
    got = [(c.rho_value.bits, c.moduli_degree, c.representative.to_json())
           for c in classify_torsion(n)]
    assert got == reference_classify_torsion(n)


def test_class_json_shape():
    (cls,) = classify_torsion(5)
    rec = cls.to_json()
    assert rec["n"] == 5 and rec["moduli_degree"] == 1
    assert set(rec) == {"n", "rho", "moduli_degree", "rep"}


# -- counting formulas --------------------------------------------------------


def test_psi_values():
    assert psi(3) == 8
    assert psi(5) == 24
    assert psi(9) == 72
    assert psi(35) == psi(5) * psi(7) == 24 * 48
    assert psi(27) == 3 ** 4 * 8


def test_class_count_formula():
    assert lame_count_dividing(3) == 1
    assert lame_count_dividing(5) == 1
    assert lame_count_dividing(7) == 2
    assert lame_count_dividing(9) == 4
    assert lame_count_dividing(11) == 5
    assert lame_count_dividing(13) == 7
    assert lame_count_dividing(35) == (35 * 35 - 1) // 24
    assert lame_count_dividing(33) == (3 * 121 + 5) // 8


def test_class_count_matches_classification():
    # classes of order dividing n: sum the exact-order counts over divisors
    assert lame_count_dividing(9) == len(classify_torsion(3)) + len(
        classify_torsion(9))
    for n in (5, 7, 11, 13):
        assert lame_count_dividing(n) == len(classify_torsion(n))


def test_eta_agrees_on_prime_powers_and_splits_at_six():
    assert eta_paper(1) == 2
    for d in (2, 3, 4, 5, 8, 9):
        assert eta_paper(d) == degree_count_true(d), d
    assert eta_paper(6) == 12
    assert degree_count_true(6) == 54


def test_degree_count_true_matches_field_scan():
    for d in (1, 2, 3, 4, 6):
        ctx = GF(d)
        seen = sum(1 for c in ctx.elements() if element_degree(c) == d)
        assert degree_count_true(d) == seen, d


# -- field-of-moduli census ---------------------------------------------------


def test_census_degree_one():
    rep = moduli_census(1)
    assert rep["count"] == 2
    orders = sorted(c.order for c in rep["classes"])
    assert orders == [3, 5]
    by_rho = {c.rho_value.bits: c.order for c in rep["classes"]}
    assert by_rho == {0: 3, 1: 5}


def test_census_degree_two():
    rep = moduli_census(2)
    assert rep["count"] == 4
    assert rep["by_degree"] == {1: 2, 2: 2}
    new_orders = sorted(c.order for c in rep["classes"] if c.moduli_degree == 2)
    assert new_orders == [7, 7]


def test_census_degree_three():
    rep = moduli_census(3)
    assert rep["count"] == 8
    assert rep["by_degree"] == {1: 2, 3: 6}
    new_orders = sorted(c.order for c in rep["classes"] if c.moduli_degree == 3)
    assert new_orders == [9, 9, 9, 13, 13, 13]


# SHA-256 of the canonical JSON of `moduli --d <d>`, taken before the census
# orders came from the group exponent M rather than the group order M^2
MODULI_DIGESTS = {
    1: "4b8163382d57bc6cb7806d08aed8d7c2e76348dbd204f7e1a8f4d439bfdb0646",
    3: "3e0a598f755893d9b9e9647913e18c4cc9b334ef2f459ca92a7d7f2adcd690ad",
    5: "3228756e0afb3848ebd4dd71d395d449f1354b5254c1f661768ddd3974661c08",
    6: "10c1fed28b3c082c4160c123a03c924b8fd4fb5c7c908addd3d207b82ba7f49c",
}


@pytest.mark.parametrize("d", sorted(MODULI_DIGESTS))
def test_census_output_pinned(d):
    code, text = run(["moduli", "--d", str(d)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == MODULI_DIGESTS[d]


def reference_roots_in_some_extension(c):
    # the e-loop: the first GF(2^(de)), e = 1, 2, ..., in which
    # (x^4+x)^3 = c has a root
    for e in range(1, 13):
        big = GF(c.ctx.degree * e)
        x = Poly.x(big)
        t = x * x * x * x + x
        g = t * t * t + Poly.const(embed(c, big))
        roots = [r for r, _mult in poly_roots(g)]
        if roots:
            return big, roots
    raise AssertionError("no root in an extension of degree <= 12")


@pytest.mark.parametrize("d", range(1, 7))
def test_census_extension_step_matches_the_e_loop(d):
    for c in GF(d).elements():
        assert lame._roots_in_some_extension(c) \
            == reference_roots_in_some_extension(c), c


def test_census_split_trials_pinned(monkeypatch):
    # split trials of a cold `moduli --d 4`, one gcd each, the sweep running
    # from u = x^(d-1) down and each factor resuming after the trial that
    # split off its parent (the sweep from u = 1 up, restarting per factor,
    # made 1,310); the factors of one split tree share each trial's trace,
    # so 140 traces serve the 329 trials, where reducing the rows mod every
    # factor made one trace a trial
    calls, trials = [], []
    real, real_gcd = gf2._trace_mod, gf2.Poly.gcd
    monkeypatch.setattr(gf2, "_trace_mod",
                        lambda *args: calls.append(args) or real(*args))

    def counting_gcd(a, b):
        if sys._getframe(1).f_code is gf2._split_once.__code__:
            trials.append(b)
        return real_gcd(a, b)

    monkeypatch.setattr(gf2.Poly, "gcd", counting_gcd)
    monkeypatch.setattr(gf2, "_EMBED_GEN", {})  # embeddings split too
    assert run(["moduli", "--d", "4"])[0] == 0
    assert (len(calls), len(trials)) == (140, 329)


def test_census_matches_classification_degrees():
    # moduli degrees of exact-order-n classes agree with the census orders
    census = moduli_census(3)
    from_census = sorted(
        (c.order, c.moduli_degree) for c in census["classes"])
    by_class = []
    for n in (3, 5, 9, 13):
        for cls in classify_torsion(n):
            if cls.moduli_degree in (1, 3):
                by_class.append((n, cls.moduli_degree))
    assert from_census == sorted(by_class)


def test_galois_equivariance():
    rep = galois_equivariance_check(1, samples=200, seed=7)
    assert rep["passed"] and rep["samples"] == 200


# -- certified covers ---------------------------------------------------------


def test_supersingular_cover_small():
    curve, P, _ = torsion_basis(3)
    rep = cover_profile(P, 3)
    assert rep["model"] == "supersingular"
    assert rep["index"] == 3
    assert rep["different_exponent"] == 2
    assert rep["tame"] is True
    assert rep["signature"] == 1
    assert rep["third_point"] == 2 * P
    assert rep["third_value"].bits != 0


def test_supersingular_cover_needs_extension():
    curve, P, _ = torsion_basis(9)
    rep = cover_profile(P, 9)
    assert rep["index"] == 3 and rep["tame"]
    assert rep["field_degree"] == 18  # full fiber splits over GF(2^18)
    fibers = rep["profile"]
    assert sum(len(v) for v in fibers.values()) == 1 + 1 + 7


def test_ordinary_cover_is_wild():
    ctx = GF(4)
    curve, P, _ = ordinary_torsion_point(ctx(7), 5)
    rep = cover_profile(P, 5)
    assert rep["model"] == "ordinary"
    assert rep["index"] == 2
    assert rep["different_exponent"] == 2
    assert rep["tame"] is False
    assert rep["signature"] == 0



def test_third_point_datum_expands_each_point_once(monkeypatch):
    # one series of f - f(Q) gives both e and d: every exact-order point for
    # n = 3, 5, 7, 9 costs one xy_expansion, and the data are those of the
    # route that expanded each point twice (digest taken there)
    from lame2 import funcfield
    calls = []
    real = funcfield.xy_expansion
    monkeypatch.setattr(funcfield, "xy_expansion",
                        lambda *args: calls.append(args) or real(*args))
    data = [third_point_datum(T, n) for n in (3, 5, 7, 9)
            for T in torsion_points(*torsion_basis(n), n, exact=True)]
    assert len(data) == len(calls) == 152
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "a7c28701240fe13a86164ed483afb679b524eae8b81206c4635fba66fc0f1669"

def _escape_first(monkeypatch, escapes):
    # ramification_profile raising FiberEscapeError on its first `escapes`
    # calls; returns the list of field degrees it was called over
    real, degrees = lame.ramification_profile, []

    def profile(work, values):
        degrees.append(work.curve.ctx.degree)
        if len(degrees) <= escapes:
            raise FiberEscapeError("a fiber point left the field")
        return real(work, values)

    monkeypatch.setattr(lame, "ramification_profile", profile)
    return degrees


def test_cover_profile_retries_an_escape_over_the_quadratic_extension(
        monkeypatch):
    curve, P, _ = torsion_basis(5, 0)
    degrees = _escape_first(monkeypatch, 1)
    rep = cover_profile(P, 5)
    assert degrees == [8, 16]
    assert rep["field_degree"] == 16
    assert rep["tame"] is True and rep["index"] == 3


def test_cover_profile_lets_a_second_escape_through(monkeypatch):
    curve, P, _ = torsion_basis(5, 0)
    degrees = _escape_first(monkeypatch, 2)
    with pytest.raises(FiberEscapeError):
        cover_profile(P, 5)
    assert degrees == [8, 16]


def test_cover_rejects_even_or_tiny_orders():
    curve, P, _ = torsion_basis(3)
    for bad in (1, 2, 4):
        with pytest.raises(ValueError):
            cover_profile(P, bad)


def test_cover_profile_fiber_shapes():
    curve, P, _ = torsion_basis(5)
    rep = cover_profile(P, 5)
    prof = rep["profile"]
    by_len = sorted(len(v) for v in prof.values())
    assert by_len == [1, 1, 3]
    for fib in prof.values():
        if len(fib) == 1:
            assert fib[0][1] == 5 and fib[0][2] == 4
    third = [v for v in prof.values() if len(v) == 3][0]
    assert sorted(e for _p, e, _d in third) == [1, 1, 3]
    assert sum(d for _p, _e, d in third) == 2


def test_logarithmic_derivative_orders():
    # df/f has a double zero at Q and simple poles at P and the origin
    curve, P, _ = torsion_basis(5)
    rep = cover_profile(P, 5)
    f, Q = rep["function"], rep["third_point"]
    w = differentiate(f) / f
    assert ramification_index(w, Q) == 2
    assert ramification_index(w.inverse(), P) == 1
    assert ramification_index(w.inverse(), curve.infinity()) == 1


def test_ordinary_point_search():
    ctx = GF(4)
    curve, P, N = ordinary_torsion_point(ctx(2), 7)
    assert curve.ctx.degree == 12
    assert (7 * P).is_infinity() and not P.is_infinity()
    assert N % 7 == 0
