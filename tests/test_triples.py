"""Cyclic triple census and the counting side of the lifting bijection."""

import json
from math import gcd

import pytest

import lame2.triples
from lame2.cli import run
from lame2.triples import (
    Triple,
    _canonical_rotation,
    cyclic_class_count,
    enumerate_triples,
    expected_class_count,
    lifting_count_check,
    triples_csv,
)
from lame2.lame import classify_torsion, lame_count_dividing, psi


def _all_classes(n):
    """The least rotations of all compositions of n into three parts, by
    brute force: the reference for enumerate_triples."""
    seen = set()
    for a in range(1, n - 1):
        for b in range(1, n - a):
            seen.add(_canonical_rotation(a, b, n - a - b))
    return seen


def burnside_check(max_n=200):
    """Direct enumeration versus the Burnside count for every degree."""
    degrees = range(3, max_n + 1)
    mismatches = [n for n in degrees if len(_all_classes(n))
                  != lame2.triples.cyclic_class_count(n)]
    return {"max_n": max_n, "degrees_checked": len(degrees),
            "passed": not mismatches}


def signature_one_composition_count(n):
    """Ordered all-odd primitive compositions of n into three parts."""
    count = 0
    for a in range(1, n - 1, 2):
        for b in range(1, n - a, 2):
            c = n - a - b
            if c >= 1 and c % 2 and gcd(gcd(a, b), c) == 1:
                count += 1
    return count


def test_canonicalization_picks_least_rotation():
    assert Triple(2, 6, 1).parts() == (1, 2, 6)
    assert Triple(6, 1, 2).parts() == (1, 2, 6)
    assert Triple(1, 2, 6).parts() == (1, 2, 6)
    # mirror images are distinct classes
    assert Triple(1, 6, 2).parts() == (1, 6, 2)


def test_triple_attributes():
    t = Triple(1, 3, 5)
    assert t.degree == 9 and t.signature == 1 and t.primitive
    s = Triple(2, 2, 5)
    assert s.signature == 0 and s.primitive
    u = Triple(3, 3, 3)
    assert u.signature == 1 and not u.primitive


def test_rejects_bad_parts():
    with pytest.raises(ValueError):
        Triple(0, 1, 2)
    with pytest.raises(ValueError):
        Triple(1, -1, 3)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_rejects_non_int_parts(bad):
    # Triple(True, 1, 1) was accepted and to_json wrote "a": true
    with pytest.raises(TypeError):
        Triple(bad, 1, 1)


def test_degree_nine_primitive_census():
    got = enumerate_triples(9, primitive_only=True)
    want = {(1, 1, 7), (1, 2, 6), (1, 6, 2), (1, 3, 5), (1, 5, 3),
            (1, 4, 4), (2, 2, 5), (2, 3, 4), (2, 4, 3)}
    assert {t.parts() for t in got} == want
    assert len(got) == 9
    assert [t.parts() for t in got] == sorted(want)


def test_degree_nine_signature_one():
    got = enumerate_triples(9, signature=1, primitive_only=True)
    assert {t.parts() for t in got} == {(1, 1, 7), (1, 3, 5), (1, 5, 3)}


def test_degree_five_census():
    got = enumerate_triples(5)
    assert [t.parts() for t in got] == [(1, 1, 3), (1, 2, 2)]


def test_degree_three_census():
    got = enumerate_triples(3)
    assert [t.parts() for t in got] == [(1, 1, 1)]
    assert got[0].signature == 1 and got[0].primitive


def test_refuses_even_and_tiny_degrees():
    with pytest.raises(ValueError, match="odd"):
        enumerate_triples(8)
    with pytest.raises(ValueError):
        enumerate_triples(2)
    with pytest.raises(ValueError, match="odd"):
        lifting_count_check(6)


def test_burnside_formula():
    assert cyclic_class_count(3) == 1
    assert cyclic_class_count(9) == 10
    report = burnside_check(200)
    assert report["passed"] and report["degrees_checked"] == 198


def test_composition_count_identity():
    # ordered signature-1 primitive compositions number psi(n)/8, all odd n
    for n in range(3, 100, 2):
        assert signature_one_composition_count(n) == psi(n) // 8, n
        assert psi(n) % 8 == 0


def test_expected_class_counts():
    assert expected_class_count(3) == 1
    assert expected_class_count(5) == 1
    assert expected_class_count(7) == 2
    assert expected_class_count(9) == 3
    assert expected_class_count(13) == 7


def test_enumeration_matches_the_rotation_set():
    # every odd degree through 201 and every filter combination, against
    # the sorted and filtered rotation set
    for n in range(3, 202, 2):
        everything = [Triple(*parts) for parts in sorted(_all_classes(n))]
        for signature in (None, 0, 1):
            for primitive_only in (False, True):
                want = [t for t in everything
                        if signature in (None, t.signature)
                        and (t.primitive or not primitive_only)]
                assert enumerate_triples(n, signature, primitive_only) \
                    == want, (n, signature, primitive_only)


def test_signature_counts_match_class_formula():
    for n in range(3, 100, 2):
        got = len(enumerate_triples(n, signature=1, primitive_only=True))
        assert got == expected_class_count(n), n


def test_lifting_count_check_small_orders():
    for n in (3, 5, 7, 9, 11, 13):
        rep = lifting_count_check(n)
        assert rep["passed"]
        assert rep["per_order"][n]["char2_classes"] == \
            rep["per_order"][n]["signature_one_triples"]
    nine = lifting_count_check(9)
    assert nine["per_order"][3]["signature_one_triples"] == 1
    assert nine["per_order"][9]["signature_one_triples"] == 3
    assert nine["cumulative"] == 4 == nine["order_dividing_classes"]


def test_burnside_check_reports_a_mismatch(monkeypatch):
    assert burnside_check(20)["passed"] is True
    monkeypatch.setattr(lame2.triples, "cyclic_class_count",
                        lambda n: cyclic_class_count(n) + (n == 11))
    report = burnside_check(20)
    assert report["passed"] is False and report["degrees_checked"] == 18


@pytest.mark.parametrize("name, wrong", [
    ("expected_class_count", lambda n: expected_class_count(n) + 1),
    ("classify_torsion", lambda n: classify_torsion(n) + [None]),
    ("lame_count_dividing", lambda n: lame_count_dividing(n) + 1),
], ids=["expected", "classified", "dividing"])
def test_lifting_count_check_reports_a_mismatch(monkeypatch, name, wrong):
    # each comparison the check makes sets "passed"; none raises
    assert lifting_count_check(9)["passed"] is True
    monkeypatch.setattr(lame2.triples, name, wrong)
    assert lifting_count_check(9)["passed"] is False
    code, text = run(["triples", "--degree", "9"])
    doc = json.loads(text)
    assert code == 1 and doc["passed"] is False
    assert doc["lifting"]["passed"] is False


def test_lifting_count_check_reads_the_census_it_is_handed():
    # the CLI hands over its primitive census for m = n; the report is the
    # one the check builds by enumerating every divisor itself
    for n in list(range(3, 60, 2)) + [101, 105]:
        primitive = enumerate_triples(n, primitive_only=True)
        assert all(t.parts() == _canonical_rotation(*t.parts())
                   for t in primitive)
        assert lifting_count_check(n, primitive) == lifting_count_check(n)


def test_lifting_count_check_formula_only():
    rep = lifting_count_check(35)
    assert rep["cumulative"] == rep["order_dividing_classes"] == 51
    assert "char2_classes" not in rep["per_order"][35]
    assert rep["per_order"][5]["char2_classes"] == 1


def test_csv_emitter():
    text = triples_csv(5)
    lines = text.strip().split("\n")
    assert lines[0] == "n,a,b,c,signature,primitive"
    assert lines[1:] == ["5,1,1,3,1,1", "5,1,2,2,0,1"]
    sig = triples_csv(9, signature=1, primitive_only=True)
    assert sig.strip().split("\n")[1:] == [
        "9,1,1,7,1,1", "9,1,3,5,1,1", "9,1,5,3,1,1"]


def test_json_shape():
    rec = Triple(4, 2, 3).to_json()
    assert rec == {"a": 2, "b": 3, "c": 4, "degree": 9, "signature": 0,
                   "primitive": True}
