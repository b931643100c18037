"""Exit-code contract, determinism, and frozen report fragments."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import lame2
from lame2 import HyperellipticCurve
from lame2.cli import main, run
from lame2.gf2 import GF


def invoke(*argv):
    return run(list(argv))


def payload(*argv):
    code, text = invoke(*argv)
    assert code == 0, text
    return json.loads(text)


# -- exit codes ------------------------------------------------------------------


def test_even_order_is_usage_error():
    code, text = invoke("classify", "--order", "4")
    assert code == 2
    assert "odd" in text


def test_out_of_range_order_is_usage_error():
    assert invoke("classify", "--order", "15")[0] == 2
    assert invoke("classify", "--order", "1")[0] == 2


def test_unknown_subcommand_is_usage_error():
    assert invoke("frobnicate")[0] == 2


def test_missing_required_flag_is_usage_error():
    assert invoke("classify")[0] == 2


def test_ordinary_without_field_is_usage_error():
    code, text = invoke("ramify", "--order", "5", "--ordinary", "1")
    assert code == 2
    assert "--field" in text


def test_zero_ordinary_coefficient_rejected():
    code, _ = invoke("ramify", "--order", "5", "--ordinary", "0",
                     "--field", "4")
    assert code == 2


def test_malformed_ordinary_hex_is_usage_error():
    code, text = invoke("ramify", "--order", "5", "--ordinary", "zz",
                        "--field", "4")
    assert code == 2
    assert "hex" in text


@pytest.mark.parametrize("t", ["20", "-1"])
def test_ordinary_hex_outside_the_field_is_usage_error(t):
    # GF(2^4) has 4-bit elements: neither is reduced or wrapped silently
    code, text = invoke("ramify", "--order", "5", "--ordinary", t,
                        "--field", "4")
    assert code == 2
    assert "at most 4 bits" in text


def test_bad_counts_bound():
    assert invoke("counts", "--max-n", "1")[0] == 2


def test_bad_moduli_degree():
    assert invoke("moduli", "--d", "9")[0] == 2


def test_bad_genus_and_field():
    assert invoke("hyper", "--genus", "4", "--field", "1")[0] == 2
    assert invoke("hyper", "--genus", "1", "--field", "0")[0] == 2


def test_even_triple_degree_rejected():
    assert invoke("triples", "--degree", "6")[0] == 2


def test_main_prints_and_returns(capsys):
    assert main(["counts", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["passed"] is True


def test_main_usage_error_goes_to_stderr(capsys):
    assert main(["classify", "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd" in captured.err


# -- determinism -----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("classify", "--order", "7"),
    ("counts", "--max-n", "9", "--csv"),
    ("triples", "--degree", "9"),
    ("moduli", "--d", "2"),
    ("hyper", "--genus", "2", "--field", "1"),
    ("ramify", "--order", "3"),
    ("jcheck", "--samples", "3"),
])
def test_byte_identical_reruns(argv):
    assert invoke(*argv) == invoke(*argv)


# SHA-256 of the canonical JSON, pinned across library versions
GOLDEN = {
    "classify --order 3":
        "2fd5c8d3ae0f142891c56cb59061d058e5268e686ed896f25e113e0ac2a2ec33",
    "counts --max-n 13":
        "3c8c2fa8c8760d26afafef67ecf40504d8a7fb158336788e29f06f7f20a8fa9c",
    "hyper --genus 3 --field 12":
        "b4584914c87015dac162a6b3da2938248618b4705ec7bd32ac2a416640f19ad4",
    "triples --degree 101":
        "b6495cf42d0fda3769666b01a97b204c994a0dab1da3067e72350636d9eb1d3d",
    "moduli --d 2":
        "d898edfd02b601b67ed9562f9eeca9f6f9ffd5d125f18eac69d5a0be7cc3629a",
    "ramify --order 5 --ordinary 1 --field 3":
        "07448304da89978ab4cda3d0aaf86d2c4e9b1f8635f5c60c28cbf4bb7bfbba4b",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_digests(argv):
    code, text = invoke(*argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[argv]


def test_import_pulls_in_no_sympy():
    src = os.path.dirname(os.path.dirname(lame2.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import lame2, lame2.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_json_has_sorted_keys_and_schema():
    code, text = invoke("moduli", "--d", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert list(doc) == sorted(doc)
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


def test_no_floats_anywhere():
    for argv in (("hyper", "--genus", "3", "--field", "1"),
                 ("ramify", "--order", "5"),
                 ("jcheck", "--samples", "2")):
        _, text = invoke(*argv)
        def walk(v):
            assert not isinstance(v, float), v
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)
        walk(json.loads(text))


# -- frozen content --------------------------------------------------------------


def test_classify_order_five():
    doc = payload("classify", "--order", "5")
    assert doc["count"] == 1 and doc["expected"] == 1
    assert doc["classes"][0]["rho"]["hex"] == "1"
    assert doc["passed"] is True


def test_classify_order_nine():
    doc = payload("classify", "--order", "9")
    assert doc["count"] == 3


def test_counts_table_through_13():
    doc = payload("counts", "--max-n", "13")
    dividing = [r["classes_dividing"] for r in doc["table"]]
    exact = [r["classes_exact"] for r in doc["table"]]
    classified = [r["classified"] for r in doc["table"]]
    assert dividing == [1, 1, 2, 4, 5, 7]
    assert exact == [1, 1, 2, 3, 5, 7]
    assert classified == exact


def test_counts_csv_shape():
    code, text = invoke("counts", "--max-n", "7", "--csv")
    assert code == 0
    assert text.splitlines() == ["n,dividing,exact,classified",
                                 "3,1,1,1", "5,1,1,1", "7,2,2,2"]


def test_triples_degree_nine():
    doc = payload("triples", "--degree", "9")
    assert len(doc["primitive"]) == 9
    assert doc["signature_one"] == 3
    assert doc["lifting"]["passed"] is True


def test_triples_csv_rows():
    code, text = invoke("triples", "--degree", "5", "--csv")
    assert code == 0
    assert "5,1,1,3,1,1" in text
    assert "5,1,2,2,0,1" in text


def test_moduli_census_d2():
    doc = payload("moduli", "--d", "2")
    assert doc["count"] == 4 and doc["expected"] == 4
    assert doc["by_degree"] == {"1": 2, "2": 2}
    assert sorted(c["n"] for c in doc["classes"]) == [3, 5, 7, 7]


def test_ramify_supersingular_seven():
    doc = payload("ramify", "--order", "7")
    assert doc["ramified_indices"] == [7, 7, 3]
    assert doc["branch_datum"] == [7, 7, 3, 1, 1, 1, 1]
    assert doc["index"] == 3 and doc["tame"] is True
    assert doc["different_exponent"] == 2
    total = sum(p["d"] for entry in doc["profile"] for p in entry["points"])
    assert total == 14


def test_torsion_search_failure_is_readable():
    # 9 divides #E over the chosen extension, but E has no point of order 9
    code, text = invoke("ramify", "--order", "9", "--ordinary", "2",
                        "--field", "3")
    assert code == 1
    doc = json.loads(text)
    assert doc["passed"] is False
    assert doc["error"] == "no point of order 9 found in 256 trials"


def test_ramify_ordinary_wild():
    doc = payload("ramify", "--order", "5", "--ordinary", "1", "--field", "4")
    assert doc["model"] == "ordinary"
    assert doc["index"] == 2 and doc["tame"] is False
    assert doc["different_exponent"] == 2
    assert doc["ramified_indices"] == [5, 5, 2]


def test_hyper_genus_two_report():
    doc = payload("hyper", "--genus", "2", "--field", "1")
    assert doc["lpoly"] == [1, 0, 0, 0, 4]
    assert doc["supersingular"] is True
    assert doc["jacobian_order"] == 5
    assert doc["sample_class_order"] == 5
    assert doc["certificate"]["slopes"] == ["1/2"]


def test_hyper_passed_is_a_real_check(monkeypatch):
    HyperellipticCurve(GF(1), 2).lpoly()  # L comes from the true counts
    true_count = HyperellipticCurve.count_points
    monkeypatch.setattr(HyperellipticCurve, "count_points",
                        lambda self: true_count(self) + 2)
    code, text = invoke("hyper", "--genus", "2", "--field", "3")
    assert code == 1
    assert json.loads(text)["passed"] is False


def test_hyper_genus_three_not_supersingular():
    doc = payload("hyper", "--genus", "3", "--field", "1")
    assert doc["supersingular"] is False
    assert doc["certificate"]["slopes"] == ["1/3", "2/3"]


def test_jcheck_report():
    doc = payload("jcheck", "--samples", "10")
    assert doc["samples"] == 10
    assert doc["discriminant_constant"] == "1/1"
    assert doc["all_representative_j_zero"] is True
    assert doc["lame_representatives"] == 19


def test_jcheck_seed_changes_nothing_substantive():
    a = payload("jcheck", "--samples", "5", "--seed", "1")
    b = payload("jcheck", "--samples", "5", "--seed", "2")
    assert a["passed"] and b["passed"]
