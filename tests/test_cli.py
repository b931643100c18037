"""Exit-code contract, determinism, and frozen report fragments."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lame2
from lame2 import HyperellipticCurve
from lame2.cli import main, run
from lame2.gf2 import GF
from lame2.triples import triples_csv


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


def test_field_without_ordinary_is_usage_error():
    code, text = invoke("ramify", "--order", "3", "--field", "3")
    assert code == 2
    assert "--ordinary" in text


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


@pytest.mark.parametrize("field", ["0", "-1", "21"])
def test_ordinary_field_outside_the_enumerable_range_is_usage_error(field):
    # count_points enumerates GF(2^d) for 1 <= d <= 20 only
    code, text = invoke("ramify", "--order", "3", "--ordinary", "1",
                        "--field", field)
    assert code == 2
    assert "--field must lie in 1..20" in text


def test_bad_counts_bound():
    assert invoke("counts", "--max-n", "1")[0] == 2


def test_bad_moduli_degree():
    assert invoke("moduli", "--d", "9")[0] == 2


def test_bad_genus_and_field():
    assert invoke("hyper", "--genus", "4", "--field", "1")[0] == 2
    assert invoke("hyper", "--genus", "1", "--field", "0")[0] == 2


def test_even_triple_degree_rejected():
    assert invoke("triples", "--degree", "6")[0] == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--order", "3"],
    ["counts", "--max-n", "3"],
    ["triples", "--degree", "3"],
    ["moduli", "--d", "2"],
    ["hyper", "--genus", "1", "--field", "3"],
], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_where_unread(argv):
    assert invoke(*argv)[0] == 0
    assert invoke(*argv, "--seed", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    ["ramify", "--order", "3"],
    ["jcheck", "--samples", "3"],
], ids=lambda argv: argv[0])
def test_seed_is_accepted_where_read(argv):
    assert payload(*argv, "--seed", "1")["passed"] is True


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


# SHA-256 of the canonical JSON of every benchmark argv, pinned across
# library versions; perfbench/golden.py writes the file
GOLDEN_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "golden.json")
with open(GOLDEN_FILE) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_digests(argv):
    code, text = invoke(*argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[argv]


# SHA-256 of the canonical JSON of argvs the benchmark leaves out: the
# census at the top of its range, which runs the most root splitting
PINNED_DIGESTS = {
    "moduli --d 8":
        "57773987c1c9a557084b3902b5e54950844d7df87afe95f44a138b2b3cb77d9b",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DIGESTS))
def test_pinned_digests(argv):
    code, text = invoke(*argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[argv]


# SHA-256 of the --csv output of each subcommand, taken before the CSV and
# JSON output of the subcommands moved into one helper
CSV_DIGESTS = {
    "classify --order 5":
        "8902430ac748190e923c4b838b67f4205a738345748058537672905eeb90d881",
    "ramify --order 5":
        "6701dc8185aa483ec2518ccb2b4a555f5dcd18fe2723013a18293c29fd23d01a",
    "ramify --order 5 --ordinary 1 --field 3":
        "30a35d5cec4ac716d8160a540d1471cf3bdce9826fcc979d5662e80ac549aa92",
    "counts --max-n 21":
        "a608674ae8de967ae62a0cade3453e144fd07b134e5b4ea3dd7eaa3b68e38d52",
    "triples --degree 9":
        "d230c397f8d864206af924a9cc4075ad2de9d4093859d74dbe0f6f50c287d4d0",
    "moduli --d 3":
        "7236da34f23cd953234f69a0bf98b0e15d1e8048d7e24120a3670c3a7c2b92a0",
    "hyper --genus 2 --field 5":
        "3ff949dc60819ab3c7285e1cd32aa992568e529a712833cf19db4ddb46ce5bf8",
    "jcheck --samples 20":
        "044b411de3c0413c8b908724e0a1e00db14d59b4767496732452e0ac2623543d",
}


@pytest.mark.parametrize("argv", sorted(CSV_DIGESTS))
def test_csv_digests(argv):
    code, text = invoke(*argv.split(), "--csv")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_DIGESTS[argv]


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(lame2.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")]
                                    if p])
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("module", ["lame2", "lame2.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = _src_env()

    def call(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env)

    ok = call("classify", "--order", "3")
    assert ok.returncode == 0
    assert hashlib.sha256(ok.stdout.encode()).hexdigest() == \
        GOLDEN["classify --order 3"]
    bad = call("classify", "--order", "4")
    assert bad.returncode == 2
    assert bad.stdout == "" and "odd" in bad.stderr


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with no cases
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=_src_env())
    assert done.returncode == 0, done.stderr[-2000:]


def test_traced_layers_resolve():
    # every function the traced benchmark wraps is where perfbench/layers.py
    # says, so a rename fails here and not in a traced run; Tracer.install
    # reads a method from its class's own __dict__, so the test does too
    path = Path(__file__).parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for name, modname, attr in layers.TARGETS:
        owner = importlib.import_module(modname)
        *parents, leaf = attr.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = owner.__dict__[leaf] if isinstance(owner, type) \
            else getattr(owner, leaf)
        assert callable(fn), name


# the public names of the package, so that every addition or removal shows
# in a diff
PUBLIC_NAMES = """
CurveFunction CurvePoint FiberEscapeError FieldContext FieldElement
FieldInputError GF HyperellipticCurve INFINITY LameClass
MumfordDivisor Poly PrecisionError ProfileFalsified Series
TorsionSearchExhausted Triple VerificationError WeierstrassCurve
WeightedPoint aut_group aut_orbit cantor_add cantor_mul
class_of_point_pair classify_torsion cover_profile curve_invariants
cyclic_class_count degree_count_true different_exponent differentiate
discriminant_formula divisor_class_order element_degree embed
enumerate_triples eta_paper expected_class_count extension_order fiber
forgetful galois_equivariance_check is_supersingular j_formula
jacobian_order lame_count_dividing lexmin_irreducible lifting_count_check
local_expand miller_function moduli_census
ordinary_torsion_point point_of_exact_order point_order poly_roots psi
ramification_index ramification_profile rho
solve_artin_schreier supersingular_order
supersingular_trace tate_normal_form third_point_datum torsion_basis
torsion_field_degree torsion_points trace triples_csv
wp_equal xy_expansion zeta_lpoly
""".split()


def test_public_names_pinned():
    names = sorted(name for name, value in vars(lame2).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


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
    for n in (5, 9, 101):
        code, text = invoke("triples", "--degree", str(n), "--csv")
        assert code == 0
        assert text == triples_csv(n, primitive_only=True), n


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


@pytest.mark.parametrize("wrong", ["discriminant_formula", "j_formula"])
def test_jcheck_reports_the_failing_sample(monkeypatch, wrong):
    import lame2.cli as cli
    real = getattr(cli, wrong)
    monkeypatch.setattr(cli, wrong, lambda p: real(p) + 1)
    code, text = invoke("jcheck", "--samples", "5", "--csv")
    assert code == 1
    assert json.loads(text) == {"schema": 1, "command": "jcheck",
                                "failed_at": ["-1/14", "-89/9", "31/16"],
                                "passed": False}


def test_jcheck_seed_changes_nothing_substantive():
    a = payload("jcheck", "--samples", "5", "--seed", "1")
    b = payload("jcheck", "--samples", "5", "--seed", "2")
    assert a["passed"] and b["passed"]
