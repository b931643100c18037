"""Exit-code contract, determinism, and frozen report fragments."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lame2
from lame2 import HyperellipticCurve, curve_invariants
import lame2.cli as cli
from lame2.cli import SCHEMA, _emit_json, _integral_point, _parse, main, run
from lame2.common import INFINITY
from lame2.gf2 import GF
from lame2.moduli12 import WeightedPoint, discriminant_formula, j_formula
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


@pytest.mark.parametrize("t", ["0x1", "+1", " 1", "1_1"])
def test_ordinary_hex_with_a_prefix_sign_space_or_underscore_is_usage_error(t):
    # int(t, 16) reads each as 1 or 0x11; the usage asks for hex digits
    code, text = invoke("ramify", "--order", "3", "--ordinary", t,
                        "--field", "2")
    assert code == 2
    assert "expects a hex string" in text


@pytest.mark.parametrize("t", ["20", "-1"])
def test_ordinary_hex_outside_the_field_is_usage_error(t):
    # GF(2^4) has 4-bit elements: neither is reduced or wrapped silently
    code, text = invoke("ramify", "--order", "5", "--ordinary", t,
                        "--field", "4")
    assert code == 2
    assert "at most 4 bits" in text


@pytest.mark.parametrize("t, reason", [
    ("-1", "negative hex '-1' is not a field element"),
    ("-0", "negative hex '-0' is not a field element"),
    ("zz", "'zz' is not a hex string"),
    ("20", "hex '20' does not fit in GF(2^4)"),
])
def test_ordinary_refusal_names_its_reason(t, reason, capsys):
    # the usage text, then why the field refused the string, on stderr only
    assert main(["ramify", "--order", "5", "--ordinary", t,
                 "--field", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("usage error: --ordinary expects a hex string of at most"
                   f" 4 bits, got {t!r} ({reason})\n")


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


# -- the argv table ----------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    ([], "expected a command"),
    (["frobnicate", "--order", "3"], "expected a command"),
    (["--order", "3"], "expected a command"),
    (["classify", "--order", "3", "--bogus", "1"], "does not take '--bogus'"),
    (["classify", "--order", "3", "7"], "does not take '7'"),
    (["classify", "--order", "3", "--json=1"], "does not take '--json=1'"),
    (["counts", "--max", "13"], "does not take '--max'"),  # no abbreviations
    (["classify"], "classify needs --order"),
    (["hyper", "--genus", "2"], "hyper needs --field"),
    (["classify", "--order"], "--order needs a value"),
    (["ramify", "--order", "3", "--ordinary"], "--ordinary needs a value"),
    (["classify", "--order", "three"], "--order expects an int, got 'three'"),
    (["classify", "--order=3.0"], "--order expects an int, got '3.0'"),
    (["jcheck", "--seed="], "--seed expects an int, got ''"),
    (["ramify", "--order", "-5", "--ordinary", "-1", "--field=0", "--csv"],
     "--order must lie in odd 3..13, got -5"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_malformed_argv_is_a_usage_error(capsys, argv, message):
    code, text = run(argv)
    assert code == 2
    assert text.startswith("usage error: ") and message in text, text
    assert capsys.readouterr() == ("", "")


# each subcommand's flags, their types, defaults (... for a required one)
# and the ranges of values they take (None for any); no upper bound is a
# range up to sys.maxsize
COMMAND_FLAGS = {
    "classify": {"--order": (int, ..., range(3, 14, 2))},
    "ramify": {"--order": (int, ..., range(3, 14, 2)),
               "--ordinary": (str, None, None),
               "--field": (int, None, range(1, 21)), "--seed": (int, 0, None)},
    "counts": {"--max-n": (int, ..., range(3, sys.maxsize))},
    "triples": {"--degree": (int, ..., range(3, sys.maxsize, 2))},
    "moduli": {"--d": (int, ..., range(1, 9))},
    "hyper": {"--genus": (int, ..., range(1, 4)),
              "--field": (int, ..., range(1, 13))},
    "jcheck": {"--samples": (int, 100, range(1, sys.maxsize)),
               "--seed": (int, 0, None)},
}


def test_flag_table_pinned():
    assert {name: flags for name, (_cmd, _help, flags)
            in cli._COMMANDS.items()} == COMMAND_FLAGS


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_help_lists_the_commands(capsys, argv):
    code, text = run(argv)
    assert code == 0
    assert text.startswith("usage: lame2 <command>")
    for name in COMMAND_FLAGS:
        assert f"\n  {name} " in text, name
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name", sorted(COMMAND_FLAGS))
def test_command_help_lists_its_flags(capsys, name):
    for argv in ([name, "--help"], [name, "-h"], [name, "-h", "--bogus"]):
        code, text = run(argv)
        assert code == 0
        assert text.startswith(f"usage: lame2 {name} ")
        for flag in [*COMMAND_FLAGS[name], "--json", "--csv"]:
            assert flag in text, (name, flag)
    assert capsys.readouterr() == ("", "")


# (command, flag, range) of every flag whose values the table bounds
RANGED = [(name, flag, allowed)
          for name, (_c, _h, flags) in cli._COMMANDS.items()
          for flag, (_t, _d, allowed) in flags.items() if allowed]


def _with(name, flag, value):
    """An argv of name with flag at value and every other required flag at
    the least value it takes."""
    argv = [name]
    for other, (_t, default, allowed) in cli._COMMANDS[name][2].items():
        if other != flag and default is ...:
            argv += [other, str(allowed.start)]
    return argv + [flag, str(value)]


@pytest.mark.parametrize("name, flag, allowed", RANGED,
                         ids=[f"{n} {f}" for n, f, _a in RANGED])
def test_every_flag_range_holds_at_both_ends(capsys, name, flag, allowed):
    first, last = allowed.start, allowed[-1]
    for value in (first, last):
        _func, args = _parse(_with(name, flag, value))
        assert getattr(args, flag[2:].replace("-", "_")) == value
    outside = [first - 1, last + 1]
    if allowed.step == 2:  # an odd range refuses the even values within
        outside += [first - 2, last + 2, first + 1]
    for value in outside:
        assert main(_with(name, flag, value)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: {flag} must lie in "), err
        assert err.endswith(f", got {value}\n"), err
    assert f"{flag} INT({cli._span(allowed)})" in run([name, "--help"])[1]


def test_command_help_prints_each_bound():
    assert run(["ramify", "--help"]) == (0, (
        "usage: lame2 ramify --order INT(odd 3..13) [--ordinary STR]"
        " [--field INT(1..20)] [--seed INT] [--json | --csv]\n"
        "certified cover branch data\n"))
    assert run(["counts", "-h"])[1].startswith(
        "usage: lame2 counts --max-n INT(3..) [--json | --csv]\n")


def reference_parser():
    """The argparse parser the table replaced, for the argvs both accept."""
    top = argparse.ArgumentParser(prog="lame2")
    sub = top.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag, (kind, default, _allowed) in flags.items():
            if default is ...:
                p.add_argument(flag, type=kind, required=True)
            else:
                p.add_argument(flag, type=kind, default=default)
        p.add_argument("--json", dest="format", action="store_const",
                       const="json", default="json")
        p.add_argument("--csv", dest="format", action="store_const",
                       const="csv")
    return top


@pytest.mark.parametrize("argv", [
    ["classify", "--order", "3"],
    ["ramify", "--seed", "2", "--order=7", "--seed=3", "--json"],
    ["counts", "--csv", "--max-n", "+13", "--json"],
    ["triples", "--degree", " 101 "],
    ["moduli", "--d", "4"],
    ["hyper", "--field", "12", "--genus", "3"],
    ["jcheck"],
    ["jcheck", "--samples=1_000", "--csv"],
], ids=lambda argv: " ".join(argv))
def test_table_parses_like_the_argparse_reference(argv):
    func, args = _parse(argv)
    assert func is cli._COMMANDS[argv[0]][0]
    assert vars(args) == vars(reference_parser().parse_args(argv))


@pytest.mark.parametrize("spaced, joined", [
    (["classify", "--order", "3"], ["classify", "--order=3"]),
    (["ramify", "--order", "5", "--ordinary", "1", "--field", "3", "--csv"],
     ["ramify", "--csv", "--field=3", "--ordinary=1", "--order=5"]),
    (["jcheck", "--samples", "4", "--seed", "2"],
     ["jcheck", "--seed=7", "--samples=4", "--seed=2", "--json"]),
], ids=["classify", "ramify", "jcheck"])
def test_flag_equals_value_gives_the_same_bytes(spaced, joined):
    # flags in any order, the last of a repeated flag winning
    assert run(joined) == run(spaced)
    assert run(spaced)[0] == 0


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


# each library cap, by the module that owns it
LIBRARY_CAPS = ["lame._MAX_ORDER", "lame._MAX_CENSUS_DEGREE",
                "weierstrass._MAX_COUNT_DEGREE"]


@pytest.mark.parametrize("cap", LIBRARY_CAPS + [
    f"{name} {flag}" for name, flag, allowed in RANGED
    if allowed.stop < sys.maxsize])
def test_raising_one_cap_leaves_the_reports_unchanged(monkeypatch, cap):
    # each cap is raised to take order 101, one at a time: a command's
    # range in the table, or a library cap in every module that binds it
    if "." in cap:
        owner, attr = cap.split(".")
        raised = max(getattr(getattr(lame2, owner), attr), 101)
        for module in [m for k, m in sys.modules.items()
                       if k.startswith("lame2") and hasattr(m, attr)]:
            monkeypatch.setattr(module, attr, raised)
    else:
        name, flag = cap.split()
        flags = cli._COMMANDS[name][2]
        kind, default, allowed = flags[flag]
        monkeypatch.setitem(flags, flag, (kind, default, range(
            allowed.start, max(allowed.stop, 102), allowed.step)))
    for argv in ["jcheck --samples 100", "triples --degree 101",
                 "counts --max-n 13"]:
        code, text = invoke(*argv.split())
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[argv], argv


# SHA-256 of the canonical JSON of argvs the benchmark leaves out: the
# census at the top of its range, which runs the most root splitting, an
# ordinary cover that embeds the subfield lattice of GF(2^840), and one
# whose third fiber lists Frobenius orbits over large fields
PINNED_DIGESTS = {
    "moduli --d 8":
        "57773987c1c9a557084b3902b5e54950844d7df87afe95f44a138b2b3cb77d9b",
    "ramify --order 13 --ordinary 1 --field 2":
        "ad268c0db0f960d91cd06fef883caafbf866b174587e4c641374cb9e0da031af",
    "ramify --order 13 --ordinary 2 --field 3":
        "6e555e0e190878661fd04cd993db2496e71ad6a6fe003e49f594c5f4e65103f4",
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


# sha256 of each demo's stdout; a demo prints only exact, seeded results
DEMO_DIGESTS = {
    "01_torsion_classes.py":
        "ebc5e0ef6e10d830b65cbf4f27269152bf740b1bb65dc9a0b3f0613a08989653",
    "02_cover_branch_data.py":
        "1aafe61f3f5fada4ee671c893da5d238b73c1f9dc978bcf504cd1cba07b55e99",
    "03_moduli_census.py":
        "66c9150b4292819cf4930458e83a4d194cd1cbcc3cecd1b54beb1b452308d39e",
    "04_triples.py":
        "f9f398e42c9a9755a1cec9177c186323ffdfe190c4bb288a49dfdf9147d002e0",
    "05_weighted_coordinates.py":
        "8eda4c7072b4b206b877699fbc25836c289ff715294470ce86c473e2d978547b",
    "06_hyperelliptic.py":
        "720310fdfc3bccde8f676118ca7aa4a1ef2467afc64819174fcffdd9d064faa3",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=_src_env())
    assert done.returncode == 0, done.stderr[-2000:]
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == \
        DEMO_DIGESTS[demo.name]


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
tate_normal_form third_point_datum torsion_basis
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


_COUNTING_CHILD = """
import functools, json, sys
sys.path.insert(0, sys.argv[1])
from lame2 import cli, gf2, hyper, lame, weierstrass
calls = {}
def counted(owner, name):
    real = getattr(owner, name)
    key = real.__qualname__
    @functools.wraps(real)
    def wrapper(*args):
        calls[key] = calls.get(key, 0) + 1
        return real(*args)
    setattr(owner, name, wrapper)
for module, name in [(lame, "_verify_aut_group"), (lame, "_act"),
                     (lame, "_compose"), (hyper, "cantor_add"),
                     (weierstrass, "_add_pairs"), (gf2, "poly_roots"),
                     (weierstrass.WeierstrassCurve, "__init__")]:
    counted(module, name)
for owner, name in [(weierstrass, "_add_pairs"), (gf2, "poly_roots")]:
    for module in [m for k, m in sys.modules.items() if k.startswith("lame2")]:
        if hasattr(module, name):  # one counter for every binding
            setattr(module, name, getattr(owner, name))
split, real_gcd = gf2._split_once.__code__, gf2.Poly.gcd
def gcd(a, b):  # every gcd, and a split trial is one gcd in _split_once
    calls["gcd"] = calls.get("gcd", 0) + 1
    if sys._getframe(1).f_code is split:
        calls["trial"] = calls.get("trial", 0) + 1
    return real_gcd(a, b)
gf2.Poly.gcd = gcd
code, _ = cli.run(sys.argv[2:])
print(json.dumps(dict(calls, exit=code, _EMBED_GEN=len(gf2._EMBED_GEN))))
"""


def _cold_counts(*argv):
    """Call counts of one CLI run in a fresh interpreter, so no cache that
    an earlier test filled (_AUT_CACHE, _classify_torsion) lowers them."""
    src = os.path.dirname(os.path.dirname(lame2.__file__))
    out = subprocess.run([sys.executable, "-c", _COUNTING_CHILD, src, *argv],
                         capture_output=True, text=True, check=True).stdout
    counts = json.loads(out)
    assert counts.pop("exit") == 0
    return counts


def test_cold_process_operation_counts():
    # Isom(E) is certified once per process, over F_4: the 48 left products
    # of the two generators with the 24 keys, then the two generators both
    # ways round (629 when all 576 pairs were composed); 192 actions for the
    # F_4 permutations, 24 per other field and 24 per class orbit, plus the
    # two generators on the basis.  The classes are integer orbits: tables
    # of multiples of the basis, two discrete logs and one addition per
    # orbit (913 and 315 additions when every exact-order point was built).
    # Y^2 + Y = X^3 is built once per field (13 curves when built per call)
    for argv, most, curves in [(("counts", "--max-n", "13"), 450, 6),
                               (("classify", "--order", "13"), 130, 2)]:
        counts = _cold_counts(*argv)
        assert counts["_verify_aut_group"] == 1
        assert counts["_compose"] == 50
        assert counts["_act"] <= 850
        assert counts["_add_pairs"] <= most, (argv, counts)
        assert counts["WeierstrassCurve.__init__"] == curves, (argv, counts)
    assert _cold_counts("jcheck", "--samples", "100")[
        "WeierstrassCurve.__init__"] == 6  # was 13
    # orders from one multiple per prime: a product tree that stops at the
    # identity, then steps by p; cantor_mul adds no identity term
    assert _cold_counts("hyper", "--genus", "3", "--field", "12") == {
        "cantor_add": 57, "_EMBED_GEN": 0}
    # the census solves (x^4+x)^3 = c without root finding, on one curve
    # per field (25 when built per call); its six embedding pairs fix 25
    # generator images, every subfield pair of theirs, as each subfield is
    # reached through a chain of maximal ones; it reads only the least
    # factor degree of each (x^4+x)^3 + c, so the factorisation stops at
    # its first factor (122 gcds when it stripped every factor found)
    assert _cold_counts("moduli", "--d", "4") == {
        "_add_pairs": 446, "WeierstrassCurve.__init__": 5, "_EMBED_GEN": 25,
        "trial": 28, "gcd": 88}


def test_tame_ramify_draws_one_point():
    # the cover is f_P for one point P: no partner Q is drawn or checked
    # for independence (116 additions when torsion_basis drew both)
    counts = _cold_counts("ramify", "--order", "13")
    assert counts["_add_pairs"] <= 59, counts
    # the third fiber is listed by places over P's field: the linear
    # factors of one distinct-degree factorisation split on their own rows,
    # in as many trials as poly_roots took on the same roots, and no root is
    # sought over the splitting field (1 poly_roots call before)
    assert "poly_roots" not in counts and counts["trial"] == 17, counts


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


# -- the JSON writer against json.dumps ------------------------------------------


def reference_jsonable(v):
    """The tree json.dumps is given: the copy the one-pass writer replaced."""
    if v is INFINITY:
        return "infinity"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {str(k): reference_jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [reference_jsonable(x) for x in v]
    if hasattr(v, "to_json"):
        return reference_jsonable(v.to_json())
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    raise TypeError(f"cannot serialize {v!r}")


class _Record:
    """An object that serializes through to_json, like the library's."""

    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


_LEAVES = st.one_of(
    st.integers(), st.booleans(), st.none(), st.just(INFINITY),
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x1f)),
    st.fractions(), st.sampled_from([GF(4)(9), GF(2).zero]))
_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=4),
    inner.map(_Record)), max_leaves=30)

_PROBE = types.SimpleNamespace(command="probe")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(), _REPORTS, max_size=5))
@example({"keys": {2: "two", 10: "ten"}, "empty": [{}, [], ()],
          "odd": [Fraction(-3, 4), INFINITY, True, False, None, 0],
          "text": "\u00e9\u2603\x00\x1f\"\\", "rec": _Record(INFINITY)})
# one key set in two insertion orders, at one indent and at two; keys that
# are equal but print apart, and int keys whose strings collide
@example({"p": {"a": 1, "b": [2]}, "q": {"b": [2], "a": 1},
          "r": [{"b": {"a": 0, "b": 1}}, {"b": 1, "a": 0}],
          "s": [{True: 0}, {1: 0}, {1: "int", "1": "str"}, {"1": 0, 1: 1}]})
def test_emit_json_equals_json_dumps_of_the_reference(report):
    stamped = {"schema": SCHEMA, "command": "probe", **report}
    assert _emit_json(_PROBE, report) == json.dumps(
        reference_jsonable(stamped), sort_keys=True, indent=2) + "\n"


def test_emit_json_sorts_int_keys_as_strings():
    text = _emit_json(_PROBE, {"t": {2: 0, 10: 1}})
    assert text.index('"10"') < text.index('"2"')


@pytest.mark.parametrize("report", [{"x": 1.5}, {"x": [{"y": 0.0}]},
                                    {"x": _Record(2.5)}])
def test_emit_json_refuses_floats(report):
    with pytest.raises(TypeError, match="cannot serialize"):
        _emit_json(_PROBE, report)
    with pytest.raises(TypeError, match="cannot serialize"):
        reference_jsonable(report)


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


# SHA-256 of the canonical JSON of `jcheck --samples 500 --seed <s>`, taken
# while the samples were checked on Fraction coordinates
JCHECK_DIGESTS = {
    1: "2bc4d7dd38c611284e5459deb0d09ae02279ff6460d34b3e616928d1b1fac8d3",
    2: "a36283cc7c333c18d5cd9bfb231883f204cfa4ac18834687026dc2dcd830f41b",
    3: "f6eff6f5553863d69a8f5b93e54999b80f2f7aab72ec38b8f58400fcd536368e",
}


@pytest.mark.parametrize("seed", sorted(JCHECK_DIGESTS))
def test_jcheck_digests_pinned(seed):
    code, text = invoke("jcheck", "--samples", "500", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == JCHECK_DIGESTS[seed]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.fractions(max_denominator=50).filter(
    lambda v: abs(v.numerator) < 10 ** 6), min_size=3, max_size=3).filter(any))
@example([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)])
@example([Fraction(0), Fraction(0), Fraction(-7, 9)])
def test_integral_point_keeps_disc_and_j(abc):
    # the integral point is (lam a, lam^2 b, lam^3 c): disc has weight 12 in
    # both forms and j weight 0
    a, b, c = abc
    ints = _integral_point([(v.numerator, v.denominator) for v in abc])
    assert all(type(v) is int for v in ints)
    lam = lcm(a.denominator, b.denominator, c.denominator)
    assert ints == (lam * a, lam ** 2 * b, lam ** 3 * c)
    p, q = WeightedPoint(*ints), WeightedPoint(a, b, c)
    disc = curve_invariants(*ints, 0, 0)["disc"]
    assert disc == lam ** 12 * curve_invariants(a, b, c, 0, 0)["disc"]
    assert discriminant_formula(p) == lam ** 12 * discriminant_formula(q)
    assert disc == discriminant_formula(p)
    j = j_formula(p)
    assert j == j_formula(q)
    assert j is INFINITY or type(j) is Fraction


@pytest.mark.parametrize("wrong", ["discriminant_formula", "j_formula"])
def test_jcheck_reports_the_failing_sample(monkeypatch, wrong):
    # the first sample fails, so no representative is counted: --csv leaves
    # that cell empty, and --json names the sample
    real = getattr(cli, wrong)
    monkeypatch.setattr(cli, wrong, lambda p: real(p) + 1)
    assert invoke("jcheck", "--samples", "5", "--csv") == (
        1, "samples,lame_representatives,passed\n0,,0\n")
    code, text = invoke("jcheck", "--samples", "5", "--json")
    assert code == 1
    assert json.loads(text) == {"schema": 1, "command": "jcheck",
                                "failed_at": ["-1/14", "-89/9", "31/16"],
                                "passed": False}


def test_jcheck_reports_a_representative_with_nonzero_j(monkeypatch):
    # every representative's j goes into the one report: a nonzero j fails
    # it with exit 1, in JSON and in CSV alike
    monkeypatch.setattr(cli, "tate_normal_form",
                        lambda curve, point: WeightedPoint(1, 2, 3))
    code, text = invoke("jcheck", "--samples", "5")
    doc = json.loads(text)
    assert code == 1
    assert doc["all_representative_j_zero"] is False
    assert doc["passed"] is False and doc["lame_representatives"] == 19
    assert invoke("jcheck", "--samples", "5", "--csv") == (
        1, "samples,lame_representatives,passed\n5,19,0\n")


def test_jcheck_seed_changes_nothing_substantive():
    a = payload("jcheck", "--samples", "5", "--seed", "1")
    b = payload("jcheck", "--samples", "5", "--seed", "2")
    assert a["passed"] and b["passed"]
