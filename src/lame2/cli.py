"""Batch command line emitting machine-readable reports.

Every subcommand delegates to a library operation, embeds that operation's
own assertions, and exits 0 only when everything passed; assertion failures
exit 1 with the offending data in the report, usage errors exit 2.  JSON is
the canonical output (sorted keys, integers and hex strings only, schema
version field); CSV is a lossy tabular projection of the same data.  Equal
invocations produce byte-identical output.  Flags are read from one table,
_COMMANDS, as --flag value or --flag=value, by full name only, each checked
against the range of values its entry allows; --help on its own or after a
subcommand returns the usage the table gives, with exit 0.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from types import SimpleNamespace

from .arith import power_sum
from .common import INFINITY, FieldInputError, VerificationError
from .gf2 import GF
from .weierstrass import _MAX_COUNT_DEGREE, _torsion_point, curve_invariants
from .lame import (
    _CLASSIFIED_UP_TO,
    _MAX_CENSUS_DEGREE,
    _MAX_ORDER,
    classify_torsion,
    cover_profile,
    eta_paper,
    degree_count_true,
    lame_count_dividing,
    moduli_census,
    ordinary_torsion_point,
)
from .triples import (
    enumerate_triples,
    expected_class_count,
    lifting_count_check,
)
from .moduli12 import (
    WeightedPoint,
    discriminant_formula,
    j_formula,
    tate_normal_form,
)
from .hyper import (
    HyperellipticCurve,
    class_of_point_pair,
    divisor_class_order,
    is_supersingular,
)

SCHEMA = 1
_OPEN = sys.maxsize  # the stop of a range with no upper bound
# the orders whose Lame representatives jcheck puts in Tate normal form
_JCHECK_ORDERS = range(3, 14, 2)
# jcheck's CSV header, also on a failed sample, before any representative
_JCHECK_HEADER = ["samples", "lame_representatives", "passed"]


# the writers of the dict values json.dumps writes from their exact type alone
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__}
# (keys, their types, indent) -> [(text up to the value, key)] sorted by str,
# the last of equal strs kept; keyed by type too, as 1 == True prints apart
_PLANS = {}


def _write(out: list, v, nl: str):
    """Append v as json.dumps(v, sort_keys=True, indent=2) writes it at the
    line prefix nl, reading INFINITY as "infinity", a Fraction as "p/q", a
    tuple as a list, dict keys through str and an object by its to_json.
    A dict is written by its shape's plan, its leaf values without a call."""
    if isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif type(v) is int:
        out.append(int.__repr__(v))
    elif isinstance(v, (dict, list, tuple)):
        if not v:
            out.append("{}" if isinstance(v, dict) else "[]")
            return
        inner = nl + "  "
        if isinstance(v, dict):
            close = nl + "}"
            shape = (keys := tuple(v), tuple(map(type, keys)), nl)
            if (plan := _PLANS.get(shape)) is None:
                last = {str(k): k for k in keys}
                plan = _PLANS[shape] = [
                    (("," if i else "{") + inner + encode_basestring_ascii(s)
                     + ": ", last[s]) for i, s in enumerate(sorted(last))]
            for prefix, k in plan:
                if (leaf := _LEAVES.get(type(x := v[k]))) is not None:
                    out.append(prefix + leaf(x))
                else:
                    out.append(prefix)
                    _write(out, x, inner)
        else:
            sep, close = "[" + inner, nl + "]"
            for x in v:
                out.append(sep)
                _write(out, x, inner)
                sep = "," + inner
        out.append(close)
    elif v is INFINITY:
        out.append('"infinity"')
    elif isinstance(v, Fraction):
        out.append(f'"{v.numerator}/{v.denominator}"')
    elif hasattr(v, "to_json"):
        _write(out, v.to_json(), nl)
    elif v is None or isinstance(v, int):
        out.append("null" if v is None else "true" if v is True
                   else "false" if v is False else int.__repr__(v))
    else:
        raise TypeError(f"cannot serialize {v!r}")


def _emit_json(args, report: dict) -> str:
    """The report as canonical JSON, stamped with the schema and command,
    written in one pass by _write."""
    out = []
    _write(out, {"schema": SCHEMA, "command": args.command, **report}, "\n")
    out.append("\n")
    return "".join(out)


def _csv(rows, header) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _output(args, report: dict, header, rows) -> tuple:
    """(text, exit code): the report as JSON, or `rows` (consumed only
    then) under `header` as CSV; exit 0 only if the report passed."""
    text = (_csv(rows, header) if args.format == "csv"
            else _emit_json(args, report))
    return text, 0 if report["passed"] else 1


class UsageError(Exception):
    pass


# -- subcommands -----------------------------------------------------------------


def cmd_classify(args) -> tuple:
    n = args.order
    classes = classify_torsion(n)
    expected = expected_class_count(n)
    report = {
        "order": n,
        "count": len(classes),
        "expected": expected,
        "classes": classes,
        "passed": len(classes) == expected,
    }
    return _output(args, report,
                   ["n", "field_degree", "rho_hex", "moduli_degree"],
                   ((n, c.rho_value.ctx.degree, format(c.rho_value.bits, "x"),
                     c.moduli_degree) for c in classes))


def _profile_json(profile) -> list:
    return [{"value": value,
             "points": [{"point": pt, "e": e, "d": d} for pt, e, d in fib]}
            for value, fib in profile.items()]


def cmd_ramify(args) -> tuple:
    n = args.order
    seed = args.seed
    if args.ordinary is not None:
        if args.field is None:
            raise UsageError("--ordinary needs --field")
        ctx = GF(args.field)
        try:
            t = ctx.from_hex(args.ordinary)
        except FieldInputError as e:
            raise UsageError("--ordinary expects a hex string of at most "
                             f"{args.field} bits, got {args.ordinary!r} ({e})")
        if not t:
            raise UsageError("ordinary coefficient t must be nonzero")
        P = ordinary_torsion_point(t, n, seed)[1]
        want_index, want_tame = 2, False
    elif args.field is not None:
        raise UsageError("--field needs --ordinary")
    else:
        # the point torsion_basis(n, seed) gives first, without its partner
        P = _torsion_point(n, random.Random(seed))[2]
        want_index, want_tame = 3, True
    rep = cover_profile(P, n)
    indices = [e for fib in rep["profile"].values() for _p, e, _d in fib]
    report = {
        "order": n,
        "model": rep["model"],
        "field_degree": rep["field_degree"],
        "branch_datum": sorted(indices, reverse=True),
        "ramified_indices": sorted((e for e in indices if e > 1),
                                   reverse=True),
        "index": rep["index"],
        "different_exponent": rep["different_exponent"],
        "tame": rep["tame"],
        "signature": rep["signature"],
        "third_point": rep["third_point"],
        "third_value": rep["third_value"],
        "profile": _profile_json(rep["profile"]),
        "passed": rep["index"] == want_index and rep["tame"] == want_tame
        and sum(d for fib in rep["profile"].values()
                for _p, _e, d in fib) == 2 * n,
    }
    return _output(args, report, ["n", "value", "e", "d"],
                   ((n, "infinity" if v is INFINITY else format(v.bits, "x"),
                     e, d) for v, fib in rep["profile"].items()
                    for _p, e, d in fib))


def cmd_counts(args) -> tuple:
    table = []
    passed = True
    for n in range(3, args.max_n + 1, 2):
        row = {
            "n": n,
            "classes_dividing": lame_count_dividing(n),
            "classes_exact": expected_class_count(n),
        }
        if n <= _CLASSIFIED_UP_TO:
            row["classified"] = len(classify_torsion(n))
            if row["classified"] != row["classes_exact"]:
                passed = False
        table.append(row)
    report = {"max_n": args.max_n, "table": table, "passed": passed}
    return _output(args, report, ["n", "dividing", "exact", "classified"],
                   ((r["n"], r["classes_dividing"], r["classes_exact"],
                     r.get("classified", "")) for r in table))


def cmd_triples(args) -> tuple:
    n = args.degree
    triples = enumerate_triples(n, primitive_only=True)
    check = lifting_count_check(n, triples)
    report = {
        "degree": n,
        "primitive": triples,
        "signature_one": sum(1 for t in triples if t.signature == 1),
        "lifting": check,
        "passed": bool(check["passed"]),
    }
    return _output(args, report,
                   ["n", "a", "b", "c", "signature", "primitive"],
                   ((n, t.a, t.b, t.c, t.signature, int(t.primitive))
                    for t in triples))


def cmd_moduli(args) -> tuple:
    d = args.d
    census = moduli_census(d)
    report = {
        "d": d,
        "count": census["count"],
        "expected": 1 << d,
        "by_degree": census["by_degree"],
        "by_degree_expected": census["by_degree_expected"],
        "eta": eta_paper(d),
        "degree_count": degree_count_true(d),
        "classes": census["classes"],
        "passed": census["count"] == (1 << d),
    }
    return _output(args, report, ["d", "rho_hex", "order", "moduli_degree"],
                   ((d, format(c.rho_value.bits, "x"), c.order,
                     c.moduli_degree) for c in census["classes"]))


def cmd_hyper(args) -> tuple:
    g, d = args.genus, args.field
    C = HyperellipticCurve(GF(d), g)
    L = C.lpoly()
    cert = is_supersingular(L)
    # the first affine point of C.points(), without listing them all
    sample = next((x, ys[0]) for x in C.ctx.elements()
                  if (ys := C.fiber_y(x)))
    order = divisor_class_order(C, class_of_point_pair(C, sample))
    count, N, L1 = C.count_points(), C.jacobian_order(), sum(L)
    report = {
        "genus": g,
        "field_degree": d,
        "lpoly": L,
        "point_count": count,
        "jacobian_order": N,
        "supersingular": cert["supersingular"],
        "certificate": {
            "valuations": cert["valuations"],
            "polygon": cert["polygon"],
            "slopes": [str(s) for s in cert["slopes"]],
        },
        "sample_point": sample,
        "sample_class_order": order,
        # the count matches L, J(F_2) (of order L(1)) is a subgroup of
        # J(F_(2^d)), and the sample class order divides the group order
        "passed": count == (1 << d) + 1 - power_sum(L, d)
        and (N == L1 if d == 1 else N % L1 == 0) and N % order == 0,
    }
    return _output(args, report,
                   ["genus", "field", "lpoly", "supersingular", "class_order"],
                   [(g, d, ".".join(str(c) for c in L),
                     int(cert["supersingular"]), order)])


def _integral_point(pairs) -> tuple:
    """(lam a, lam^2 b, lam^3 c) for the (numerator, denominator) pairs of a, b
    and c, lam the lcm of the denominators: [a : b : c] on ints, its disc
    lam^12 times as large in both forms (weight 12) and its j the same."""
    (na, da), (nb, db), (nc, dc) = pairs
    lam = lcm(da, db, dc)
    return na * (lam // da), nb * (lam // db) * lam, nc * (lam // dc) * lam ** 2


def cmd_jcheck(args) -> tuple:
    rng = random.Random(args.seed)
    matches = 0
    ratios = set()  # weighted discriminant over the formulary one
    while matches < args.samples:
        drawn = [(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(3)]
        if not any(n for n, _d in drawn):
            continue
        a, b, c = _integral_point(drawn)
        p = WeightedPoint(a, b, c)
        inv = curve_invariants(a, b, c, 0, 0)
        disc = discriminant_formula(p)
        want = INFINITY if not disc else Fraction(inv["c4"] ** 3, disc)
        if disc != inv["disc"] or j_formula(p) != want:
            report = {"failed_at": [str(Fraction(n, d)) for n, d in drawn],
                      "passed": False}
            return _output(args, report, _JCHECK_HEADER, [(matches, "", 0)])
        if disc:
            ratios.add(Fraction(disc, inv["disc"]))
        matches += 1
    rep_j = [j_formula(tate_normal_form(cls.representative.curve,
                                        cls.representative))
             for n in _JCHECK_ORDERS for cls in classify_torsion(n)]
    reps = len(rep_j)
    j_zero = all(j == 0 for j in rep_j)
    # None when no sample had a nonzero discriminant
    ratio = ratios.pop() if len(ratios) == 1 else None
    passed = ratio == 1 and j_zero
    report = {
        "samples": matches,
        "seed": args.seed,
        "discriminant_constant": ratio,
        "lame_representatives": reps,
        "all_representative_j_zero": j_zero,
        "passed": passed,
    }
    return _output(args, report, _JCHECK_HEADER,
                   [(matches, reps, int(passed))])


# -- driver ----------------------------------------------------------------------


# name: (subcommand, help line, {flag: (type, default, allowed)}); a required
# flag has the default ..., and allowed is the range of values the flag takes,
# or None for any; each subcommand also takes --json (the default) or --csv
_COMMANDS = {
    "classify": (cmd_classify, "torsion classes of exact order n",
                 {"--order": (int, ..., range(3, _MAX_ORDER + 1, 2))}),
    "ramify": (cmd_ramify, "certified cover branch data",
               {"--order": (int, ..., range(3, 14, 2)),
                "--ordinary": (str, None, None),
                "--field": (int, None, range(1, _MAX_COUNT_DEGREE + 1)),
                "--seed": (int, 0, None)}),
    "counts": (cmd_counts, "class-count table",
               {"--max-n": (int, ..., range(3, _OPEN))}),
    "triples": (cmd_triples, "characteristic-zero triple census",
                {"--degree": (int, ..., range(3, _OPEN, 2))}),
    "moduli": (cmd_moduli, "field-of-moduli census over F_2^d",
               {"--d": (int, ..., range(1, _MAX_CENSUS_DEGREE + 1))}),
    "hyper": (cmd_hyper, "hyperelliptic family reports",
              {"--genus": (int, ..., range(1, 4)),
               "--field": (int, ..., range(1, 13))}),
    "jcheck": (cmd_jcheck, "coordinate formulas vs the formulary",
               {"--samples": (int, 100, range(1, _OPEN)),
                "--seed": (int, 0, None)}),
}


def _span(allowed: range) -> str:
    """The values of allowed, as "1..20", "odd 3..13" or "3.." when open."""
    odd = "odd " if allowed.step == 2 else ""
    top = "" if allowed.stop >= _OPEN else allowed[-1]
    return f"{odd}{allowed.start}..{top}"


def _usage(name) -> tuple:
    """(--help text, exit 0) of the program at name None, else of name."""
    if name is None:
        rows = "".join(f"  {n:<9} {h}\n" for n, (_, h, _) in _COMMANDS.items())
        return ("usage: lame2 <command> [--flag value | --flag=value ...]"
                f" [--json | --csv]\n\ncommands:\n{rows}"), 0
    _func, help_line, flags = _COMMANDS[name]
    shown = []
    for f, (t, d, a) in flags.items():
        arg = f"{f} {t.__name__.upper()}" + (f"({_span(a)})" if a else "")
        shown.append(arg if d is ... else f"[{arg}]")
    return (f"usage: lame2 {name} {' '.join(shown)} [--json | --csv]\n"
            f"{help_line}\n"), 0


def _parse(argv):
    """(subcommand, args) for argv, or (_usage, name) when it asks for
    --help; UsageError for anything else the table does not describe."""
    if argv and argv[0] in ("-h", "--help"):
        return _usage, None
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError("expected a command, one of " + ", ".join(_COMMANDS))
    name, rest = argv[0], iter(argv[1:])
    func, _help, flags = _COMMANDS[name]
    values = {flag: default for flag, (_t, default, _a) in flags.items()}
    fmt = "json"
    for arg in rest:
        if arg in ("-h", "--help"):
            return _usage, name
        if arg in ("--json", "--csv"):
            fmt = arg[2:]
            continue
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            raise UsageError(f"{name} does not take {arg!r}")
        if not eq and (value := next(rest, None)) is None:
            raise UsageError(f"{flag} needs a value")
        try:
            values[flag] = flags[flag][0](value)
        except ValueError:
            raise UsageError(f"{flag} expects an int, got {value!r}")
    if missing := [flag for flag, v in values.items() if v is ...]:
        raise UsageError(f"{name} needs {' and '.join(missing)}")
    for flag, v in values.items():
        if (allowed := flags[flag][2]) and v is not None and v not in allowed:
            raise UsageError(f"{flag} must lie in {_span(allowed)}, got {v}")
    return func, SimpleNamespace(command=name, format=fmt, **{
        flag[2:].replace("-", "_"): v for flag, v in values.items()})


def run(argv) -> tuple:
    """(exit_code, output_text) for a CLI invocation; no printing."""
    try:
        func, args = _parse(argv)
        text, code = func(args)
        return code, text
    except UsageError as e:
        return 2, f"usage error: {e}\n"
    except VerificationError as e:
        return 1, _emit_json(args, {"error": str(e), "passed": False})


def main(argv=None) -> int:
    code, text = run(argv if argv is not None else sys.argv[1:])
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
