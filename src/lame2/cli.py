"""Batch command line emitting machine-readable reports.

Every subcommand delegates to a library operation, embeds that operation's
own assertions, and exits 0 only when everything passed; assertion failures
exit 1 with the offending data in the report, usage errors exit 2.  JSON is
the canonical output (sorted keys, integers and hex strings only, schema
version field); CSV is a lossy tabular projection of the same data.  Equal
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import random
import sys
from fractions import Fraction

from .common import INFINITY, VerificationError
from .gf2 import GF
from .weierstrass import curve_invariants, torsion_basis
from .lame import (
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
    _power_sum,
    class_of_point_pair,
    divisor_class_order,
    is_supersingular,
)

SCHEMA = 1


def _jsonable(v):
    if v is INFINITY:
        return "infinity"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "to_json"):
        return _jsonable(v.to_json())
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    raise TypeError(f"cannot serialize {v!r}")


def _emit_json(report: dict) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def _csv(rows, header) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _output(args, report: dict, header, rows) -> tuple:
    """(text, exit code): the report as JSON, or `rows` (consumed only
    then) under `header` as CSV; exit 0 only if the report passed."""
    text = _csv(rows, header) if args.format == "csv" else _emit_json(report)
    return text, 0 if report["passed"] else 1


class UsageError(Exception):
    pass


def _odd_order(n: int) -> int:
    if n % 2 == 0 or not 3 <= n <= _MAX_ORDER:
        raise UsageError(f"order must be odd with 3 <= n <= {_MAX_ORDER}, got {n}")
    return n


# -- subcommands -----------------------------------------------------------------


def cmd_classify(args) -> tuple:
    n = _odd_order(args.order)
    classes = classify_torsion(n)
    expected = expected_class_count(n)
    report = {
        "schema": SCHEMA,
        "command": "classify",
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
    n = _odd_order(args.order)
    seed = args.seed
    if args.ordinary is not None:
        if args.field is None:
            raise UsageError("--ordinary needs --field")
        if not 1 <= args.field <= 20:  # the fields count_points enumerates
            raise UsageError(f"--field must lie in 1..20, got {args.field}")
        ctx = GF(args.field)
        try:
            t = ctx.from_hex(args.ordinary)
        except ValueError:
            raise UsageError("--ordinary expects a hex string of at most "
                             f"{args.field} bits, got {args.ordinary!r}")
        if not t:
            raise UsageError("ordinary coefficient t must be nonzero")
        curve, P, _ = ordinary_torsion_point(t, n, seed)
        want_index, want_tame = 2, False
    elif args.field is not None:
        raise UsageError("--field needs --ordinary")
    else:
        curve, P, _ = torsion_basis(n, seed)
        want_index, want_tame = 3, True
    rep = cover_profile(P, n)
    indices = [e for fib in rep["profile"].values() for _p, e, _d in fib]
    report = {
        "schema": SCHEMA,
        "command": "ramify",
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
    top = args.max_n
    if top < 3:
        raise UsageError("--max-n must be at least 3")
    table = []
    passed = True
    for n in range(3, top + 1, 2):
        row = {
            "n": n,
            "classes_dividing": lame_count_dividing(n),
            "classes_exact": expected_class_count(n),
        }
        if n <= _MAX_ORDER:
            row["classified"] = len(classify_torsion(n))
            if row["classified"] != row["classes_exact"]:
                passed = False
        table.append(row)
    report = {"schema": SCHEMA, "command": "counts", "max_n": top,
              "table": table, "passed": passed}
    return _output(args, report, ["n", "dividing", "exact", "classified"],
                   ((r["n"], r["classes_dividing"], r["classes_exact"],
                     r.get("classified", "")) for r in table))


def cmd_triples(args) -> tuple:
    n = args.degree
    if n < 3 or n % 2 == 0:
        raise UsageError("--degree must be odd and at least 3")
    triples = enumerate_triples(n, primitive_only=True)
    check = lifting_count_check(n)
    report = {
        "schema": SCHEMA,
        "command": "triples",
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
    if not 1 <= d <= _MAX_CENSUS_DEGREE:
        raise UsageError(f"--d must lie in 1..{_MAX_CENSUS_DEGREE}")
    census = moduli_census(d)
    report = {
        "schema": SCHEMA,
        "command": "moduli",
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
    if g < 1 or g > 3:
        raise UsageError("--genus must lie in 1..3")
    if d < 1 or d > 12:
        raise UsageError("--field must lie in 1..12")
    C = HyperellipticCurve(GF(d), g)
    L = C.lpoly()
    cert = is_supersingular(L)
    # the first affine point of C.points(), without listing them all
    sample = next((x, ys[0]) for x in C.ctx.elements()
                  if (ys := C.fiber_y(x)))
    order = divisor_class_order(C, class_of_point_pair(C, sample))
    count, N, L1 = C.count_points(), C.jacobian_order(), sum(L)
    report = {
        "schema": SCHEMA,
        "command": "hyper",
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
        "passed": count == (1 << d) + 1 - _power_sum(L, d)
        and (N == L1 if d == 1 else N % L1 == 0) and N % order == 0,
    }
    return _output(args, report,
                   ["genus", "field", "lpoly", "supersingular", "class_order"],
                   [(g, d, ".".join(str(c) for c in L),
                     int(cert["supersingular"]), order)])


def cmd_jcheck(args) -> tuple:
    k = args.samples
    if k < 1:
        raise UsageError("--samples must be positive")
    rng = random.Random(args.seed)
    matches = 0
    ratios = set()  # weighted discriminant over the formulary one
    while matches < k:
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        if not (a or b or c):
            continue
        p = WeightedPoint(a, b, c)
        inv = curve_invariants(a, b, c, Fraction(0), Fraction(0))
        disc = discriminant_formula(p)
        want = INFINITY if not disc else inv["c4"] ** 3 / disc
        if disc != inv["disc"] or j_formula(p) != want:
            report = {"schema": SCHEMA, "command": "jcheck",
                      "failed_at": [str(a), str(b), str(c)], "passed": False}
            return _emit_json(report), 1
        if disc:
            ratios.add(disc / inv["disc"])
        matches += 1
    rep_j = []
    for n in range(3, _MAX_ORDER + 1, 2):
        for cls in classify_torsion(n):
            wp = tate_normal_form(cls.representative.curve,
                                  cls.representative)
            j = j_formula(wp)
            if j != 0:
                report = {"schema": SCHEMA, "command": "jcheck",
                          "rep_order": n, "passed": False}
                return _emit_json(report), 1
            rep_j.append(j)
    reps = len(rep_j)
    j_zero = all(j == 0 for j in rep_j)
    # None when no sample had a nonzero discriminant
    ratio = ratios.pop() if len(ratios) == 1 else None
    passed = ratio == 1 and j_zero
    report = {
        "schema": SCHEMA,
        "command": "jcheck",
        "samples": matches,
        "seed": args.seed,
        "discriminant_constant": ratio,
        "lame_representatives": reps,
        "all_representative_j_zero": j_zero,
        "passed": passed,
    }
    return _output(args, report,
                   ["samples", "lame_representatives", "passed"],
                   [(matches, reps, int(passed))])


# -- driver ----------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lame2",
        description="Census and certification toolkit for torsion covers "
                    "in characteristic two.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", dest="format", action="store_const",
                       const="json", default="json")
        p.add_argument("--csv", dest="format", action="store_const",
                       const="csv")

    p = sub.add_parser("classify", help="torsion classes of exact order n")
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ramify", help="certified cover branch data")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--ordinary", type=str, default=None,
                   help="hex coefficient t for the ordinary family")
    p.add_argument("--field", type=int, default=None,
                   help="field degree carrying t")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_ramify)

    p = sub.add_parser("counts", help="class-count table")
    p.add_argument("--max-n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("triples", help="characteristic-zero triple census")
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("moduli", help="field-of-moduli census over F_2^d")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("hyper", help="hyperelliptic family reports")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--field", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("jcheck", help="coordinate formulas vs the formulary")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_jcheck)

    return top


def run(argv) -> tuple:
    """(exit_code, output_text) for a CLI invocation; no printing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (2 if e.code else 0), ""
    try:
        text, code = args.func(args)
        return code, text
    except UsageError as e:
        return 2, f"usage error: {e}\n"
    except VerificationError as e:
        report = {"schema": SCHEMA, "command": args.command,
                  "error": str(e), "passed": False}
        return 1, _emit_json(report)


def main(argv=None) -> int:
    code, text = run(argv if argv is not None else sys.argv[1:])
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(text)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
