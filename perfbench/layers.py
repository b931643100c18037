"""Outside-in per-layer timing for the benchmark's traced runs.

The program is not instrumented.  Instead, after ``import lame2`` the traced
child replaces each public function named in ``TARGETS`` by a timing wrapper,
at every binding it has: the defining module, every ``lame2`` module that did
``from .x import f``, the ``lame2`` package namespace, and every class
attribute (so ``CurvePoint.__rmul__ = __mul__`` is wrapped too).  Per-element
``FieldElement`` operations are deliberately left alone; their cost shows up
as the self time of their callers.

For each wrapped function the tracer keeps the exact call count, the self
time (duration minus the time of wrapped calls nested inside it) and the
total time (outermost calls only, so recursion is not counted twice).
"""

import functools
import sys
import time

# (metric prefix, module, attribute path inside the module)
TARGETS = [
    ("gf2.poly_roots", "lame2.gf2", "poly_roots"),
    ("gf2.embed", "lame2.gf2", "embed"),
    ("gf2.solve_artin_schreier", "lame2.gf2", "solve_artin_schreier"),
    ("weierstrass.point_order", "lame2.weierstrass", "point_order"),
    ("weierstrass.scalar_mul", "lame2.weierstrass", "CurvePoint.__mul__"),
    ("weierstrass.count_points", "lame2.weierstrass",
     "WeierstrassCurve.count_points"),
    ("weierstrass.torsion_basis", "lame2.weierstrass", "torsion_basis"),
    ("weierstrass.point_of_exact_order", "lame2.weierstrass",
     "point_of_exact_order"),
    ("funcfield.xy_expansion", "lame2.funcfield", "xy_expansion"),
    ("funcfield.Series.inverse", "lame2.funcfield", "Series.inverse"),
    ("funcfield.fiber", "lame2.funcfield", "fiber"),
    ("funcfield.different_exponent", "lame2.funcfield", "different_exponent"),
    ("funcfield.ramification_index", "lame2.funcfield", "ramification_index"),
    ("funcfield.miller_function", "lame2.funcfield", "miller_function"),
    ("funcfield.ramification_profile", "lame2.funcfield",
     "ramification_profile"),
    ("lame.moduli_census", "lame2.lame", "moduli_census"),
    ("lame.cover_profile", "lame2.lame", "cover_profile"),
    ("lame.classify_torsion", "lame2.lame", "classify_torsion"),
    ("lame.aut_orbit", "lame2.lame", "aut_orbit"),
    ("lame.rho", "lame2.lame", "rho"),
    ("hyper.cantor_add", "lame2.hyper", "cantor_add"),
    ("hyper.jacobian_order", "lame2.hyper", "jacobian_order"),
    ("hyper.divisor_class_order", "lame2.hyper", "divisor_class_order"),
    ("moduli12.j_formula", "lame2.moduli12", "j_formula"),
    ("moduli12.discriminant_formula", "lame2.moduli12",
     "discriminant_formula"),
    ("moduli12.tate_normal_form", "lame2.moduli12", "tate_normal_form"),
    ("triples.enumerate_triples", "lame2.triples", "enumerate_triples"),
    ("triples.lifting_count_check", "lame2.triples", "lifting_count_check"),
    ("cli.run", "lame2.cli", "run"),
]

# Counts that must repeat exactly between two traced runs of the same inputs.
EXTRA_COUNTS = ["funcfield.xy_expansion.prec_sum", "funcfield.fiber.escapes"]


def _xy_prec(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["prec"]


class Tracer:
    """Call counts and self/total times of the wrapped functions."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _m, _a in TARGETS}
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self._child_time = []  # one accumulator per active wrapped call

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._child_time
        clock = time.perf_counter
        depth = [0]
        counts = self.counts
        on_call = None
        escape = ()  # catches nothing
        if name == "funcfield.xy_expansion":
            def on_call(args, kwargs):
                counts["funcfield.xy_expansion.prec_sum"] += \
                    _xy_prec(args, kwargs)
        elif name == "funcfield.fiber":
            from lame2.common import FiberEscapeError as escape

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except escape:
                counts["funcfield.fiber.escapes"] += 1
                raise
            finally:
                dt = clock() - t0
                stat[1] += dt - stack.pop()
                depth[0] -= 1
                if depth[0] == 0:
                    stat[2] += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self):
        """Wrap every binding of every target in the loaded lame2 modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lame2" or n.startswith("lame2."))]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            orig = owner.__dict__[path.split(".")[-1]] \
                if isinstance(owner, type) else getattr(owner, path)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, type) and \
                            value.__module__.startswith("lame2"):
                        for cattr, cval in list(vars(value).items()):
                            if cval is orig:
                                setattr(value, cattr, wrapper)

    def report(self):
        """{metric: value} with calls, self_s, total_s and the extra counts."""
        out = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            out[name + ".total_s"] = total_s
        out.update(self.counts)
        return out
