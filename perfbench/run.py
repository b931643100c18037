"""Benchmark of lame2: end-to-end and per-layer numbers for each workload.

Run from the repository root:

    python3 perfbench/run.py --workload covers --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Every pass runs in a fresh interpreter (``child.py``) with ``src`` on the
path, so nothing needs building.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics, which come from passes with the
``layers`` wrappers installed, alternated with untraced passes so that the
tracing overhead is measured in the same run.  Every item's output is checked
against its golden digest.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

MIN_PASSES = 3
SETUP_SAMPLES = 9  # fresh interpreters timed per run, for the setup_s median
SYMPY_SAMPLES = 3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env():
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(items, trace):
    """Run items in a fresh interpreter; the child's report plus timings."""
    job = json.dumps({"items": items, "trace": bool(trace)})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")],
                              input=job, capture_output=True, text=True,
                              env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s on"
                         f" {items}")
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:"
                         f" {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    if Path(out["lame2_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported lame2 from {out['lame2_file']},"
                         f" not from {SRC}")
    out["interpreter_s"] = out["t_start"] - t0
    out["setup_s"] = out["t_import"] - t0
    out["latency_s"] = t1 - t0
    return out


def _sum_traces(traces):
    total = dict.fromkeys(traces[0], 0)
    for tr in traces:
        for k, v in tr.items():
            total[k] += v
    return total


def run_pass(workload, items, trace):
    """One pass over the items: one child, or one child per item."""
    if workload.per_process:
        children = [spawn([argv], trace) for argv in items]
    else:
        children = [spawn(items, trace)]
    return {
        "trace": trace,
        "children": children,
        "wall_s": sum(c["wall_s"] for c in children),
        "cpu_s": sum(c["cpu_s"] for c in children),
        "maxrss_kb": max(c["maxrss_kb"] for c in children),
        "latencies": [c["latency_s"] for c in children],
        "items": [it for c in children for it in c["items"]],
        "layers": _sum_traces([c["trace"] for c in children]) if trace
        else None,
    }


def check_item(item, golden):
    """Reasons this item execution failed; empty when it is correct."""
    problems = []
    if item["code"] != 0:
        problems.append(f"exit code {item['code']}")
    if not item["passed"]:
        problems.append("report is not passed")
    want = golden.get(" ".join(item["argv"]))
    if want is None:
        problems.append("no golden digest")
    elif item["digest"] != want:
        problems.append("output digest differs from golden")
    return problems


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  With 20 samples or fewer that would not lie above the median,
    so the maximum is reported instead."""
    v = sorted(values)
    n = len(v)
    if n <= 20:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def import_sympy_s():
    code = ("import time; t = time.perf_counter(); import sympy;"
            " print(time.perf_counter() - t)")
    out = []
    for _ in range(SYMPY_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing sympy failed: {proc.stderr[-2000:]}")
        out.append(float(proc.stdout))
    return statistics.median(out)


def _src_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "lame2").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def measure(workload, seed, seconds, trace, golden):
    """Run one workload; the result object plus provenance and samples."""
    load_start = os.getloadavg()
    items = workload.items(seed)
    passes = max(MIN_PASSES, round(seconds / workload.pass_s))
    plan = [False, True] * max(2, passes // 2) if trace else [False] * passes
    children_per_pass = len(items) if workload.per_process else 1
    untraced_children = plan.count(False) * children_per_pass
    setup_only = [spawn([], False)
                  for _ in range(max(0, SETUP_SAMPLES - untraced_children))]
    runs = [run_pass(workload, items, t) for t in plan]
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]

    attempted = failed = 0
    for r in runs:
        for item in r["items"]:
            attempted += 1
            problems = check_item(item, golden)
            if problems:
                failed += 1
                print(f"FAILED {' '.join(item['argv'])}: {'; '.join(problems)}",
                      file=sys.stderr)

    children = setup_only + [c for r in plain for c in r["children"]]
    setup = [c["setup_s"] for c in children]
    latencies = [x for r in plain for x in r["latencies"]]
    tail_value, tail_pct = tail(latencies)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": max(r["maxrss_kb"] for r in plain) / 1024,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
    }
    samples = {"setup_s": len(setup), "wall_s": len(plain),
               "cpu_s": len(plain), "peak_rss_mb": len(plain),
               "latency_p50_s": len(latencies),
               "latency_tail_s": len(latencies)}
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    count_mismatch = []
    if trace:
        layer, count_mismatch = _layer_metrics(traced, children, plain)
        metrics = layer
        samples.update({k: len(traced) for k in layer})
        samples.update({"setup.interpreter_s": len(children),
                        "setup.import_lame2_s": len(children),
                        "setup.import_sympy_s": SYMPY_SAMPLES})

    result = {
        "correct": failed == 0 and not count_mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(runs),
        "items": [" ".join(a) for a in items],
        "failed_ratio": failed / attempted,
        "latency_tail_percentile": tail_pct,
        "e2e": e2e,
        "count_mismatch": count_mismatch,
        "samples": samples,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    return result, info


def _layer_metrics(traced, children, plain):
    """Per-layer metrics from the traced passes, and the exact counts that
    differ between them (they must not: the inputs are identical)."""
    units = {}
    for name, _m, _a in layers.TARGETS:
        units.update({name + ".calls": "count", name + ".self_s": "s",
                      name + ".total_s": "s"})
    units.update(dict.fromkeys(layers.EXTRA_COUNTS, "count"))
    exact = [k for k, u in units.items() if u == "count"]
    first = traced[0]["layers"]
    mismatch = [k for k in exact
                if any(r["layers"][k] != first[k] for r in traced[1:])]
    values = {k: first[k] if k in exact else
              statistics.median(r["layers"][k] for r in traced)
              for k in units}
    fiber_calls = values["funcfield.fiber.calls"]
    values["funcfield.fiber.useful_ratio"] = (
        (fiber_calls - values["funcfield.fiber.escapes"]) / fiber_calls
        if fiber_calls else 0.0)
    units["funcfield.fiber.useful_ratio"] = "ratio"
    values["setup.interpreter_s"] = statistics.median(
        c["interpreter_s"] for c in children)
    values["setup.import_lame2_s"] = statistics.median(
        c["t_import"] - c["t_start"] for c in children)
    values["setup.import_sympy_s"] = import_sympy_s()
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain))
    units.update({"setup.interpreter_s": "s", "setup.import_lame2_s": "s",
                  "setup.import_sympy_s": "s",
                  "trace.overhead_ratio": "ratio"})
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return metrics, mismatch


def load_golden():
    return json.loads(GOLDEN.read_text())


def _print_table(result, info):
    print(f"== {info['workload']}  seed {info['seed']}  trace {info['trace']}"
          f"  passes {info['passes']}  attempted {result['attempted']}"
          f"  failed {result['failed']}"
          f"  failed_ratio {info['failed_ratio']:.4g}")
    shown = dict(result["metrics"])
    if info["trace"]:
        shown = {**{k: {"value": v, "unit": E2E_UNITS[k]}
                    for k, v in info["e2e"].items()}, **shown}
    for name, m in shown.items():
        n = info["samples"].get(name, "")
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={n}")
    if info["count_mismatch"]:
        print(f"  exact counts differ between traced passes:"
              f" {info['count_mismatch']}")
    prov = {k: info[k] for k in ("workload", "seed", "items", "commit",
                                 "src_sha256", "python", "sympy", "nproc",
                                 "loadavg_start", "loadavg_end",
                                 "latency_tail_percentile", "samples")}
    print("provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "lame2" / "__init__.py").is_file():
        print(f"error: no lame2 sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = []
        for name in names:
            result, info = measure(WORKLOADS[name], args.seed, args.seconds,
                                   args.trace, golden)
            _print_table(result, info)
            results.append((name, result))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _n, r in results),
            "attempted": sum(r["attempted"] for _n, r in results),
            "failed": sum(r["failed"] for _n, r in results),
            "metrics": {f"{n}.{k}": m for n, r in results
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
