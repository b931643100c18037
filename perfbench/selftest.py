"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs ``moduli --d 2`` and one tame cover in one interpreter, and one CLI argv
in a fresh interpreter per call, untraced and traced.  Checks that every
metric named in BENCHMARK.json is emitted with its unit, that two traced runs
give identical exact counts, and that a tampered golden digest is counted as
a failed item.  Exits 0 when every check holds.
"""

import json
import sys

import run
from workloads import SELFTEST, Workload

BATCH = Workload("selftest", False, 1.0, lambda rng: SELFTEST[:2])
COLD = Workload("selftest-cold", True, 1.0, lambda rng: SELFTEST[2:])


def _expect(cond, what, errors):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        errors.append(what)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    golden = run.load_golden()
    errors = []
    counts = {}
    for w in (BATCH, COLD):
        for trace in (0, 1):
            result, _info = run.measure(w, 0, 1, trace, golden)
            label = f"{w.name} trace={trace}"
            _expect(result["correct"] and result["failed"] == 0,
                    f"{label}: correct, nothing failed", errors)
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            _expect(got == want, f"{label}: every metric with its unit",
                    errors)
            if trace:
                counts[w.name] = {k: m["value"]
                                  for k, m in result["metrics"].items()
                                  if m["unit"] == "count"}

    again, _info = run.measure(BATCH, 0, 1, 1, golden)
    _expect(counts[BATCH.name] == {k: m["value"]
                                   for k, m in again["metrics"].items()
                                   if m["unit"] == "count"},
            "two traced runs give identical exact counts", errors)

    tampered = dict(golden)
    key = " ".join(SELFTEST[0])
    tampered[key] = "0" * 64
    result, info = run.measure(BATCH, 0, 1, 0, tampered)
    _expect(not result["correct"] and result["failed"] == info["passes"],
            "a tampered golden digest counts as a failure", errors)

    print("selftest " + ("FAILED: " + "; ".join(errors) if errors
                         else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
