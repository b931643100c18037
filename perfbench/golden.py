"""Rewrite golden.json: the SHA-256 of lame2's output for every pool argv.

    python3 perfbench/golden.py

Each argv runs through ``lame2.cli.run`` in its own fresh interpreter.  The
table is written only when every item exits 0 with ``"passed": true``.  Only
rewrite it when an output change is intended: the benchmark counts every
digest mismatch as a failed item.
"""

import json
import sys

import run
from workloads import pool


def main():
    table = {}
    for argv in pool():
        item = run.spawn([argv], False)["items"][0]
        if item["code"] != 0 or not item["passed"]:
            print(f"error: {' '.join(argv)} exited {item['code']},"
                  f" passed={item['passed']}", file=sys.stderr)
            return 1
        table[" ".join(argv)] = item["digest"]
        print(f"{item['digest']}  {' '.join(argv)}", flush=True)
    run.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
