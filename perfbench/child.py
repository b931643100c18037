"""One workload process: import lame2, run CLI argvs, report as JSON.

Reads {"items": [argv, ...], "trace": bool} on stdin and writes one JSON
object on stdout.  Each argv goes through ``lame2.cli.run``, the entry point
the ``lame2`` command calls, and only the SHA-256 of its output text, the exit
code and the report's ``passed`` flag leave the process.  Time stamps are
``time.perf_counter()`` readings, which on Linux share one monotonic clock
across processes, so the parent can subtract its spawn time from them.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import lame2.cli  # noqa: E402

T_IMPORT = time.perf_counter()


def _passed(text):
    try:
        return json.loads(text).get("passed") is True
    except ValueError:
        return False


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    items = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in job["items"]:
        t, c = time.perf_counter(), time.process_time()
        try:
            code, text = lame2.cli.run(argv)
        except Exception as e:  # an item that raises is a failed item
            code, text = -1, f"{type(e).__name__}: {e}"
        items.append({
            "argv": argv,
            "code": code,
            "passed": code == 0 and _passed(text),
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "wall_s": time.perf_counter() - t,
            "cpu_s": time.process_time() - c,
        })
    out = {
        "lame2_file": lame2.__file__,
        "t_start": T_START,
        "t_import": T_IMPORT,
        "items": items,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
