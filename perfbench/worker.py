"""Repeated CLI invocations in one fresh interpreter.

    python3 worker.py SRC_DIR TRACE SECONDS MIN_CALLS ARG...

Imports ``ifpsync.cli`` from SRC_DIR (not timed), then calls
``ifpsync.cli.main(ARG...)`` again and again, call k in the subdirectory
``call<k>`` of the working directory with its standard output sent to
``call<k>/stdout.txt``, until SECONDS have passed (at least MIN_CALLS calls;
no call is started that would end, at the mean call time so far, after
SECONDS). With TRACE = 1 the public functions are wrapped first (see spans.py)
and sweeps run in this process. Prints one JSON list with a record per call:
exit code, wall and CPU time of the call (pool workers included), largest
resident set of this process and of its children so far (for the first call,
what one CLI invocation uses), and the call's spans.
"""

import contextlib
import gc
import json
import os
import resource
import sys
import time


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    src, traced, seconds, min_calls = sys.argv[1], sys.argv[2] == "1", float(sys.argv[3]), int(sys.argv[4])
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    import ifpsync.cli as cli

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(serial_sweep=True)

    records = []
    start = time.perf_counter()
    while True:
        call = f"call{len(records)}"
        os.mkdir(call)
        os.chdir(call)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open("stdout.txt", "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        os.chdir("..")
        records.append({
            "exit_code": code,
            "wall_s": wall,
            "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
            "child_cpu_s": _cpu(kids1) - _cpu(kids0),
            "maxrss_kb": self1.ru_maxrss,
            "child_maxrss_kb": kids1.ru_maxrss,
            "spans": list(tracer.spans) if tracer else None,
        })
        if tracer:
            tracer.spans.clear()
        gc.collect()  # free the call's cyclic garbage, so the next call starts clean
        elapsed = time.perf_counter() - start
        if len(records) >= min_calls and elapsed * (len(records) + 1) / len(records) > seconds:
            break
    print(json.dumps(records))


if __name__ == "__main__":
    main()
