"""Child process of the benchmark: runs a list of abext CLI calls.

Reads a job from stdin as JSON:

    {"src": "<path of the checkout's src>", "trace": false,
     "calls": [["verify", "thm-main", "--bound", "128", "--format", "json"]]}

imports abext from src, optionally installs the tracer, and runs each call
through abext.cli.run one after another, with stdout captured.  It writes
one JSON object to stdout:

    {"results": [{"code": 0, "out": "...", "s": 0.0123}, ...],
     "probes": [...], "maxrss_kb": ..., "trace": {...} or null}

A call that raises is reported with code null and the exception text, and
the remaining calls still run.

Every job also samples the speed of the machine: every PROBE_PERIOD_S a
timer signal runs a fixed arithmetic loop and records how long it took.
A machine that shares its cores with others drifts in speed over seconds;
the probe durations let the benchmark scale each time to a reference
speed.  The time a probe takes inside a call is subtracted
from that call's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

PROBE_PERIOD_S = 0.02


def probe_loop():
    """The fixed work whose duration measures the machine's speed."""
    total = 0
    for i in range(4000):
        total += i * i
    return total


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import abext
    from abext import cli

    if not os.path.realpath(abext.__file__).startswith(src + os.sep):
        print(f"abext imported from {abext.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = time.perf_counter
    probes = []

    def on_timer(signum, frame):
        start = clock()
        probe_loop()
        probes.append(clock() - start)

    signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    results = []
    for argv in job["calls"]:
        out = io.StringIO()
        err = io.StringIO()
        before = len(probes)
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = clock() - start - sum(probes[before:])
        results.append({"code": code, "out": out.getvalue(),
                        "err": err.getvalue()[-500:], "s": elapsed})
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if tracer is not None:
        tracer.close()

    json.dump({
        "results": results,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
