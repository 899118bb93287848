"""The abext benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep|queries|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs rounds of fixed work,
each in fresh child processes, until the next round would end past
--seconds (at least one round).  Times of calls are scaled to a reference
machine speed measured by a probe in each child (see harness.py).  Every output is checked; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the workload runs once untraced and once traced on the same
inputs, and the metrics are the per-layer ones.  Each run also writes its
full record (environment, sample counts, spans) under .perfbench_out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 15
DEADLINE_S = 170
# probe duration of the reference machine speed that times are scaled to
PROBE_REF_S = 0.25e-3
# fewest probes of one child that give it its own speed; children with
# fewer take the speed of their whole round
MIN_JOB_PROBES = 20

# the four layers of abext a span can belong to, plus the CLI and verify
LAYERS = ("lr", "groups", "families", "extensions", "verify", "cli")

# per-layer metrics: (name, stat) pairs reported from the trace
SPAN_STATS = (
    ("lr.lr_expand", ("calls", "self_s", "repeat_ratio", "out")),
    ("lr.lr_positive", ("calls", "self_s", "repeat_ratio")),
    ("lr.lr_coefficient", ("calls", "self_s")),
    ("families.family_contains", ("calls", "self_s", "repeat_ratio", "true_ratio")),
    ("families.matches", ("calls", "self_s", "repeat_ratio")),
    ("families.Family.hash", ("calls",)),
    ("families.FamilyPattern.hash", ("calls",)),
    ("families.enumerate_family", ("calls", "self_s", "out")),
    ("groups.AbelianGroup.init", ("calls", "self_s")),
    ("groups.AbelianGroup.str", ("calls", "self_s")),
    ("groups.AbelianGroup.direct_product", ("calls", "self_s")),
    ("groups.AbelianGroup.parse", ("calls", "self_s")),
    ("groups.factorize", ("calls", "self_s")),
    ("extensions.GroupSet.iter", ("calls", "self_s")),
    ("extensions.extension_set", ("calls", "self_s", "repeat_ratio", "out")),
    ("extensions.is_extension", ("calls", "self_s", "true_ratio")),
    ("extensions.subgroup_quotient_types", ("calls", "self_s", "repeat_ratio", "out")),
    ("extensions.brute_force_is_extension", ("calls", "self_s")),
    ("verify.claim", ("calls", "self_s")),
    ("cli.run", ("calls", "self_s")),
    ("cli.build_parser", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "repeat_ratio": "ratio",
         "out": "count", "true_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def _env():
    # a fixed hash seed keeps the iteration order of string-keyed sets and
    # dicts, and so the work done, the same in every run
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def tables_json():
    """The published family tables, from a fresh `abext tables` call."""
    proc = subprocess.run([sys.executable, "-m", "abext", "tables", "--format", "json"],
                          cwd=ROOT, env=_env(), check=True, capture_output=True, text=True)
    return proc.stdout


def run_job(ops, trace):
    """Run one child process over the ops; returns its JSON record."""
    job = {"src": str(SRC), "trace": bool(trace), "calls": [op.argv for op in ops]}
    proc = subprocess.run([sys.executable, str(HERE / "harness.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, env=_env())
    if proc.returncode != 0:
        raise BenchError(f"child process failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# run by a fresh `python3 -S`: times `import abext` between two sets of
# probes; prints the import time and the median probe duration
SETUP_CODE = inspect.getsource(harness.probe_loop) + """
import time


def probe_median():
    durations = []
    for _ in range(9):
        start = time.perf_counter()
        probe_loop()
        durations.append(time.perf_counter() - start)
    return sorted(durations)[4]


before = probe_median()
start = time.perf_counter()
import abext
elapsed = time.perf_counter() - start
print(elapsed, (before + probe_median()) / 2)
"""


def measure_setup():
    """Median time to import abext in a fresh interpreter, each sample
    scaled to the reference speed by probes taken in that interpreter just
    before and after the import.  Interpreter start-up is left out: it is
    the environment's cost, not abext's, and it is the noisiest part.  One
    unmeasured import first writes the bytecode caches."""
    argv = [sys.executable, "-S", "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), check=True,
                              capture_output=True, text=True)
        elapsed, speed = map(float, proc.stdout.split())
        if i:
            times.append(elapsed * PROBE_REF_S / speed)
    return stats.median(times), len(times)


def run_rounds(workload, seed, seconds, families, trace=False, rounds=None):
    """Run rounds until the next would end past `seconds`, or exactly
    `rounds` rounds; returns a list of rounds, each a list of (ops, child
    record) pairs."""
    done = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rng = random.Random(f"{seed}/{len(done)}")
        pairs = []
        for ops in workload.make_round(rng, families):
            record = run_job(ops, trace)
            pairs.append((ops, record))
        done.append(pairs)
        last = time.perf_counter() - round_start
        if rounds is not None:
            if len(done) == rounds:
                break
        elif time.perf_counter() - start + last > seconds:
            break
    return done


def check_outputs(rounds):
    attempted = failed = 0
    errors = []
    for pairs in rounds:
        for ops, record in pairs:
            for op, result in zip(ops, record["results"]):
                attempted += 1
                try:
                    error = op.check(result)
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable output: {exc}"
                if error:
                    failed += 1
                    if len(errors) < 20:
                        errors.append(f"{' '.join(op.argv)}: {error}")
    return attempted, failed, errors


def speed_scales(pairs):
    """Per child of one round, the factor that scales its times to the
    reference speed: PROBE_REF_S over the median probe duration."""
    everything = [p for _, record in pairs for p in record["probes"]]
    fallback = stats.median(everything) if everything else PROBE_REF_S
    return [PROBE_REF_S / (stats.median(record["probes"])
                           if len(record["probes"]) >= MIN_JOB_PROBES else fallback)
            for _, record in pairs]


def end_to_end(workload, rounds, setup_s):
    """The end-to-end metrics, each as (value, unit, sample count)."""
    round_s, units, latencies, round_rss = [], 0, [], []
    part_s = {part: [] for part in workload.parts}
    for pairs in rounds:
        per_part = dict.fromkeys(workload.parts, 0.0)
        total = 0.0
        round_rss.append(max(record["maxrss_kb"] for _, record in pairs))
        for (ops, record), scale in zip(pairs, speed_scales(pairs)):
            for op, result in zip(ops, record["results"]):
                seconds = result["s"] * scale
                total += seconds
                per_part[op.part] += seconds
                latencies.append(seconds * 1000.0)
                try:
                    units += op.units(result)
                except (ValueError, KeyError, TypeError):
                    pass
        round_s.append(total)
        for part, value in per_part.items():
            part_s[part].append(value)
    tail = stats.tail_percentile(latencies)
    tail_value = tail[1] if tail else max(latencies)
    n_rounds = len(rounds)
    metrics = {
        "setup_s": (setup_s[0], "s", setup_s[1]),
        "wall_s": (stats.median(round_s), "s", n_rounds),
        "peak_rss_mb": (stats.median(round_rss) / 1024.0, "MB", n_rounds),
        "ops_per_s": (units / sum(round_s), "1/s", units),
        "latency_p50_ms": (stats.median(latencies), "ms", len(latencies)),
        "latency_tail_ms": (tail_value, "ms", len(latencies)),
    }
    parts = {f"part.{part}_s": (stats.median(values), "s", n_rounds)
             for part, values in part_s.items()}
    notes = {"tail_percentile": tail[0] if tail else "max",
             "ops_unit": workload.unit}
    return metrics, parts, notes


def merge_traces(rounds):
    """Sum the spans and counters of all children, with span times scaled
    to the reference speed like the end-to-end times."""
    spans, counts = {}, {}
    for pairs in rounds:
        for (_, record), scale in zip(pairs, speed_scales(pairs)):
            for span in record["trace"]["spans"]:
                key = (span["name"], span["parent"])
                acc = spans.setdefault(key, [0, 0.0, 0.0])
                acc[0] += span["calls"]
                acc[1] += span["total_s"] * scale
                acc[2] += span["self_s"] * scale
            for name, value in record["trace"]["counts"].items():
                if name == "py.gc.pause_s":
                    value *= scale
                counts[name] = counts.get(name, 0) + value
    return spans, counts


def per_layer(spans, counts, traced_wall, untraced_wall):
    """The per-layer metrics from merged spans, each as (value, unit, n)."""
    by_name = {}
    for (name, _parent), (calls, _total, self_s) in spans.items():
        acc = by_name.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
    metrics = {}
    for name, wanted in SPAN_STATS:
        calls, self_s = by_name.get(name, [counts.get(name + ".calls", 0), 0.0])
        values = {
            "calls": calls,
            "self_s": self_s,
            "repeat_ratio": counts.get(name + ".repeat", 0) / calls if calls else 0.0,
            "out": counts.get(name + ".out", 0),
            "true_ratio": counts.get(name + ".true", 0) / calls if calls else 0.0,
        }
        for stat in wanted:
            metrics[f"{name}.{stat}"] = (values[stat], UNITS[stat], calls)
    metrics["verify.checked_pairs"] = (counts.get("verify.checked_pairs", 0), "count", 1)
    metrics["py.gc.collections"] = (counts.get("py.gc.collections", 0), "count", 1)
    metrics["py.gc.pause_s"] = (counts.get("py.gc.pause_s", 0.0), "s",
                                counts.get("py.gc.collections", 0))
    total_self = sum(self_s for _, self_s in by_name.values()) or 1.0
    for layer in LAYERS:
        layer_self = sum(self_s for name, (_, self_s) in by_name.items()
                         if name.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_share"] = (layer_self / total_self, "ratio", 1)
    metrics["trace.self_s"] = (total_self, "s", 1)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio", 1)
    return metrics


def _timed_total(rounds):
    """Summed call times of all rounds, scaled to the reference speed."""
    return sum(result["s"] * scale for pairs in rounds
               for (_, record), scale in zip(pairs, speed_scales(pairs))
               for result in record["results"])


def git_commit():
    """The checkout's commit from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _out_of_time(signum, frame):
    raise BenchError(f"the run took longer than {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abext" / "__init__.py").is_file():
        print(f"perfbench: no abext sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(DEADLINE_S)
    workload = workloads.WORKLOADS[args.workload]
    families = workloads.load_families(tables_json())
    env = {"commit": git_commit(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "sweep_bound": workloads.SWEEP_BOUND}

    if args.trace:
        plain = run_rounds(workload, args.seed, args.seconds / 2, families)
        traced = run_rounds(workload, args.seed, 0, families, trace=True,
                            rounds=len(plain))
        rounds = plain + traced
        spans, counts = merge_traces(traced)
        metrics = per_layer(spans, counts, _timed_total(traced), _timed_total(plain))
        extra = {}
        notes = {"spans": [{"name": n, "parent": p, "calls": c, "total_s": t,
                            "self_s": s} for (n, p), (c, t, s) in sorted(spans.items(), key=str)],
                 "counts": counts}
    else:
        setup = measure_setup()
        rounds = run_rounds(workload, args.seed, args.seconds, families)
        metrics, extra, notes = end_to_end(workload, rounds, setup)
    attempted, failed, errors = check_outputs(rounds)
    env["rounds"] = len(rounds)
    env["calls"] = attempted
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    # reported but not gated: zero on correct code, or too unsteady on a
    # shared machine to gate (see README)
    extra["fail_ratio"] = (failed / attempted, "ratio", attempted)

    every = {**metrics, **extra}
    width = max(map(len, every))
    for name, (value, unit, n) in every.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={n}")
    print("env " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "attempted": attempted, "failed": failed, "errors": errors,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in every.items()},
              "notes": notes}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
