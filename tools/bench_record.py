"""Collect benchmark run records of two checkouts into one BENCH file.

    python3 tools/bench_record.py PARENT CHANGE --out BENCH_N.json

PARENT and CHANGE are checkouts (or their .perfbench_out directories) in
which `perfbench/run.py` has run.  Every run record found there is copied
into the output, without the traced runs' span lists, under "parent" and
"change".  A "summary" gives, per workload, trace mode and metric, the
median and quartiles of each side, and for the metrics that BENCHMARK.json
gates, on how many seeds run on both sides the change was the better one.
It also gives each side's spread of rounds run (env.rounds) and its list of
tail percentiles (notes.tail_percentile), in seed order: a run of more
rounds can read its tail at a higher percentile.  Quartiles are
statistics.quantiles(..., n=4, method="inclusive").
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> list:
    """The run records under a checkout or an output directory, sorted by
    workload, trace mode and seed."""
    out_dir = path / ".perfbench_out" if (path / ".perfbench_out").is_dir() else path
    records = []
    for file in sorted(out_dir.glob("*.json")):
        record = json.loads(file.read_text())
        record.get("notes", {}).pop("spans", None)
        records.append(record)
    if not records:
        raise SystemExit(f"bench_record: no run records under {out_dir}")
    return sorted(records, key=lambda r: (r["env"]["workload"], r["env"]["trace"],
                                          r["env"]["seed"]))


def spread(values: list) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(parent: list, change: list, better: dict) -> dict:
    """Per workload and trace mode: each metric's spread on both sides, and
    each side's rounds and tail percentiles, from the records that have
    them."""
    def by_key(records):
        groups = {}
        for r in records:
            key = f"{r['env']['workload']}/trace{r['env']['trace']}"
            groups.setdefault(key, {})[r["env"]["seed"]] = r
        return groups

    before, after = by_key(parent), by_key(change)
    summary = {}
    for key in sorted(before.keys() | after.keys()):
        records = {"parent": before.get(key, {}), "change": after.get(key, {})}
        runs = {side: {seed: r["metrics"] for seed, r in seeds.items()}
                for side, seeds in records.items()}
        names = sorted({name for side in runs.values() for metrics in side.values()
                        for name in metrics})
        shared = sorted(runs["parent"].keys() & runs["change"].keys())
        entry = {"seeds": {side: sorted(seeds) for side, seeds in runs.items()}}
        for name in names:
            row = {side: spread([m[name]["value"] for m in seeds.values() if name in m])
                   for side, seeds in runs.items()
                   if any(name in m for m in seeds.values())}
            if name in better and shared:
                sign = 1 if better[name] == "higher" else -1
                row["change_better_pairs"] = sum(
                    sign * (runs["change"][s][name]["value"]
                            - runs["parent"][s][name]["value"]) > 0
                    for s in shared)
                row["pairs"] = len(shared)
            entry[name] = row
        rounds = {side: [r["env"]["rounds"] for r in seeds.values()
                         if "rounds" in r["env"]]
                  for side, seeds in records.items()}
        tails = {side: [r["notes"]["tail_percentile"] for r in seeds.values()
                        if "tail_percentile" in r.get("notes", {})]
                 for side, seeds in records.items()}
        entry["rounds"] = {side: spread(v) for side, v in rounds.items() if v}
        entry["tail_percentile"] = {side: v for side, v in tails.items() if v}
        summary[key] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent, change = load_records(args.parent), load_records(args.change)
    record = {"summary": summarize(parent, change, better),
              "parent": parent, "change": change}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
