"""tools/bench_record.py on two synthetic checkouts of run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

LAYER = "lr.lr_expand.calls"


def _checkout(root: Path, runs: dict, tails: dict | None = None) -> Path:
    """A checkout whose .perfbench_out holds one traced-off queries record
    per seed; runs maps each seed to its (wall_s, ops_per_s, LAYER), and
    tails some seeds to their (env.rounds, notes.tail_percentile)."""
    out = root / ".perfbench_out"
    out.mkdir(parents=True)
    for seed, (wall, ops, calls) in runs.items():
        record = {
            "env": {"workload": "queries", "trace": 0, "seed": seed},
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"},
                        LAYER: {"value": calls, "unit": "count"}},
            "notes": {"spans": [["lr.lr_expand", 0.25]], "ops_unit": "calls"},
        }
        if tails and seed in tails:
            record["env"]["rounds"], record["notes"]["tail_percentile"] = \
                tails[seed]
        (out / f"queries-{seed}.json").write_text(json.dumps(record))
    return root


def test_record_summarizes_both_sides(tmp_path):
    # the change is faster on both seeds but does fewer operations per
    # second on both: lower wins for wall_s, higher for ops_per_s
    parent = _checkout(tmp_path / "parent", {1: (2.0, 100.0, 10),
                                             2: (4.0, 200.0, 30)},
                       {1: (46, "p99"), 2: (50, "p99")})
    # the change's seed 2 record lacks both rounds and tail percentile
    change = _checkout(tmp_path / "change", {1: (1.0, 50.0, 12),
                                             2: (3.0, 150.0, 12)},
                       {1: (55, "p99.9")})
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), "--out", str(out)]) == 0
    record = json.loads(out.read_text())

    summary = record["summary"]["queries/trace0"]
    assert summary["seeds"] == {"parent": [1, 2], "change": [1, 2]}
    assert summary["wall_s"]["parent"] == {"median": 3.0, "q1": 2.5,
                                           "q3": 3.5, "n": 2}
    assert summary["wall_s"]["change"] == {"median": 2.0, "q1": 1.5,
                                           "q3": 2.5, "n": 2}
    assert summary["ops_per_s"]["parent"]["median"] == 150.0
    assert summary[LAYER]["change"] == {"median": 12, "q1": 12, "q3": 12,
                                        "n": 2}
    assert summary["wall_s"]["change_better_pairs"] == 2
    assert summary["ops_per_s"]["change_better_pairs"] == 0
    assert summary["wall_s"]["pairs"] == summary["ops_per_s"]["pairs"] == 2
    # only the metrics that BENCHMARK.json gates are compared pair by pair
    assert "change_better_pairs" not in summary[LAYER]
    assert summary["rounds"] == {
        "parent": {"median": 48, "q1": 47, "q3": 49, "n": 2},
        "change": {"median": 55, "q1": 55, "q3": 55, "n": 1}}
    assert summary["tail_percentile"] == {"parent": ["p99", "p99"],
                                          "change": ["p99.9"]}

    for side in ("parent", "change"):
        assert [r["env"]["seed"] for r in record[side]] == [1, 2]
        assert all("spans" not in r["notes"] for r in record[side])
    assert record["change"][1]["notes"] == {"ops_unit": "calls"}


def test_record_without_runs_is_an_error(tmp_path):
    change = _checkout(tmp_path / "change", {1: (1.0, 50.0, 12)})
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit, match="no run records"):
        bench_record.main([str(empty), str(change),
                           "--out", str(tmp_path / "BENCH.json")])
    assert not (tmp_path / "BENCH.json").exists()
