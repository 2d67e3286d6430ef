"""Every committed ``BENCH_<n>.json`` at the repo root is a well-formed benchmark record.

A record holds one JSON object per line, one line per run of
``perfbench/run.py``.  Runs come in pairs: the parent commit and the
change, run with the same command, over the same pool of inputs.  Every
line carries the end-to-end metrics that ``BENCHMARK.json`` declares, one
per workload, with the declared unit.  ``BENCHMARK.json`` is only read.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIELDS = {"attempted", "command", "commit", "correct", "failed", "host", "pair", "side", "metrics"}


def bench_files():
    return sorted(ROOT.glob("BENCH_*.json"))


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {f"{w['name']}.{m['name']}": m["unit"]
            for w in spec["workloads"] for m in spec["end_to_end"]}


def test_there_are_bench_records():
    assert bench_files()


@pytest.mark.parametrize("path", bench_files(), ids=lambda p: p.name)
def test_bench_record_is_well_formed(path):
    units = declared_metrics()
    pairs = {}
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        run = json.loads(line)
        where = f"{path.name}:{number}"
        assert set(run) == FIELDS, where
        assert run["correct"] is True, where
        assert isinstance(run["attempted"], int) and run["attempted"] > 0, where
        assert isinstance(run["failed"], int) and 0 <= run["failed"] <= run["attempted"], where
        assert run["side"] in ("parent", "change"), where
        assert set(run["metrics"]) == set(units), where
        for name, metric in run["metrics"].items():
            assert metric["unit"] == units[name], (where, name)
            assert math.isfinite(metric["value"]), (where, name)
        pairs.setdefault(run["pair"], []).append(run)
    assert pairs, path.name
    for pair, runs in pairs.items():
        assert sorted(r["side"] for r in runs) == ["change", "parent"], (path.name, pair)
        first, second = runs
        assert first["attempted"] == second["attempted"], (path.name, pair)
        assert first["command"] == second["command"], (path.name, pair)
