"""Self-tests of the benchmark at toy shapes.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy.linalg  # noqa: E402

import catalog  # noqa: E402
import harness  # noqa: E402
from tracing import LINALG  # noqa: E402

TOY = catalog.Workload(
    "toy", "toy shape", 16, 8, 1024, 2, True, catalog.shape_config(16, 8, 1024, 2)
)


def run_toy(tmp_path, workload=TOY, trace=False):
    return harness.run_workload(
        workload, seed=3, seconds=0.1, trace=trace, out_dir=tmp_path, src_dir=ROOT / "src",
    )


def check_metrics(result, rows):
    assert list(result["metrics"]) == [row.name for row in rows]
    for row in rows:
        metric = result["metrics"][row.name]
        assert metric["unit"] == row.unit
        assert math.isfinite(metric["value"])


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    result = run_toy(tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0), result["failures"]
    check_metrics(result, catalog.END_TO_END)
    assert all(result["metrics"][e.name]["value"] > 0 for e in catalog.END_TO_END)


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    result = run_toy(tmp_path, trace=True)
    assert (result["correct"], result["failed"]) == (True, 0), result["failures"]
    check_metrics(result, catalog.PER_LAYER)
    assert (tmp_path / "toy-seed3-trace1-spans.json").exists()


def test_failing_op_is_counted_and_not_fatal(tmp_path):
    config = json.loads(json.dumps(catalog.README_CONFIG))
    config["optimizer"]["eta"] = -1  # the CLI rejects it with exit code 1
    failing = dataclasses.replace(TOY, cli_config=config)
    result = run_toy(tmp_path, failing)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert all(f.startswith("cli: exit code 1") for f in result["failures"])
    check_metrics(result, catalog.END_TO_END)


def bindings_snapshot() -> dict:
    """Identity of every attribute of natgrad's modules and classes and of
    the wrapped numpy.linalg functions."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "natgrad" or name.startswith("natgrad."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if inspect.isclass(value) and value.__module__.startswith("natgrad"):
                    for cattr, cvalue in vars(value).items():
                        snap[(value.__qualname__, cattr)] = cvalue
    for attr in LINALG:
        snap[("numpy.linalg", attr)] = getattr(numpy.linalg, attr)
    return snap


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = bindings_snapshot()
    run_toy(tmp_path, trace=True)
    after = bindings_snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_benchmark_json_matches_catalog():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == catalog.benchmark_json()


@pytest.mark.parametrize("rows", [catalog.END_TO_END, catalog.PER_LAYER])
def test_metric_names_are_unique(rows):
    names = [row.name for row in rows]
    assert len(names) == len(set(names))
