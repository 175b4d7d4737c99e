"""Self-test of the benchmark: toy-size smoke of every workload, traced and
untraced, plus the metric table against BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import math
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _castnet_attributes() -> dict:
    """Every callable attribute of every loaded castnet module, which
    includes every binding the tracer wraps."""
    return {(mod_name, attr): value
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and mod_name.split(".")[0] == "castnet"
            for attr, value in vars(mod).items() if callable(value)}


def test_metric_table_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for group, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert [m["name"] for m in spec[group]] == list(table)
        for m in spec[group]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert m["unit"] and m["unit"] == table[m["name"]], m["name"]


def test_tracer_wraps_and_restores():
    from castnet import cli, nn, tensor

    before = _castnet_attributes()
    originals = (tensor.apply_op, nn.apply_op, tensor.matmul, cli.evaluate)
    tracer = Tracer()
    with tracer:
        assert tensor.apply_op is not originals[0]
        assert nn.apply_op is not originals[1]
        assert tensor.matmul is not originals[2]
        assert cli.evaluate is not originals[3]  # a from-import binding
    assert _castnet_attributes() == before


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_smoke(name, trace, tmp_path):
    before = _castnet_attributes()
    record = harness.run_workload(name, seed=3, seconds=0.01, trace=trace, root=ROOT,
                                  work_dir=str(tmp_path / "work"),
                                  out_dir=str(tmp_path / "out"), toy=True)
    assert _castnet_attributes() == before
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 2
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(record["metrics"]) == list(expected)
    for metric, m in record["metrics"].items():
        assert m["unit"] == expected[metric]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), metric
    line = json.loads(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                                         "metrics")}))
    assert line["attempted"] >= 1
    values = {k: m["value"] for k, m in record["metrics"].items()}
    if trace:
        assert values["synth.generate_clip.calls"] > 0
        assert values["cli.main.ms"] > 0
        if name != "eval_default":
            assert values["tensor.records_total"] > 0
            assert values["train.adam_step.applied_ratio"] == 1.0
    else:
        assert values["ref_clips_per_s"] > 0 and values["setup_s"] > 0
        assert values["ok_share"] == 1.0 and 0.0 <= values["auc"] <= 1.0
    assert os.path.isfile(record["result_file"])
