"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is reported with its
unit, that traced and untraced runs give the same report digest, that the
tracer puts every wrapped function back, and that the benchmark fails
without printing a result where the eulercs sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from tracer import Tracer, wrap_sites  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _units(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


# phase is not in BENCHMARK.json (its timings are unsteady) but stays runnable
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]] + ["phase"])
def test_workload_metrics_and_digests(name, tmp_path):
    plain, plain_details = run.run_workload(name, 3, 0, False, "tiny", str(tmp_path))
    traced, traced_details = run.run_workload(name, 3, 0, True, "tiny", str(tmp_path))
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(group)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert plain_details["report_sha256"] == traced_details["report_sha256"]
    assert traced_details["traced_report_sha256"] == plain_details["report_sha256"]
    assert traced_details["self_time_gap_ns"] == 0
    assert os.path.exists(tmp_path / f"spans-{name}.jsonl")


def test_wrappers_restore_originals():
    before = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in wrap_sites()]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _ in before]
        assert all(w is not orig for w, (_, _, orig) in zip(wrapped, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)


def test_units_and_names_match_the_code():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER_UNITS


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
