"""Smoke test of the stack benchmark: every workload, both modes, toy size.

Asserts the contract, not the numbers: each run reports exactly the metrics
``BENCHMARK.json`` declares for its mode, with the declared units, finite
values and no failed op.  The ten runs go through a small thread pool —
most of their time is waiting for server subprocesses to start.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

import compare
import harness
import run

SPEC = harness.spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-results")
    jobs = [(w, trace) for trace in (True, False) for w in WORKLOADS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {
            job: pool.submit(run.run_once, job[0], 7, 0.3, job[1], toy=True, results_dir=out)
            for job in jobs
        }
        return {job: future.result(timeout=120) for job, future in futures.items()}


def test_spec_names_are_well_formed_and_unique():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_run_emits_declared_metrics(results, workload, trace):
    result = results[workload, trace]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    assert result["failed"] == 0 and result["correct"], result["failures"]
    assert result["attempted"] >= 1
    assert result["host"]["nproc"] >= 1


def test_traced_runs_attribute_time_to_their_layers(results):
    def layer(workload, name):
        return results[workload, True]["metrics"][name]["value"]

    assert layer("offline_workflow", "core.mr_encode_ms") > 0
    assert layer("insitu_write", "store.encode_blocks_ms") > 0
    assert layer("cold_scan", "store.decode_ms") > 0
    assert layer("cold_scan", "gateway.hop_ms") == 0  # never enters the served layers
    assert layer("served_warm_roi", "gateway.single_client_p50_ms") > 0
    assert layer("served_churn_rw", "gateway.read_after_append_ms") > 0


def test_compare_flags_a_regression(results, tmp_path, capsys):
    import copy
    import json

    base = results["cold_scan", False]
    worse = copy.deepcopy(base)
    worse["metrics"]["op_p50_ms"]["value"] *= 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"runs": [base]}))
    b.write_text(json.dumps({"runs": [worse]}))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
