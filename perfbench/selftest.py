"""The benchmark's own tests.

Not collected by the repository's test suite (the file name does not match
``test_*.py``); run them explicitly::

    python3 -m pytest perfbench/selftest.py

The smoke tests start real servers at a tiny size, about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
import report  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro import solve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: End-to-end metrics the log names for each workload besides the result
#: line's.
NAMED = {
    "warm-http": ("batch_tail_ms", "async_submit_p50_ms", "async_done_p50_ms",
                  "async_done_tail_ms"),
    "warm-router": ("batch_tail_ms", "async_submit_p50_ms", "async_done_p50_ms",
                    "async_done_tail_ms"),
    "cold-mix": ("cold_solves_per_s", "cold_batch_p50_ms", "cold_batch_tail_ms",
                 "fleet_op_p50_ms", "fleet_op_tail_ms"),
}


def smoke(directory: Path, workload: str, trace: int, seconds: int = 5):
    """A tiny-size run; untraced, it is long enough for every tail."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=directory, capture_output=True, text=True, timeout=300,
    )


def logged_values(log: str, workload: str) -> dict:
    """``{metric: value as printed}`` from the log's metric lines
    (``[workload] name value unit n=samples``)."""
    values = {}
    for line in log.splitlines():
        fields = line.split()
        if len(fields) >= 5 and fields[0] == f"[{workload}]" and fields[4].startswith("n="):
            values[fields[1]] = fields[2]
    return values


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = smoke(ROOT, workload, trace)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in last["metrics"].values())
    log = "\n".join(lines[:-1])
    values = logged_values(log, workload)
    for name in NAMED[workload] + tuple(entry["name"] for entry in SPEC["end_to_end"]):
        assert name in values, name
        if not trace:  # a traced run times only half its ops
            assert values[name] != "n/a", name
    assert "environment {" in log


def test_run_refuses_without_the_program(tmp_path):
    """A checkout holding only the benchmark fails without a result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = smoke(tmp_path, "warm-http", 0)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


@pytest.fixture(scope="module")
def warm():
    """A warm workload whose stored documents are in-process solves."""
    run = workloads.Run(seed=3, seconds=0, trace=False, size=inputs.TINY)
    warm = workloads.Warm(run, 1)
    warm.stored = [
        json.dumps(solve(request.problem, method=request.method).to_dict())
        for request in warm.uniques
    ]
    return warm


def answer(warm, picks):
    return {
        "report": {"solves": 0},
        "fingerprints": [warm.prints[pick] for pick in picks],
        "outcomes": [json.loads(warm.stored[pick]) for pick in picks],
    }


def test_output_check_accepts_a_faithful_answer(warm):
    _, picks = warm.traffic.batch()
    assert warm.mismatch(answer(warm, picks), picks) is None


def test_output_check_fires_on_a_corrupted_outcome(warm):
    _, picks = warm.traffic.batch()
    document = answer(warm, picks)
    document["outcomes"][len(picks) // 2]["lower_bound"] *= 1.0 + 1e-12
    assert "differs" in warm.mismatch(document, picks)


def test_output_check_fires_on_a_warm_solve_or_a_wrong_fingerprint(warm):
    _, picks = warm.traffic.batch()
    document = answer(warm, picks)
    document["report"]["solves"] = 1
    assert "solved" in warm.mismatch(document, picks)
    document = answer(warm, picks)
    document["fingerprints"][0] = "0" * 64
    assert "fingerprint" in warm.mismatch(document, picks)


def test_inputs_repeat_for_a_seed_and_cold_problems_never_repeat():
    first, second = inputs.WarmTraffic(5, inputs.FULL), inputs.WarmTraffic(5, inputs.FULL)
    assert first.specs == second.specs and first.batch()[1] == second.batch()[1]
    assert len(set(first.specs)) == 64 and len(first.batch()[0]) == 1000
    cold = inputs.ColdTraffic(5, inputs.FULL)
    prints = [request.fingerprint() for _ in range(5) for request in cold.batch()]
    assert len(prints) == 80 == len(set(prints))


def test_fleet_events_alternate_around_four_tenants():
    cold = inputs.ColdTraffic(5, inputs.FULL)
    assert list(cold.initial_fleet().tenant_ids) == [f"tenant-{n}" for n in range(4)]
    (event, tenant), tenants = cold.fleet_event()
    assert event == "arrival" and tenants[-1] == tenant.id and len(tenants) == 5
    (event, departed), tenants = cold.fleet_event()
    assert event == "departure" and departed == "tenant-0" and len(tenants) == 4


def test_tail_needs_ten_samples_beyond_it():
    assert report.tail(list(range(19))) == (None, None)
    value, percentile = report.tail(list(range(40)))
    assert value == 29 and percentile == 75.0


def test_compare_refuses_results_from_different_environments(tmp_path, capsys):
    stamp = {"cpu_count": 2, "numba": False, "git_revision": "a", "source_digest": "x"}
    result = {"environment": stamp, "metrics": {"warm-http": {
        "batch_p50_ms": {"value": 100.0, "unit": "ms", "samples": 9}}}}
    first, second, third = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    first.write_text(json.dumps(result))
    second.write_text(json.dumps({**result, "environment": {**stamp, "git_revision": "b"}}))
    third.write_text(json.dumps({**result, "environment": {**stamp, "cpu_count": 4}}))
    assert bench.compare_saved([first, second]) == 0
    assert "+0.0%" in capsys.readouterr().out
    assert bench.compare_saved([first, third]) == 2
    assert harness.environment_differences(stamp, {**stamp, "numba": True}) == ["numba"]
