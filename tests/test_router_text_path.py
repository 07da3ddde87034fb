"""The router's worker hop carries element texts, not re-encoded documents.

A 2-worker router and a single-process server answer the same random
batches (duplicates, shuffled order, gp+a/minlp/minlp+g, one heterogeneous
platform in both class orders).  Every router body must be exactly the
``json.dumps`` text of its own parse, the text a dict round trip would
write, and its outcome texts must equal the single-process server's, element
by element (the wall-clock ``runtime_seconds`` aside).  Also here: the
``POST /admin/resize`` type check and bound.
"""

from __future__ import annotations

import http.client
import json
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.discretize import discretization_cache_clear
from repro.core.problem import AllocationProblem
from repro.minlp.binpacking import shared_packing_memos_clear
from repro.platform.multi_fpga import DeviceClass, MultiFPGAPlatform
from repro.platform.presets import XCKU115, XCVU9P, aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    AllocationService,
    ResultStore,
    RouterService,
    SolveRequest,
    WorkerPool,
    WorkerSpec,
    request_to_dict,
    start_server,
)
from repro.service.batch import json_with_array, loads_batch
from repro.service.frontdoor import MAX_GROUPS
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline


def _pipeline(index: int) -> Pipeline:
    return Pipeline(
        name=f"text{index}",
        kernels=[
            Kernel("A", ResourceVector(bram=11.5 + index, dsp=21.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=6.0, dsp=9.5 + index), bandwidth=2.0, wcet_ms=4.0),
            Kernel("C", ResourceVector(bram=2.5, dsp=31.0), bandwidth=3.0, wcet_ms=12.0),
        ],
    )


def _text(pipeline: Pipeline, platform: MultiFPGAPlatform, method: str) -> str:
    problem = AllocationProblem(pipeline=pipeline, platform=platform)
    return json.dumps(request_to_dict(SolveRequest(problem=problem, method=method)))


_BIG = DeviceClass(XCVU9P, 2, ResourceVector.full(70.0), 100.0)
_SMALL = DeviceClass(XCKU115, 2, ResourceVector.full(40.0), 50.0)
#: Element texts of the request pool.  Each problem has one method and its
#: own resource limit, so no two problems share a packing memo and the
#: solver counters of an outcome do not depend on which process solved it.
REQUESTS = [
    _text(_pipeline(index), aws_f1(num_fpgas=2, resource_limit_percent=61.0 + 3 * index), method)
    for index, method in enumerate(["gp+a", "gp+a", "minlp", "minlp", "minlp+g", "minlp+g"])
] + [
    _text(_pipeline(9), MultiFPGAPlatform.from_classes(classes), "gp+a")
    for classes in ((_BIG, _SMALL), (_SMALL, _BIG))
]
_RUNTIME = re.compile(r'"runtime_seconds": [^,}]+')


def _post(port: int, path: str, body: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
    try:
        conn.request("POST", path, body=body.encode("utf-8"))
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def _get(port: int, path: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def _round_trips(text: str) -> bool:
    return text == json.dumps(json.loads(text), allow_nan=False)


def _outcome_texts(text: str) -> list[str]:
    payload, texts = loads_batch(text, "outcomes")
    assert texts is not None and len(texts) == len(payload["outcomes"])
    return [_RUNTIME.sub('"runtime_seconds": 0', element) for element in texts]


@pytest.fixture(scope="module")
def topologies(tmp_path_factory):
    shared_packing_memos_clear()
    discretization_cache_clear()
    data_dir = tmp_path_factory.mktemp("text-path-pool")
    spec = WorkerSpec(group=0, data_dir=str(data_dir), tracing=False)
    pool = WorkerPool(2, str(data_dir), spec=spec).start()
    router = RouterService(pool)
    routed, _ = start_server(router)
    service = AllocationService(store=ResultStore(), tracing=False)
    single, _ = start_server(service)
    try:
        yield single.server_address[1], routed.server_address[1], router
    finally:
        for server, app in ((routed, router), (single, service)):
            server.shutdown()
            server.server_close()
            app.close()


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(picks=st.lists(st.integers(0, len(REQUESTS) - 1), min_size=1, max_size=12))
def test_router_bodies_are_spliced_texts_equal_to_the_single_process(topologies, picks):
    single, routed, _ = topologies
    elements = [REQUESTS[pick] for pick in picks]
    body = json_with_array({}, "requests", elements)
    single_status, single_text = _post(single, "/solve_batch", body)
    routed_status, routed_text = _post(routed, "/solve_batch", body)
    assert single_status == routed_status == 200
    assert _round_trips(routed_text)
    expected = _outcome_texts(single_text)
    assert _outcome_texts(routed_text) == expected
    assert json.loads(routed_text)["fingerprints"] == json.loads(single_text)["fingerprints"]

    async_body = json_with_array({"mode": "async"}, "requests", elements)
    status, ack = _post(routed, "/solve_batch", async_body)
    assert status == 202
    job_id = json.loads(ack)["job_id"]
    deadline = time.monotonic() + 120.0
    while True:
        status, text = _get(routed, f"/jobs/{job_id}")
        assert status == 200
        if json.loads(text)["status"] == "done" or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    assert json.loads(text)["status"] == "done"
    assert _round_trips(text)
    assert _outcome_texts(text) == expected


def test_a_dropped_non_finite_field_is_answered_alike(topologies):
    """A NaN in a field that decoding drops reaches the worker as sent."""
    single, routed, _ = topologies
    document = json.loads(REQUESTS[0])
    document["heuristic_settings"] = {"discretization_max_nodes": float("nan")}
    element = json.dumps(document)
    assert "NaN" in element
    for mode in ("sync", "async"):
        body = json_with_array({"mode": mode}, "requests", [element, REQUESTS[1]])
        single_status, _ = _post(single, "/solve_batch", body)
        routed_status, _ = _post(routed, "/solve_batch", body)
        assert single_status == routed_status == (200 if mode == "sync" else 202)


@pytest.mark.parametrize("value", ["null", "[2]", "true", "2.9", '"3"'])
def test_resize_takes_only_an_integer(topologies, value):
    _, routed, router = topologies
    status, text = _post(routed, "/admin/resize", '{"num_groups": %s}' % value)
    assert status == 400
    assert "num_groups" in json.loads(text)["error"]
    assert router.ring.num_groups == 2


def test_resize_over_the_bound_starts_no_worker(topologies, monkeypatch):
    _, routed, router = topologies

    def refuse() -> int:
        raise AssertionError("an oversized resize started a worker")

    monkeypatch.setattr(router.pool, "add_group", refuse)
    for value in (MAX_GROUPS + 1, 10**9):
        status, text = _post(routed, "/admin/resize", json.dumps({"num_groups": value}))
        assert status == 413
        assert str(MAX_GROUPS) in json.loads(text)["error"]
    assert router.ring.num_groups == 2
    assert len(router.pool.worker_status()) == 2
