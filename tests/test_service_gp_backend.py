"""A GP backend other than ``"bisection"`` is a client error on every route.

Bisection is the GP step's only solver; ``heuristic_settings.gp_backend``
stays on the wire because it is part of every gp+a fingerprint.  Any other
value must fail request decoding with a 400 -- on ``POST /solve`` and on
sync and async ``/solve_batch``, through the single-process server and
through the router -- before anything is solved or enqueued.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.heuristic import HeuristicSettings
from repro.core.problem import AllocationProblem
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    AllocationService,
    RouterService,
    SolveRequest,
    WorkerPool,
    WorkerSpec,
    request_to_dict,
    start_router,
    start_server,
)
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline


def _post(url: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def documents():
    """One valid gp+a request and the same request with each bad backend."""
    pipeline = Pipeline(
        name="tiny-backend",
        kernels=[
            Kernel("A", ResourceVector(bram=10.0, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0), bandwidth=2.0, wcet_ms=4.0),
        ],
    )
    problem = AllocationProblem(
        pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=80.0)
    )
    valid = request_to_dict(SolveRequest(problem=problem, heuristic_settings=HeuristicSettings()))
    invalid = []
    for backend in ("slsqp", "interior-point", "bisection-scalar", "bogus"):
        document = json.loads(json.dumps(valid))
        document["heuristic_settings"]["gp_backend"] = backend
        invalid.append(document)
    return valid, invalid


@pytest.fixture(scope="module", params=["server", "router"])
def url(request, tmp_path_factory):
    if request.param == "server":
        service = AllocationService(job_workers=1)
        server, _ = start_server(service, port=0)
        try:
            yield server.url
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        return
    data_dir = tmp_path_factory.mktemp("pool")
    pool = WorkerPool(2, str(data_dir), spec=WorkerSpec(group=0, data_dir=str(data_dir)))
    pool.start()
    router = RouterService(pool)
    server, thread = start_router(router, "127.0.0.1", 0)
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=30.0)
        server.server_close()
        router.close()


def test_non_bisection_gp_backend_is_rejected_everywhere(url, documents):
    valid, invalid = documents
    before = _get(f"{url}/stats")
    for document in invalid:
        backend = document["heuristic_settings"]["gp_backend"]
        for path, body in (
            ("/solve", document),
            ("/solve_batch", {"requests": [valid, document]}),
            ("/solve_batch", {"requests": [valid, document], "mode": "async"}),
        ):
            status, response = _post(f"{url}{path}", body)
            assert status == 400, (path, body.get("mode"), response)
            assert backend in response["error"]
            assert "job_id" not in response
    after = _get(f"{url}/stats")
    # Rejected at decode time: nothing solved, nothing enqueued or failed.
    assert after["service"]["solves"] == before["service"]["solves"] == 0
    assert after["jobs"]["submitted"] == before["jobs"]["submitted"] == 0
    assert after["jobs"]["failed"] == 0
    # The default backend still solves on the same route.
    status, response = _post(f"{url}/solve_batch", {"requests": [valid]})
    assert status == 200
    assert response["report"]["solves"] == 1
    # The outcome no longer names the one backend.
    assert "gp_backend" not in response["outcomes"][0]["details"]
