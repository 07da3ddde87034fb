"""The one HTTP front door: route table, error map and body bound, on both
serving topologies (a single-process service and a 2-worker router).

Every route in :data:`~repro.service.frontdoor.ROUTES` is called on both
topologies and must answer the same status code; fleet documents that went
through the router must equal the single-process ones byte for byte.  A
pool worker must also exit once the process serving the router dies.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.problem import AllocationProblem
from repro.fleet import fleet_to_dict, tenant_to_dict
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.service import (
    MAX_BATCH_REQUESTS,
    MAX_BODY_BYTES,
    ROUTES,
    AllocationService,
    ResultStore,
    RetryPolicy,
    RouterService,
    ServiceClient,
    ServiceError,
    SolveRequest,
    WorkerPool,
    WorkerSpec,
    request_to_dict,
    start_server,
)
from repro.service import server as server_module
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline
from repro.workloads.tenants import arrival_sequence, synthetic_fleet

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _request_document(index: int) -> dict:
    pipeline = Pipeline(
        name=f"door{index}",
        kernels=[
            Kernel("A", ResourceVector(bram=10.0 + index, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0), bandwidth=2.0, wcet_ms=4.0),
        ],
    )
    problem = AllocationProblem(
        pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=60.0 + index)
    )
    return request_to_dict(SolveRequest(problem=problem))


def _call(
    port: int, method: str, path: str, payload: object = None
) -> tuple[int, dict[str, str], bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _without_runtimes(value: object) -> object:
    """``value`` minus every wall-clock ``runtime_seconds`` field."""
    if isinstance(value, dict):
        return {
            key: _without_runtimes(item)
            for key, item in value.items()
            if key != "runtime_seconds"
        }
    if isinstance(value, list):
        return [_without_runtimes(item) for item in value]
    return value


class _Single:
    def __init__(self) -> None:
        self.app = AllocationService(store=ResultStore(), tracing=False)
        self.server, _ = start_server(self.app, port=0)
        self.port = self.server.server_address[1]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.app.close()


class _Routed:
    def __init__(self, data_dir: Path) -> None:
        spec = WorkerSpec(group=0, data_dir=str(data_dir), tracing=False)
        self.pool = WorkerPool(2, str(data_dir), spec=spec).start()
        self.app = RouterService(self.pool)
        self.server, _ = start_server(self.app, port=0)
        self.port = self.server.server_address[1]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.app.close()


@pytest.fixture
def topologies(tmp_path):
    single = _Single()
    routed = _Routed(tmp_path / "pool")
    try:
        yield single, routed
    finally:
        single.close()
        routed.close()


FLEET = fleet_to_dict(synthetic_fleet(num_tenants=2, class_counts=(2, 1), seed=4))
NEWCOMER = tenant_to_dict(arrival_sequence(num_tenants=3, seed=4)[2])


def _exercise(topology) -> list[tuple[str, str, int, object]]:
    """Call every route (and the 404 cases) in one fixed order; returns
    ``(method, route path, status, comparable body)`` per call."""
    port = topology.port
    calls: list[tuple[str, str, int, object]] = []

    def call(method: str, path: str, route: str, payload: object = None) -> dict:
        status, _, body = _call(port, method, path, payload)
        document = json.loads(body) if body.startswith(b"{") else None
        comparable = None
        if document is not None and "allocation" in document:
            comparable = json.dumps(_without_runtimes(document["allocation"]))
        calls.append((method, route, status, comparable))
        return document or {}

    # Tenant operations before any fleet exists conflict with the state.
    call("POST", "/fleet/tenants", "/fleet/tenants", {"tenant": NEWCOMER})
    call("DELETE", "/fleet/tenants/tenant-0", "/fleet/tenants/")
    call("GET", "/health", "/health")
    call("POST", "/solve", "/solve", _request_document(0))
    call("POST", "/solve_batch", "/solve_batch", {"requests": [_request_document(1)] * 3})
    job = call(
        "POST", "/solve_batch", "/solve_batch",
        {"mode": "async", "requests": [_request_document(2)]},
    )
    call("GET", f"/jobs/{job['job_id']}", "/jobs/")
    call("GET", "/jobs/job-missing", "/jobs/")
    call("GET", "/jobs", "/jobs")
    call("GET", "/trace/unknown-fingerprint", "/trace/")
    call("POST", "/fleet/allocate", "/fleet/allocate", {"fleet": FLEET})
    call("POST", "/fleet/tenants", "/fleet/tenants", {"tenant": NEWCOMER})
    call("DELETE", f"/fleet/tenants/{NEWCOMER['id']}", "/fleet/tenants/")
    call("DELETE", "/fleet/tenants/tenant-99", "/fleet/tenants/")
    call("GET", "/stats", "/stats")
    call("GET", "/metrics", "/metrics")
    # Unknown endpoints and known paths under the wrong method.
    call("GET", "/nowhere", "unknown")
    call("POST", "/nowhere", "unknown", {})
    call("GET", "/solve", "unknown")
    call("DELETE", "/stats", "unknown")
    return calls


EXPECTED_STATUSES = [409, 409, 200, 200, 200, 202, 200, 404, 200, 404,
                     200, 201, 200, 404, 200, 200, 404, 404, 404, 404]


def test_every_route_answers_alike_on_both_topologies(topologies):
    single, routed = topologies
    single_calls = _exercise(single)
    routed_calls = _exercise(routed)
    assert [status for *_, status, _ in single_calls] == EXPECTED_STATUSES
    assert [status for *_, status, _ in routed_calls] == EXPECTED_STATUSES
    # Fleet allocate -> arrival -> departure: identical allocation documents.
    single_docs = [doc for *_, doc in single_calls if doc is not None]
    routed_docs = [doc for *_, doc in routed_calls if doc is not None]
    assert len(single_docs) == 3
    assert routed_docs == single_docs
    # Every route of the table was called, besides the router-only resize.
    called = {(method, route) for method, route, *_ in single_calls}
    assert set(ROUTES) - {("POST", "/admin/resize")} <= called

    # The router-only route: a shrink is refused, the service has no such route.
    assert _call(single.port, "POST", "/admin/resize", {"num_groups": 1})[0] == 404
    assert _call(routed.port, "POST", "/admin/resize", {"num_groups": 1})[0] == 400


class TestErrorMap:
    def test_solver_fault_is_a_500_not_a_409(self, monkeypatch):
        def broken_solver(*args, **kwargs):
            raise RuntimeError("injected solver fault")

        monkeypatch.setattr(server_module, "solve", broken_solver)
        single = _Single()
        try:
            status, _, body = _call(single.port, "POST", "/solve", _request_document(3))
        finally:
            single.close()
        assert status == 500
        assert json.loads(body) == {"error": "internal error: injected solver fault"}

    def test_get_route_fault_is_a_500(self, monkeypatch):
        single = _Single()
        try:
            monkeypatch.setattr(single.app, "stats", lambda: 1 / 0)
            status, _, body = _call(single.port, "GET", "/stats")
        finally:
            single.close()
        assert status == 500
        assert json.loads(body)["error"].startswith("internal error:")

    def test_closed_queue_is_a_503_with_retry_after(self):
        single = _Single()
        try:
            single.app.jobs.close()
            status, headers, body = _call(
                single.port, "POST", "/solve_batch",
                {"mode": "async", "requests": [_request_document(4)]},
            )
        finally:
            single.close()
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert json.loads(body)["error"] == "job queue is closed"

    def test_router_fault_is_a_500(self, topologies, monkeypatch):
        _, routed = topologies

        def broken(*args, **kwargs):
            raise RuntimeError("injected router fault")

        monkeypatch.setattr(routed.app, "fingerprints_of", broken)
        status, _, body = _call(routed.port, "POST", "/solve", _request_document(5))
        assert status == 500
        assert json.loads(body) == {"error": "internal error: injected router fault"}
        monkeypatch.setattr(routed.app, "health", broken)
        assert _call(routed.port, "GET", "/health")[0] == 500


def _raw_post(port: int, content_length: str | None) -> tuple[int, bytes]:
    """POST /solve_batch with a hand-set Content-Length and no body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.putrequest("POST", "/solve_batch")
        if content_length is not None:
            conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.mark.parametrize(
    "content_length, status",
    [
        (str(MAX_BODY_BYTES + 1), 413),
        (str(10**15), 413),
        (None, 400),
        ("-5", 400),
        ("0", 400),
        ("twelve", 400),
    ],
)
def test_request_body_bound_on_both_topologies(topologies, content_length, status):
    for topology in topologies:
        answered, body = _raw_post(topology.port, content_length)
        assert answered == status
        assert "error" in json.loads(body)
        # The server is still serving after refusing the body.
        assert _call(topology.port, "GET", "/health")[0] == 200


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_batch_size_bound_on_both_topologies(topologies, mode):
    # The elements are never decoded: an empty document would be a 400.
    oversized = {"mode": mode, "requests": [{}] * (MAX_BATCH_REQUESTS + 1)}
    for topology in topologies:
        status, _, body = _call(topology.port, "POST", "/solve_batch", oversized)
        assert status == 413
        document = json.loads(body)
        assert "job_id" not in document
        assert str(MAX_BATCH_REQUESTS) in document["error"]
        stats = json.loads(_call(topology.port, "GET", "/stats")[2])
        assert stats["service"]["solves"] == 0
        assert stats["jobs"]["submitted"] == 0
        if topology is topologies[1]:
            assert stats["router"]["jobs"] == 0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_exit_when_the_router_process_is_killed(tmp_path):
    port = _free_port()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", str(port), "--quiet",
            "--worker-processes", "2", "--data-dir", str(tmp_path / "pool"),
        ],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(
        f"http://127.0.0.1:{port}", retry_policy=RetryPolicy(retries=0)
    )
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                pids = [row["pid"] for row in client.stats()["pool"]]
                break
            except ServiceError:
                assert process.poll() is None and time.monotonic() < deadline
                time.sleep(0.1)
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
