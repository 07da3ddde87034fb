"""Wire identity of the batch path: one decode, one encode per distinct document.

The server decodes each distinct request document of a batch once, and
encodes each distinct outcome once; the client encodes each distinct request
once.  None of that may show on the wire.  These tests hold every body to the
bytes of the plain per-document loops:

* sync ``/solve_batch`` responses equal ``json.dumps`` of the reference
  ``{"report", "fingerprints", "outcomes"}`` document (``runtime_seconds``
  aside), with outcomes equal to single ``/solve`` answers;
* ``GET /jobs/<id>`` equals ``json.dumps`` of the in-process job document;
* client request bodies equal ``json.dumps`` of the per-request documents;
* invalid documents fail with the reference 400 message, decoded once.

The document pool mixes exact duplicates, key-order variants, ``1`` vs
``1.0`` spellings and a heterogeneous platform in two class orders (the
``canonical_fpga_order`` branch of ``solve_batch``).
"""

from __future__ import annotations

import copy
import json
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import HeuristicSettings
from repro.core.problem import AllocationProblem
from repro.core.solution import SolveOutcome
from repro.platform.multi_fpga import DeviceClass, MultiFPGAPlatform
from repro.platform.presets import XCKU115, XCVU9P, aws_f1
from repro.platform.resources import ResourceVector
from repro.service import batch as batch_module
from repro.service import (
    AllocationService,
    ResultStore,
    ServiceClient,
    SolveRequest,
    start_server,
)
from repro.service.jobs import JobQueue
from repro.service.batch import (
    decode_memo_clear,
    decode_outcome,
    loads_batch,
    request_from_dict,
    request_memo_clear,
    request_to_dict,
    requests_from_documents,
    solve_batch,
)
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline
from repro.workloads.serialization import SerializationError


def _pipeline() -> Pipeline:
    return Pipeline(
        name="tiny",
        kernels=[
            Kernel("A", ResourceVector(bram=10.0, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0), bandwidth=2.0, wcet_ms=4.0),
            Kernel("C", ResourceVector(bram=2.0, dsp=30.0), bandwidth=3.0, wcet_ms=12.0),
        ],
    )


def _reversed_keys(value):
    """The same JSON value with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


def _integral_floats_as_ints(value):
    """The same numbers, with integral floats spelled ``1`` instead of ``1.0``."""
    if isinstance(value, dict):
        return {key: _integral_floats_as_ints(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_integral_floats_as_ints(item) for item in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _document_pool() -> list[dict]:
    pipeline = _pipeline()
    homogeneous = AllocationProblem(
        pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0)
    )
    big = DeviceClass(XCVU9P, 1, ResourceVector.full(70.0), 100.0)
    small = DeviceClass(XCKU115, 2, ResourceVector.full(40.0), 50.0)
    mixed_ab = AllocationProblem(
        pipeline=pipeline, platform=MultiFPGAPlatform.from_classes((big, small))
    )
    mixed_ba = AllocationProblem(
        pipeline=pipeline, platform=MultiFPGAPlatform.from_classes((small, big))
    )
    plain = request_to_dict(SolveRequest(problem=homogeneous))
    tuned = request_to_dict(
        SolveRequest(
            problem=homogeneous, heuristic_settings=HeuristicSettings(delta_percent=1.0)
        )
    )
    return [
        plain,
        _reversed_keys(plain),
        _integral_floats_as_ints(plain),
        tuned,
        _integral_floats_as_ints(tuned),
        request_to_dict(SolveRequest(problem=mixed_ab)),
        request_to_dict(SolveRequest(problem=mixed_ba)),
        request_to_dict(SolveRequest(problem=mixed_ab, method="minlp")),
    ]


POOL = _document_pool()

#: Invalid documents, each with the reference 400 message of request_from_dict.
INVALID = [
    ["not", "an", "object"],
    {"method": "gp+a"},
    {**POOL[0], "method": "simulated-annealing"},
    {**POOL[0], "heuristic_settings": {"no_such_field": 1}},
    {**POOL[0], "problem": {**POOL[0]["problem"], "platform": {"format_version": 1}}},
]


def _reference_error(documents: list) -> str:
    """The message the per-document decode loop raises for ``documents``."""
    try:
        [request_from_dict(document) for document in documents]
    except SerializationError as error:
        return str(error)
    raise AssertionError("expected an invalid document")


def _post(url: str, body: str) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=body.encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=120) as response:
        return response.read()


@pytest.fixture(scope="module")
def served():
    """A warm in-process server: every pool document was answered by a
    single ``/solve`` (twice, so the recorded answers are cache hits, like
    every batch answer below)."""
    service = AllocationService(job_workers=1)
    server, _ = start_server(service)
    single: list[dict] = []
    try:
        for document in POOL:
            _post(f"{server.url}/solve", json.dumps(document))
            status, body = _post(f"{server.url}/solve", json.dumps(document))
            assert status == 200
            response = json.loads(body)
            assert response["cache"] == "memory"
            single.append(response["outcome"])
        yield server, service, single
    finally:
        server.shutdown()
        server.server_close()
        service.close()


batches = st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=40)


class TestSyncResponse:
    @settings(max_examples=30, deadline=None)
    @given(picks=batches)
    def test_body_equals_per_outcome_encoding(self, served, picks):
        server, service, single = served
        documents = [POOL[pick] for pick in picks]
        status, body = _post(f"{server.url}/solve_batch", json.dumps({"requests": documents}))
        assert status == 200
        response = json.loads(body)

        # Reference: the per-document decode and per-outcome encode loops.
        requests = [request_from_dict(document) for document in documents]
        outcomes, report = solve_batch(requests, store=service.store)
        expected_report = report.as_dict()
        expected_report["runtime_seconds"] = response["report"]["runtime_seconds"]
        expected = json.dumps(
            {
                "report": expected_report,
                "fingerprints": report.fingerprints,
                "outcomes": [outcome.to_dict() for outcome in outcomes],
            },
            allow_nan=False,
        )
        assert body.decode("utf-8") == expected
        assert response["report"]["unique"] == report.unique
        assert response["report"]["duplicates"] == report.duplicates
        assert response["fingerprints"] == [request.fingerprint() for request in requests]
        assert response["outcomes"] == [single[pick] for pick in picks]

    def test_duplicates_decode_and_fingerprint_once(self, served, monkeypatch):
        server, _, _ = served
        request_memo_clear()  # earlier tests sent the pool already
        decodes: list[int] = []
        prints: list[int] = []
        decode, keys = batch_module.request_from_dict, batch_module.fingerprint
        monkeypatch.setattr(
            batch_module, "request_from_dict", lambda doc: decodes.append(1) or decode(doc)
        )
        monkeypatch.setattr(
            batch_module,
            "fingerprint",
            lambda *args: prints.append(1) or keys(*args),
        )
        documents = [POOL[index % len(POOL)] for index in range(1000)]
        status, _ = _post(f"{server.url}/solve_batch", json.dumps({"requests": documents}))
        assert status == 200
        assert len(decodes) == len(POOL)
        assert len(prints) == len(POOL)
        # The same documents in a later batch: answered from the request memo.
        decodes.clear()
        prints.clear()
        status, _ = _post(f"{server.url}/solve_batch", json.dumps({"requests": documents}))
        assert status == 200
        assert len(decodes) == 0
        assert len(prints) == 0


class TestJobDocument:
    def test_poll_body_equals_in_process_document(self, served):
        server, service, single = served
        picks = [index % len(POOL) for index in range(200)]
        body = json.dumps({"mode": "async", "requests": [POOL[pick] for pick in picks]})
        status, ack = _post(f"{server.url}/solve_batch", body)
        assert status == 202
        job_id = json.loads(ack)["job_id"]
        finished = service.jobs.wait(job_id, timeout_seconds=120.0)
        assert finished["status"] == "done"
        polled = _get(f"{server.url}/jobs/{job_id}").decode("utf-8")
        assert polled == json.dumps(finished, allow_nan=False)
        assert json.loads(polled)["outcomes"] == [single[pick] for pick in picks]

    def test_queued_job_body_equals_in_process_document(self):
        jobs = JobQueue(runner=solve_batch, start_workers=False)
        job_id = jobs.submit([request_from_dict(POOL[0])])["job_id"]
        assert jobs.get_json(job_id) == json.dumps(jobs.get(job_id), allow_nan=False)
        assert "outcomes" not in jobs.get(job_id)
        assert jobs.get_json("job-missing") is None

    def test_outcome_documents_are_built_once_per_outcome(self, served, monkeypatch):
        """A warm replay's job shares the outcome documents of the job before
        it, and they still equal the single ``/solve`` answers."""
        _, service, single = served
        requests = [request_from_dict(POOL[0]), request_from_dict(POOL[3])] * 3
        first = service.jobs.wait(service.submit_batch(requests)["job_id"], timeout_seconds=120.0)
        built: list[SolveOutcome] = []
        to_dict = SolveOutcome.to_dict

        def counting_to_dict(outcome, *args, **kwargs):
            built.append(outcome)
            return to_dict(outcome, *args, **kwargs)

        monkeypatch.setattr(SolveOutcome, "to_dict", counting_to_dict)
        second = service.jobs.wait(service.submit_batch(requests)["job_id"], timeout_seconds=120.0)
        assert built == []
        assert all(a is b for a, b in zip(first["outcomes"], second["outcomes"]))
        assert second["outcomes"] == [single[0], single[3]] * 3


class TestDecodeMemo:
    def test_equal_problem_hits_and_changed_payload_misses(self):
        request = request_from_dict(POOL[0])
        twin = request_from_dict(_reversed_keys(POOL[0]))
        assert twin.problem == request.problem and twin.problem is not request.problem
        store = ResultStore()
        solve_batch([request], store=store)
        fingerprint = request.fingerprint()
        payload = store.get(fingerprint).payload
        decode_memo_clear()
        decoded = decode_outcome(payload, request.problem, fingerprint=fingerprint)
        assert decode_outcome(payload, request.problem, fingerprint=fingerprint) is decoded
        assert decode_outcome(payload, twin.problem, fingerprint=fingerprint) is decoded
        changed = json.dumps({**json.loads(payload), "runtime_seconds": 12.5})
        redecoded = decode_outcome(changed, request.problem, fingerprint=fingerprint)
        assert redecoded is not decoded
        assert redecoded.runtime_seconds == 12.5
        assert redecoded.solution.counts == decoded.solution.counts


class TestErrors:
    @pytest.mark.parametrize("invalid", INVALID, ids=range(len(INVALID)))
    @pytest.mark.parametrize("position", [0, 3, 17])
    def test_first_invalid_document_decides_the_message(self, served, invalid, position):
        server, _, _ = served
        documents = [POOL[0]] * position + [invalid] + [POOL[1], INVALID[1], invalid]
        status, body = _post(f"{server.url}/solve_batch", json.dumps({"requests": documents}))
        assert status == 400
        assert json.loads(body) == {"error": _reference_error(documents)}

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_repeated_invalid_document_decodes_once(self, served, monkeypatch, mode):
        server, _, _ = served
        calls: list[int] = []
        decode = batch_module.request_from_dict
        monkeypatch.setattr(
            batch_module, "request_from_dict", lambda doc: calls.append(1) or decode(doc)
        )
        documents = [INVALID[2]] * 1000
        body = json.dumps({"mode": mode, "requests": documents})
        status, response = _post(f"{server.url}/solve_batch", body)
        assert status == 400
        assert json.loads(response) == {"error": _reference_error(documents)}
        assert len(calls) == 1

    @pytest.mark.parametrize("body", ['{"requests": [', "[1, 2", '{"requests": [1,]}'])
    def test_malformed_body_message_unchanged(self, served, body):
        server, _, _ = served
        status, response = _post(f"{server.url}/solve_batch", body)
        assert status == 400
        with pytest.raises(json.JSONDecodeError) as error:
            json.loads(body)
        assert json.loads(response) == {"error": f"request body is not valid JSON: {error.value}"}

    def test_requests_from_documents_shares_objects(self):
        documents = [POOL[0], copy.deepcopy(POOL[0]), POOL[1], POOL[0]]
        requests = requests_from_documents(documents)
        assert requests[0] is requests[1] is requests[3]
        assert requests[2] is not requests[0]  # another key order decodes on its own
        assert requests[2].fingerprint() == requests[0].fingerprint()


# --------------------------------------------------------------------------- #
# Body parsing
# --------------------------------------------------------------------------- #
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def bodies(draw):
    """Batch-like bodies in any layout, some of them broken or odd."""
    head = draw(st.dictionaries(st.sampled_from(["mode", "requests", "x"]), json_values))
    if draw(st.booleans()):
        head["requests"] = draw(st.lists(json_values, max_size=4))
    text = json.dumps(head, indent=draw(st.sampled_from([None, 0, 2])))
    edit = draw(st.sampled_from(["none", "truncate", "insert", "duplicate", "wrap"]))
    position = draw(st.integers(min_value=0, max_value=len(text)))
    if edit == "truncate":
        text = text[:position]
    elif edit == "insert":
        inserted = draw(st.sampled_from(list(' ,:[]{}"0e\\\n\ufeff')))
        text = text[:position] + inserted + text[position:]
    elif edit == "duplicate" and len(text) > 2:
        text = text[:-1] + ', "requests": ' + json.dumps(draw(json_values)) + "}"
    elif edit == "wrap":
        text = f"[{text}]"
    return text


def _parsed(parse, text):
    try:
        return "ok", json.dumps(parse(text))
    except json.JSONDecodeError as error:
        return "error", str(error)


@settings(max_examples=300, deadline=None)
@given(text=bodies())
def test_loads_batch_equals_json_loads(text):
    assert _parsed(lambda body: loads_batch(body)[0], text) == _parsed(json.loads, text)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return
    texts = loads_batch(text)[1]
    if isinstance(payload, dict) and isinstance(payload.get("requests"), list):
        assert texts is not None
        assert [json.dumps(json.loads(element)) for element in texts] == [
            json.dumps(element) for element in payload["requests"]
        ]
    else:
        assert texts is None


# --------------------------------------------------------------------------- #
# Client request bodies
# --------------------------------------------------------------------------- #
def _request_pool() -> list[SolveRequest]:
    pipeline = _pipeline()
    problem = AllocationProblem(
        pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0)
    )
    rebuilt = AllocationProblem(
        pipeline=_pipeline(), platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0)
    )
    first = SolveRequest(problem=problem)
    return [
        first,
        first,  # the same object again
        SolveRequest(problem=problem),  # another object around the same problem
        SolveRequest(problem=rebuilt),  # an equal problem built separately
        SolveRequest(problem=problem, method="minlp"),
        SolveRequest(problem=problem, heuristic_settings=HeuristicSettings(delta_percent=1)),
        SolveRequest(problem=problem, heuristic_settings=HeuristicSettings(delta_percent=1.0)),
    ]


REQUESTS = _request_pool()


class _CapturedResponse:
    status = 200

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self) -> bytes:
        return b"{}"


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.sampled_from(range(len(REQUESTS))), min_size=1, max_size=30))
def test_client_bodies_equal_per_request_encoding(picks):
    requests = [REQUESTS[pick] for pick in picks]
    sent: list[bytes] = []

    def capture(request, timeout=None):
        sent.append(request.data)
        return _CapturedResponse()

    client = ServiceClient("http://service.invalid")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(urllib.request, "urlopen", capture)
        client.solve_batch(requests)
        client.solve_batch_async(requests)
    documents = [request_to_dict(request) for request in requests]
    assert sent == [
        json.dumps({"requests": documents}).encode("utf-8"),
        json.dumps({"mode": "async", "requests": documents}).encode("utf-8"),
    ]
