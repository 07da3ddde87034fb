"""Repeated request texts: scanned once per body, decoded once per server.

* ``loads_batch`` reuses the value of an object element whose text repeats
  an earlier one; whatever the body, it must still equal ``json.loads`` and
  hand back each element's source slice, and its per-element work must not
  grow with the number of distinct elements seen;
* a well-formed 1000-request/64-unique body or batch response never falls
  back to ``json.loads``, and scans each distinct element once;
* the request memo behind ``requests_from_documents`` is a bounded LRU
  that admits only texts that repeat;
* the client shares duplicate outcome documents and binds each once;
* both HTTP front doors send small responses without a Nagle delay.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import AllocationProblem
from repro.core.solution import SolveOutcome
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.service import AllocationService, ServiceClient, SolveRequest, start_server
from repro.service import batch as batch_module
from repro.service import client as client_module
from repro.service.batch import (
    loads_batch,
    request_memo_clear,
    request_to_dict,
    requests_from_documents,
)
from repro.service.router import _RouterRequestHandler
from repro.service.server import _ServiceRequestHandler
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline
from repro.workloads.serialization import SerializationError


def _request(limit: float) -> SolveRequest:
    pipeline = Pipeline(
        name="tiny",
        kernels=[
            Kernel("A", ResourceVector(bram=10.0, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            Kernel("B", ResourceVector(bram=5.0, dsp=10.0), bandwidth=2.0, wcet_ms=4.0),
        ],
    )
    return SolveRequest(
        problem=AllocationProblem(
            pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=limit)
        )
    )


UNIQUE = [_request(50.0 + 0.5 * index) for index in range(64)]
#: 1000 picks over the 64 unique requests, every one of them repeated.
PICKS = [(index * 37) % len(UNIQUE) for index in range(1000)]


# --------------------------------------------------------------------------- #
# The repeat-aware array scan
# --------------------------------------------------------------------------- #
#: Element texts that trip a naive repeat scan: numbers that are prefixes
#: of each other, braces and brackets inside strings, duplicate keys, the
#: separator-and-head of another element inside an element, and the same
#: value spelled two ways.
ELEMENTS = [
    '{"a": 1}',
    '{"a": 10}',
    '{"a": 1.0}',
    '{"a":1}',
    '{"a": 1, "a": 2}',
    '{"a": "}"}',
    '{"a": "]"}',
    '{"a": "\\"}, {\\"a\\": 1}"}',
    '{"b": [0, {"a": 1}], "c": 2}',
    '{"a": {"a": 1}}',
    "{}",
    "{ }",
    "1",
    "10",
    "1.0",
    '"}"',
    "[1]",
    '[0, {"a": 1}]',
    "null",
]
WHITESPACE = st.sampled_from(["", " ", "\n", "\n  ", "\t "])


@st.composite
def array_bodies(draw):
    """``(key, body, elements)``: a body whose array ``key`` holds exactly
    the element texts ``elements``, with any whitespace between them."""
    key = draw(st.sampled_from(["requests", "outcomes"]))
    elements = draw(st.lists(st.sampled_from(ELEMENTS), max_size=12))
    parts = []
    for position, element in enumerate(elements):
        if position:
            parts.append(draw(WHITESPACE) + "," + draw(WHITESPACE))
        parts.append(element)
    array = "[" + draw(WHITESPACE) + "".join(parts) + draw(WHITESPACE) + "]"
    members = [f'"{key}":' + draw(WHITESPACE) + array]
    if draw(st.booleans()):
        members.insert(0, '"mode": "async"')
    if draw(st.booleans()):
        members.append('"x": [{"a": 1}, {"a": 1}]')
    body = draw(WHITESPACE) + "{" + ", ".join(members) + "}" + draw(WHITESPACE)
    return key, body, elements


def _dumped(value) -> str:
    """A value as text that tells ``1`` from ``1.0`` (``==`` does not)."""
    return json.dumps(value)


@settings(max_examples=400, deadline=None)
@given(case=array_bodies())
def test_scan_equals_json_loads_and_returns_source_slices(case):
    key, body, elements = case
    payload, texts = loads_batch(body, key)
    assert _dumped(payload) == _dumped(json.loads(body))
    assert texts == elements
    # Not through the json.loads fallback: the scan itself produced it.
    assert _dumped(batch_module._scan_batch(body, key)[0]) == _dumped(payload)


def test_repeated_elements_share_one_value():
    body = '{"requests": [{"a": [1]}, {"a": [1]}, {"a": [1]}, {"a": [1]}] }'
    payload, texts = loads_batch(body)
    first = payload["requests"][0]
    assert all(value is first for value in payload["requests"])
    assert all(text is texts[0] for text in texts)


def _request_body() -> str:
    return json.dumps({"requests": [request_to_dict(UNIQUE[pick]) for pick in PICKS]})


def _count_element_scans(monkeypatch) -> list[int]:
    calls: list[int] = []
    scan = batch_module._scan_value
    monkeypatch.setattr(
        batch_module, "_scan_value", lambda text, index: calls.append(1) or scan(text, index)
    )
    return calls


def _expected_scans(texts: list[str], other_keys: int) -> int:
    """One scan per distinct element and per other top-level value."""
    return len(set(texts)) + other_keys


def test_request_body_scans_each_distinct_element_once(monkeypatch):
    body = _request_body()
    calls = _count_element_scans(monkeypatch)
    payload, texts = batch_module._scan_batch(body, "requests")
    assert _dumped(payload) == _dumped(json.loads(body))
    assert len(set(texts)) == len(UNIQUE)
    assert len(calls) == _expected_scans(texts, other_keys=0)


@pytest.fixture(scope="module")
def served():
    service = AllocationService(job_workers=1)
    server, _ = start_server(service)
    try:
        yield server, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _post(url: str, body: str) -> bytes:
    request = urllib.request.Request(url, data=body.encode("utf-8"))
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read()


def test_batch_responses_scan_each_distinct_outcome_once(served, monkeypatch):
    server, service = served
    body = _request_body()
    sync = _post(f"{server.url}/solve_batch", body).decode("utf-8")
    async_body = body[:-1] + ', "mode": "async"}'
    job_id = json.loads(_post(f"{server.url}/solve_batch", async_body))["job_id"]
    assert service.jobs.wait(job_id, timeout_seconds=120.0)["status"] == "done"
    with urllib.request.urlopen(f"{server.url}/jobs/{job_id}", timeout=120) as response:
        job = response.read().decode("utf-8")
    for raw in (sync, job):
        calls = _count_element_scans(monkeypatch)
        payload, texts = batch_module._scan_batch(raw, "outcomes")
        assert _dumped(payload) == _dumped(json.loads(raw))
        assert len(set(texts)) == len(UNIQUE)
        other_keys = len(payload) - 1
        assert len(calls) == _expected_scans(texts, other_keys)


@pytest.mark.parametrize("layout", ["shared-head", "other-head"])
def test_scan_work_per_element_is_bounded(layout):
    """5000 distinct objects of distinct lengths: the scan may not probe
    every earlier element (or length) for each new one.  Such a scan is
    quadratic here and takes hundreds of times ``json.loads``'s time; this
    one takes a few times."""
    elements = [json.dumps({"a": "x" * length}) for length in range(1, 5001)]
    if layout == "other-head":  # the repeat marker never occurs again
        elements = ['{"b": 0}'] + elements
    body = json.dumps({"requests": [json.loads(element) for element in elements]})
    reference = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        json.loads(body)
        reference = min(reference, time.perf_counter() - start)
    for _ in range(3):  # a retry only for a pause on a busy host
        start = time.perf_counter()
        texts = loads_batch(body)[1]
        ratio = (time.perf_counter() - start) / reference
        if ratio < 10.0:
            break
    assert texts == elements
    assert ratio < 10.0


# --------------------------------------------------------------------------- #
# The request memo
# --------------------------------------------------------------------------- #
def _decode_counter(monkeypatch) -> list[int]:
    calls: list[int] = []
    decode = batch_module.request_from_dict
    monkeypatch.setattr(
        batch_module, "request_from_dict", lambda doc: calls.append(1) or decode(doc)
    )
    return calls


def _documents(count: int) -> tuple[list[dict], list[str]]:
    documents = [request_to_dict(_request(10.0 + 0.25 * index)) for index in range(count)]
    return documents, [json.dumps(document) for document in documents]


def test_request_memo_admits_repeated_texts_only(monkeypatch):
    documents, texts = _documents(40)
    request_memo_clear()
    decodes = _decode_counter(monkeypatch)
    requests_from_documents(documents, texts)  # cold traffic: nothing repeats
    assert len(batch_module._request_memo) == 0
    # A text seen in an earlier call is memoized on its second decode ...
    second = requests_from_documents(documents[:1], texts[:1])[0]
    assert requests_from_documents(documents[:1], texts[:1])[0] is second
    # ... one that repeats within a call, on its first.
    pair = requests_from_documents([documents[1]] * 2, [texts[1]] * 2)
    assert requests_from_documents(documents[1:2], texts[1:2])[0] is pair[0]
    assert len(decodes) == len(documents) + 2
    # Without source texts (WAL replay) nothing is memoized.
    requests_from_documents([documents[2]] * 2)
    requests_from_documents([documents[2]])
    assert len(decodes) == len(documents) + 4
    request_memo_clear()


def test_request_memo_is_a_bounded_lru(monkeypatch):
    limit = batch_module._request_memo.max_entries
    documents, texts = _documents(limit + 1)
    request_memo_clear()
    decodes = _decode_counter(monkeypatch)

    def send_twice(index: int) -> SolveRequest:
        return requests_from_documents([documents[index]] * 2, [texts[index]] * 2)[0]

    first = send_twice(0)
    for index in range(1, limit):
        send_twice(index)
        # Keep the first entry recently used: the oldest one is evicted.
        assert requests_from_documents(documents[:1], texts[:1])[0] is first
    assert len(decodes) == limit
    send_twice(limit)  # evicts entry 1
    assert len(batch_module._request_memo) == limit
    counts: dict[str, int] = {}
    again = requests_from_documents(documents[:2] * 3, texts[:2] * 3, counts)
    assert again[0] is first
    assert counts == {"misses": 1, "hits": 5}
    assert len(decodes) == limit + 2
    request_memo_clear()


def test_invalid_documents_are_not_memoized(monkeypatch):
    request_memo_clear()
    decodes = _decode_counter(monkeypatch)
    documents = [{"method": "gp+a"}]
    for _ in range(2):
        with pytest.raises(SerializationError):
            requests_from_documents(documents, [json.dumps(documents[0])])
    assert len(decodes) == 2


# --------------------------------------------------------------------------- #
# Client decode and binding
# --------------------------------------------------------------------------- #
class _Response:
    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self) -> bytes:
        return self.body


@pytest.fixture(scope="module")
def solved_batch(served):
    """A raw sync response for 1000 requests over 64 problems."""
    server, _ = served
    return _post(f"{server.url}/solve_batch", _request_body())


def _client_answering(monkeypatch, body: bytes) -> ServiceClient:
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout=None: _Response(body))
    return ServiceClient("http://service.invalid")


def test_client_document_equals_json_loads(monkeypatch, solved_batch):
    client = _client_answering(monkeypatch, solved_batch)
    document = client.solve_batch([UNIQUE[pick] for pick in PICKS])
    assert json.dumps(document) == json.dumps(json.loads(solved_batch))
    outcomes = document["outcomes"]
    assert outcomes[0] is outcomes[PICKS.index(PICKS[0], 1)]


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_client_binds_each_distinct_outcome_once(monkeypatch, solved_batch, mode):
    requests = [UNIQUE[pick] for pick in PICKS]
    raw = json.loads(solved_batch)
    if mode == "async":
        job = {"job_id": "job-1", "status": "done", "report": raw["report"]}
        solved_batch = json.dumps({**job, "outcomes": raw["outcomes"]}).encode("utf-8")
    client = _client_answering(monkeypatch, solved_batch)
    monkeypatch.setattr(client, "solve_batch_async", lambda _: {"job_id": "job-1"})
    binds: list[int] = []
    bind = SolveOutcome.from_dict
    monkeypatch.setattr(
        client_module.SolveOutcome,
        "from_dict",
        staticmethod(lambda *args, **kwargs: binds.append(1) or bind(*args, **kwargs)),
    )
    if mode == "sync":
        outcomes, _ = client.solve_batch_outcomes(requests)
    else:
        outcomes, _ = client.solve_batch_async_outcomes(requests, poll_seconds=0.0)
    assert len(binds) == len(UNIQUE)
    assert [outcome.to_dict() for outcome in outcomes] == [
        bind(document, problem=request.problem).to_dict()
        for document, request in zip(raw["outcomes"], requests)
    ]
    assert outcomes[0] is outcomes[PICKS.index(PICKS[0], 1)]


# --------------------------------------------------------------------------- #
# Transport
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("handler", [_ServiceRequestHandler, _RouterRequestHandler])
def test_front_doors_disable_nagle(handler):
    # Headers and body are two writes; Nagle would hold a small body back
    # until the client's delayed ACK of the headers.
    assert handler.disable_nagle_algorithm is True
