"""Batch solve API: dedupe by fingerprint, fan the rest out, cache results.

``solve_batch`` is the core of the allocation service: given N requests it
performs exactly as many solver invocations as there are *novel* problems --
duplicates collapse onto one fingerprint, cached fingerprints are answered
from the store, and only the remainder is solved, in request order.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome, SolveStatus
from ..core.solvers import METHODS, solve
from ..memo import Memo
from ..obs.trace import span
from ..workloads.serialization import SerializationError, problem_from_dict, problem_to_dict
from .canonical import RETIRED_HEURISTIC_CONSTANTS, canonical_fpga_order, fingerprint
from .canonical import outcome_payload_from_canonical, outcome_payload_to_canonical
from .store import ResultStore


def encode_outcome(outcome: SolveOutcome, problem: AllocationProblem) -> str:
    """Serialise an outcome for the result store, in canonical FPGA order.

    Fingerprints of heterogeneous platforms are invariant to the class
    order, so the stored counts must be too; homogeneous payloads are
    byte-identical to a plain ``to_dict`` dump.
    """
    return json.dumps(outcome_payload_to_canonical(outcome.to_dict(), problem))


#: Bounded memo of decoded outcomes, keyed on fingerprint.  The store tiers
#: cache *payload strings*; rebinding one to a problem costs a JSON parse
#: plus solution reconstruction, which dominates the warm hit path of large
#: batch replays.  Outcomes are frozen, so one decoded object can answer
#: every request sharing the payload and an equal problem.  Entries keep
#: the payload and problem they were decoded from and only answer
#: byte-identical payloads: two solves of one fingerprint yield
#: semantically equal results but may differ in the wall-clock field, and
#: a warm hit must return exactly what the store holds.  The problem is
#: matched by identity first, so a replayed request object never pays the
#: recursive dataclass hash or equality.
_decode_memo: "Memo[str, tuple[str, AllocationProblem, SolveOutcome]]" = Memo(4096)


def decode_memo_clear() -> None:
    """Drop every memoized decoded outcome (used by tests)."""
    _decode_memo.clear()


def decode_outcome(
    payload: str, problem: AllocationProblem, fingerprint: str | None = None
) -> SolveOutcome:
    """Rebind a stored payload to a request's problem (inverting the
    canonical FPGA order for heterogeneous platforms).

    With a ``fingerprint`` the decoded object is memoized: repeat warm hits
    for the same (fingerprint, problem) pair skip the JSON parse entirely.
    """
    if fingerprint is not None:
        entry = _decode_memo.get(fingerprint)
        if (
            entry is not None
            and entry[0] == payload
            and (entry[1] is problem or entry[1] == problem)
        ):
            return entry[2]
    outcome = SolveOutcome.from_dict(
        outcome_payload_from_canonical(json.loads(payload), problem), problem=problem
    )
    if fingerprint is not None:
        _decode_memo.put(fingerprint, (payload, problem, outcome))
    return outcome


def accumulate_counters(target: dict[str, int], source: Mapping[str, Any]) -> None:
    """Sum numeric solver counters into ``target`` (shared by the batch
    report and the service's ``/stats`` aggregate)."""
    for name, value in source.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            target[name] = target.get(name, 0) + int(value)


@dataclass(frozen=True)
class SolveRequest:
    """One allocation request: a problem, a method and optional settings."""

    problem: AllocationProblem
    method: str = "gp+a"
    heuristic_settings: HeuristicSettings | None = None
    exact_settings: ExactSettings | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; options: {METHODS}")

    @cached_property
    def _fingerprint(self) -> str:
        return fingerprint(self.problem, self.method, self.heuristic_settings, self.exact_settings)

    def fingerprint(self) -> str:
        """Canonical content fingerprint, memoized (the request is frozen)."""
        return self._fingerprint

    def task(self) -> "SolveRequest":
        """The request as a sweep task: it has the four fields the sweep
        executor's ``run_solve_task`` reads, so it is its own task."""
        return self


#: ``HeuristicSettings`` fields of retired solver options.  Older clients and
#: WAL records still carry them; they are dropped on decode so journaled
#: jobs replay.  The discretiser's branch-and-bound limits accept any value;
#: a field of :data:`RETIRED_HEURISTIC_CONSTANTS` only its one legal value.
_RETIRED_HEURISTIC_FIELDS = frozenset(
    {"discretization_max_nodes", "discretization_time_limit", *RETIRED_HEURISTIC_CONSTANTS}
)


def _settings_from_dict(cls: type, payload: Mapping[str, Any] | None, label: str):
    """Build a settings dataclass from a JSON mapping, rejecting unknown keys."""
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise SerializationError(f"{label} must be a JSON object")
    if cls is HeuristicSettings and not _RETIRED_HEURISTIC_FIELDS.isdisjoint(payload):
        for key, legal in RETIRED_HEURISTIC_CONSTANTS.items():
            if key in payload and payload[key] != legal:
                raise SerializationError(
                    f"invalid {label}: retired field {key!r} must be {legal!r},"
                    f" got {payload[key]!r}"
                )
        payload = {
            key: value for key, value in payload.items() if key not in _RETIRED_HEURISTIC_FIELDS
        }
    known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(payload) - known
    if unknown:
        raise SerializationError(f"unknown {label} fields: {sorted(unknown)}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as error:
        raise SerializationError(f"invalid {label}: {error}") from error


def request_to_dict(request: SolveRequest) -> dict[str, Any]:
    """Serialise a :class:`SolveRequest` into the service wire format (the
    inverse of :func:`request_from_dict`; also the WAL journal format)."""
    payload: dict[str, Any] = {
        "problem": problem_to_dict(request.problem),
        "method": request.method,
    }
    if request.heuristic_settings is not None:
        payload["heuristic_settings"] = asdict(request.heuristic_settings)
    if request.exact_settings is not None:
        payload["exact_settings"] = asdict(request.exact_settings)
    return payload


def map_distinct(
    items: Sequence[Any],
    function: Callable[[Any], Any],
    keys: Iterable[Hashable] | None = None,
) -> list[Any]:
    """``[function(item) for item in items]``, calling ``function`` once per
    distinct key; items with equal keys share one result object.

    ``keys`` runs parallel to ``items`` and defaults to object identity,
    which is exact while ``items`` keeps every object alive.  ``function``
    runs in item order, so an item that makes it raise raises on its first
    occurrence, as the plain loop would.
    """
    results: dict[Hashable, Any] = {}
    mapped: list[Any] = []
    for item, key in zip(items, map(id, items) if keys is None else keys):
        if key not in results:
            results[key] = function(item)
        mapped.append(results[key])
    return mapped


def _request_identity(request: SolveRequest) -> tuple[int, str, int, int]:
    """Requests with equal keys serialise to the same document.

    The key holds the *identities* of the request's frozen parts: settings
    of equal value may still spell a number differently (``1`` vs ``1.0``),
    and only the same object is sure to encode the same.
    """
    return (
        id(request.problem),
        request.method,
        id(request.heuristic_settings),
        id(request.exact_settings),
    )


def requests_to_documents(requests: Sequence[SolveRequest]) -> list[dict[str, Any]]:
    """Serialise a request list for the wire or the WAL journal.

    Each distinct request is serialised once and its duplicates share the
    document object (batches are duplicate-heavy by design), so a caller
    can encode each distinct document once with :func:`map_distinct`.
    """
    return map_distinct(requests, request_to_dict, map(_request_identity, requests))


#: Bounded memo of decoded front-door requests: element source text ->
#: :class:`SolveRequest`, whose fingerprint is memoized on the object.  An
#: entry for a case-study request weighs about 11 KB (tracemalloc: 8.6 KB
#: decoded and fingerprinted, plus its 1.8 KB text), so 128 entries hold
#: about 1.4 MB, about 1% of a serving process.
_request_memo: "Memo[str, SolveRequest]" = Memo(128)
#: Hashes of texts decoded once and not memoized.  A text enters the memo
#: only when it repeats -- within one call, or in a later one while its
#: hash is remembered -- so traffic that never repeats (cold batches) adds
#: nothing to it and evicts nothing from it; 1024 hashes take about 70 KB.
_SIGHTINGS_LIMIT = 1024
_request_sightings: set[int] = set()
_sightings_lock = threading.Lock()


def request_memo_clear() -> None:
    """Drop every memoized decoded request (used by tests)."""
    _request_memo.clear()
    with _sightings_lock:
        _request_sightings.clear()


def requests_from_documents(
    documents: Sequence[Any],
    texts: Sequence[str] | None = None,
    counts: dict[str, int] | None = None,
) -> list[SolveRequest]:
    """Decode wire request documents, each distinct document once.

    Duplicate documents map to the *same* :class:`SolveRequest` object, so
    its memoized fingerprint is computed once per distinct document.  Two
    documents share a decode only when their texts are equal: the source
    texts ``texts`` from :func:`loads_batch`, else their ``json.dumps``
    texts.  Equal texts are the same JSON value spelled the same way;
    documents that differ in key order or number spelling decode separately
    (and may still share a fingerprint).  An invalid document raises the
    error of :func:`request_from_dict` at its first occurrence.

    Source texts (not ``json.dumps`` texts) that repeat also key a bounded
    LRU memo shared by every caller in the process, so a text sent again
    in a later batch or ``/solve`` is not decoded or fingerprinted again.
    ``counts``, when given, gains this call's ``"misses"`` (documents
    decoded) and ``"hits"`` (the rest).
    """
    shared = texts is not None
    if texts is None:
        # WAL replay: journal texts sort their keys, so wire texts never
        # match them; they are decoded once per call and not memoized.
        texts = [json.dumps(document) for document in documents]
    decoded: list[tuple[str, SolveRequest]] = []

    def decode(item: tuple[Any, str]) -> SolveRequest:
        document, text = item
        if shared:
            request = _request_memo.get(text)
            if request is not None:
                return request
        request = request_from_dict(document)
        decoded.append((text, request))
        return request

    requests = map_distinct(list(zip(documents, texts)), decode, texts)
    if shared and decoded:
        _memoize_repeats(decoded, Counter(texts))
    if counts is not None:
        counts["misses"] = counts.get("misses", 0) + len(decoded)
        counts["hits"] = counts.get("hits", 0) + len(requests) - len(decoded)
    return requests


def _memoize_repeats(
    decoded: Sequence[tuple[str, SolveRequest]], occurrences: Mapping[str, int]
) -> None:
    """Memoize each freshly decoded text that repeats; remember the rest."""
    with _sightings_lock:
        for text, request in decoded:
            sighting = hash(text)
            if occurrences[text] < 2 and sighting not in _request_sightings:
                if len(_request_sightings) >= _SIGHTINGS_LIMIT:
                    _request_sightings.clear()
                _request_sightings.add(sighting)
                continue
            _request_sightings.discard(sighting)
            _request_memo.put(text, request)


#: The pieces ``json.loads`` is made of, for :func:`loads_batch`.
_scan_value = json.JSONDecoder().scan_once
_skip_whitespace = json.decoder.WHITESPACE.match
#: Leading characters of an object element that, after the separator
#: following it, mark where a repeated element may end (see _scan_array).
_HEAD = 8
#: JSON's whitespace characters.
_WHITESPACE = " \t\n\r"


def loads_batch(text: str, key: str = "requests") -> tuple[Any, list[str] | None]:
    """``json.loads(text)``, plus the source text of each element of the
    top-level array ``key`` (``None`` when there is none).

    The elements are scanned one by one with ``json``'s own scanner, so the
    texts that key :func:`requests_from_documents` cost a slice each, not a
    ``json.dumps``.  An object element whose text repeats an earlier one is
    not scanned again when another element like it follows or it ends the
    body's last array: it shares the earlier element's value and text, so
    such duplicates come back as one object.  Any body the scan does
    not expect -- invalid JSON above all -- is handed to ``json.loads``,
    which raises its usual error.
    """
    try:
        return _scan_batch(text, key)
    except (ValueError, IndexError, StopIteration):  # JSONDecodeError is a ValueError
        return json.loads(text), None


def _scan_batch(text: str, array_key: str) -> tuple[dict[str, Any], list[str] | None]:
    payload: dict[str, Any] = {}
    texts: list[str] | None = None
    index = _skip_whitespace(text, 0).end()
    if text[index] != "{":
        raise ValueError("not an object")
    closing, index = _open(text, index, "}")
    while closing == ",":
        if text[index] != '"':
            raise ValueError("expected a key")
        key, index = json.decoder.scanstring(text, index + 1)
        index = _skip_whitespace(text, index).end()
        if text[index] != ":":
            raise ValueError("expected ':'")
        index = _skip_whitespace(text, index + 1).end()
        if key == array_key and text[index] == "[":
            value, texts, index = _scan_array(text, index)
        else:
            if key == array_key:  # a later duplicate key wins, as in json.loads
                texts = None
            value, index = _scan_value(text, index)
        payload[key] = value
        index = _skip_whitespace(text, index).end()
        closing = text[index]
        index = _skip_whitespace(text, index + 1).end()
    if closing != "}" or index != len(text):
        raise ValueError("not one object")
    return payload, texts


def _open(text: str, index: int, end: str) -> tuple[str, int]:
    """Step into the container opening at ``index``: ``(",", first item)``,
    or ``(end, past it)`` when the container is empty."""
    index = _skip_whitespace(text, index + 1).end()
    if text[index] == end:
        return end, _skip_whitespace(text, index + 1).end()
    return ",", index


def _scan_array(text: str, index: int) -> tuple[list[Any], list[str], int]:
    """The array at ``text[index] == "["``: its values, their source texts
    and the index past its closing bracket.

    A JSON object ends at its closing brace, so when the input at ``index``
    starts with the complete text of an object scanned before, that text is
    the whole element, and its value is reused.  Two candidate ends are
    probed per element: the next occurrence of ``marker`` (the separator
    and head that followed the first object element), where a repeat ends
    when an element like it follows, and the body's last ``]``, where the
    last element ends when the array closes the body.  The marker search
    resumes where the last one stopped, so it costs one pass over the
    array, and a candidate is sliced only when an element of its length
    was seen.
    """
    values: list[Any] = []
    texts: list[str] = []
    seen: dict[str, tuple[str, Any]] = {}
    lengths: set[int] = set()
    marker: str | None = None
    boundary = -1
    tail = text.rfind("]")
    while tail > index and text[tail - 1] in _WHITESPACE:
        tail -= 1
    closing, index = _open(text, index, "]")
    while closing == ",":
        known = None
        if marker is not None and boundary < index:
            boundary = text.find(marker, index)
            if boundary < 0:
                boundary = len(text)
        for stop in (boundary, tail):
            if stop - index in lengths:
                known = seen.get(text[index:stop])
                if known is not None:
                    break
        if known is None:
            start = index
            value, index = _scan_value(text, index)
            element = text[start:index]
            if element[0] == "{" and element not in seen:
                seen[element] = (element, value)
                lengths.add(len(element))
        else:
            (element, value), index = known, stop
        values.append(value)
        texts.append(element)
        end = index
        index = _skip_whitespace(text, index).end()
        closing = text[index]
        index = _skip_whitespace(text, index + 1).end()
        if marker is None and closing == "," and element[0] == "{":
            marker = text[end:index] + element[:_HEAD]
    if closing != "]":
        raise ValueError("expected ']'")
    return values, texts, index


def outcome_json(outcome: SolveOutcome) -> str:
    """The wire text of one outcome document (strict RFC 8259 JSON).

    Memoized on the outcome, which is frozen: warm answers are shared
    outcome objects (see :func:`decode_outcome`), so the batches and jobs
    that return one encode it once between them.
    """
    text = outcome.__dict__.get("_cached_json")
    if text is None:
        text = json.dumps(outcome.to_dict(), allow_nan=False)
        object.__setattr__(outcome, "_cached_json", text)
    return text


def outcome_document(outcome: SolveOutcome) -> dict[str, Any]:
    """The wire document of one outcome (``outcome.to_dict()``).

    Memoized on the outcome like :func:`outcome_json`, so every job and
    poll that returns a shared warm answer hands out the same dict instead
    of rebuilding it; callers must treat it as read-only.
    """
    document = outcome.__dict__.get("_cached_document")
    if document is None:
        document = outcome.to_dict()
        object.__setattr__(outcome, "_cached_document", document)
    return document


def json_with_array(
    head: dict[str, Any], key: str, texts: Sequence[str], allow_nan: bool = True
) -> str:
    """``json.dumps({**head, key: values})`` where ``texts`` are the values'
    ``json.dumps`` texts, byte for byte, without re-encoding them."""
    array = "[" + ", ".join(texts) + "]"
    head_text = json.dumps(head, allow_nan=allow_nan)
    separator = ", " if head else ""
    return f"{head_text[:-1]}{separator}{json.dumps(key)}: {array}}}"


def request_from_dict(payload: Mapping[str, Any]) -> SolveRequest:
    """Build a :class:`SolveRequest` from a service JSON document."""
    if not isinstance(payload, Mapping):
        raise SerializationError("a solve request must be a JSON object")
    if "problem" not in payload:
        raise SerializationError("a solve request needs a 'problem' section")
    method = str(payload.get("method", "gp+a"))
    if method not in METHODS:
        raise SerializationError(f"unknown method {method!r}; options: {METHODS}")
    return SolveRequest(
        problem=problem_from_dict(payload["problem"]),
        method=method,
        heuristic_settings=_settings_from_dict(
            HeuristicSettings, payload.get("heuristic_settings"), "heuristic_settings"
        ),
        exact_settings=_settings_from_dict(
            ExactSettings, payload.get("exact_settings"), "exact_settings"
        ),
    )


@dataclass
class BatchReport:
    """Where each answer of one ``solve_batch`` call came from."""

    total: int = 0
    unique: int = 0
    duplicates: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    solves: int = 0
    runtime_seconds: float = 0.0
    fingerprints: list[str] = field(default_factory=list)
    #: Solver work counters (LP solves, packer nodes, memo hits, ...) summed
    #: over the freshly solved requests of the batch -- cached answers add
    #: nothing, so these measure the actual work the batch caused.
    solver_counters: dict[str, int] = field(default_factory=dict)

    def add_solver_counters(self, counters: Mapping[str, Any]) -> None:
        accumulate_counters(self.solver_counters, counters)

    def as_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "unique": self.unique,
            "duplicates": self.duplicates,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "solves": self.solves,
            "runtime_seconds": self.runtime_seconds,
            "solver_counters": dict(self.solver_counters),
        }


def solve_batch(
    requests: Sequence[SolveRequest],
    store: ResultStore | None = None,
) -> tuple[list[SolveOutcome], BatchReport]:
    """Answer a batch of requests with the minimum number of solves.

    Returns the outcomes in request order plus a :class:`BatchReport` whose
    counters prove the dedupe: ``solves`` equals the number of distinct
    fingerprints that were in no cache tier.  Outcomes of duplicate requests
    are the *same object* (they are semantically one result).

    Cacheable outcomes (everything but ``ERROR``) are written back to the
    store under their request fingerprint.  Misses are solved in this
    process, one after another, in request order.
    """
    start = time.perf_counter()
    store = store if store is not None else ResultStore()
    request_list = list(requests)

    report = BatchReport(total=len(request_list))
    with span("batch_fingerprint"):
        fingerprints = [request.fingerprint() for request in request_list]
        report.fingerprints = fingerprints

        # First occurrence of every fingerprint defines the canonical request.
        first_of: dict[str, SolveRequest] = {}
        for request, print_ in zip(request_list, fingerprints):
            first_of.setdefault(print_, request)
        report.unique = len(first_of)
        report.duplicates = report.total - report.unique

    # Tier lookups for the unique fingerprints.
    outcomes_by_print: dict[str, SolveOutcome] = {}
    missing: list[tuple[str, SolveRequest]] = []
    with span("batch_lookup"):
        for print_, request in first_of.items():
            lookup = store.get(print_)
            if lookup.hit:
                assert lookup.payload is not None
                outcomes_by_print[print_] = decode_outcome(
                    lookup.payload, request.problem, fingerprint=print_
                )
                if lookup.tier == "memory":
                    report.memory_hits += 1
                else:
                    report.disk_hits += 1
            else:
                missing.append((print_, request))

    if missing:
        with span("batch_solve"):
            for print_, request in missing:
                outcome = solve(
                    request.problem,
                    request.method,
                    request.heuristic_settings,
                    request.exact_settings,
                )
                report.solves += 1
                outcomes_by_print[print_] = outcome
                report.add_solver_counters(outcome.counters)
                if outcome.status is not SolveStatus.ERROR:
                    store.put(print_, encode_outcome(outcome, request.problem))

    report.runtime_seconds = time.perf_counter() - start
    # Duplicate requests share one outcome object -- unless their platform
    # spells the same fleet with the classes in a different order, in which
    # case the counts must be permuted into *that* request's FPGA order
    # (the same canonicalisation the store roundtrip performs).  Platforms
    # with matching canonical FPGA orders (both identity for homogeneous or
    # already-canonical fleets) agree position-by-position on every cap, so
    # the object can be shared outright.
    results: list[SolveOutcome] = []
    for request, print_ in zip(request_list, fingerprints):
        outcome = outcomes_by_print[print_]
        owner = first_of[print_]
        if (
            request is not owner
            and outcome.solution is not None
            and request.problem.platform is not owner.problem.platform
            and canonical_fpga_order(request.problem.platform)
            != canonical_fpga_order(owner.problem.platform)
        ):
            outcome = decode_outcome(encode_outcome(outcome, owner.problem), request.problem)
        results.append(outcome)
    return results, report
