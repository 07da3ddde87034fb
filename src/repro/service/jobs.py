"""Async batch jobs: enqueue, return an id immediately, poll for the result.

``/solve_batch`` historically blocked until the whole batch resolved, so one
large mixed batch could hold an HTTP connection for seconds while its tail
solved.  The job queue bounds that tail latency: ``mode=async`` submissions
enqueue the request list, return a job id in microseconds, and a pool of
background worker threads drains the queue through the same deduping,
memo-grouped :func:`repro.service.batch.solve_batch` chunker the sync path
uses -- so an async batch performs *exactly* the same solves, cache writes
and counter updates as its sync twin (the differential test suite holds the
service to that).

Lifecycle of a job::

    queued --> running --> done
                      \\-> failed   (the exception text lands in ``error``)

Completed jobs are retained for polling (bounded by ``max_retained``; the
oldest finished jobs are dropped first, queued/running jobs never).  Jobs
live in memory only -- they are coordination state, not results; every
solved outcome is also written to the result store under its fingerprint,
so nothing is lost when a finished job is eventually pruned.

Durability & backpressure (PR 8)
--------------------------------
With a :class:`~repro.service.wal.JobWal` attached, every submission is
journaled -- full request documents, fsynced -- *before* the ack returns,
and start/complete markers follow as the job moves; :meth:`JobQueue.recover`
re-enqueues every journaled-but-unfinished job after a restart (with its
original job id, so clients polling across a crash find their job again).
``max_queue_depth`` bounds admission: a submit past the bound raises
:class:`QueueFullError` instead of accepting work the queue cannot finish
-- the HTTP layer turns that into ``429`` + ``Retry-After``.  Recovery
bypasses the bound: a replayed job was already acknowledged, and an ack is
a promise.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .batch import (
    BatchReport,
    SolveRequest,
    json_with_array,
    map_distinct,
    outcome_document,
    outcome_json,
    requests_from_documents,
    requests_to_documents,
)
from .faults import inject
from .wal import JobWal

#: The four job states, in lifecycle order.
JOB_STATUSES = ("queued", "running", "done", "failed")


class QueueFullError(RuntimeError):
    """A submission was refused because the queue is at ``max_queue_depth``.

    Carries the observed depth and bound so the HTTP layer can derive a
    ``Retry-After`` from how much work is actually ahead of the caller.
    """

    def __init__(self, depth: int, max_depth: int):
        super().__init__(
            f"job queue is full ({depth} queued >= bound {max_depth}); retry later"
        )
        self.depth = depth
        self.max_depth = max_depth


@dataclass
class Job:
    """One asynchronous batch submission and (eventually) its result."""

    id: str
    total: int
    status: str = "queued"
    created_unix: float = 0.0
    started_unix: float | None = None
    finished_unix: float | None = None
    error: str | None = None
    report: dict[str, Any] | None = None
    fingerprints: list[str] | None = None
    #: Outcomes in request order; duplicate requests share one object.
    #: Their documents are built when the job is read (:meth:`JobQueue.get`,
    #: :meth:`JobQueue.get_json`), once per distinct outcome.
    outcomes: list[Any] | None = field(default=None, repr=False)
    #: The pending request list; dropped once the job has run.
    requests: list[SolveRequest] = field(default_factory=list, repr=False)
    #: Numeric id sequence (the WAL segment key); parallel to ``id``.
    sequence: int = 0
    #: True when the job was re-enqueued from the WAL after a restart.
    recovered: bool = False
    #: Set when the job reaches a terminal state (done/failed); lets waiters
    #: block on completion instead of polling.
    finished_event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def wait_seconds(self) -> float | None:
        """Queue wait: submission to the moment a worker picked the job up."""
        if self.started_unix is None:
            return None
        return max(0.0, self.started_unix - self.created_unix)

    @property
    def run_seconds(self) -> float | None:
        """Worker time: pickup to the terminal state (done/failed)."""
        if self.started_unix is None or self.finished_unix is None:
            return None
        return max(0.0, self.finished_unix - self.started_unix)

    def as_dict(self) -> dict[str, Any]:
        """The job document without its outcomes (see :meth:`JobQueue.get`)."""
        document: dict[str, Any] = {
            "job_id": self.id,
            "status": self.status,
            "total": self.total,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "wait_seconds": self.wait_seconds,
            "run_seconds": self.run_seconds,
        }
        if self.recovered:
            document["recovered"] = True
        if self.error is not None:
            document["error"] = self.error
        if self.report is not None:
            document["report"] = self.report
        if self.fingerprints is not None:
            document["fingerprints"] = self.fingerprints
        return document


class JobQueue:
    """A bounded in-memory job queue drained by background worker threads.

    Parameters
    ----------
    runner:
        Callable performing one batch (the service's ``solve_batch``); it
        returns ``(outcomes, report)`` exactly like
        :func:`repro.service.batch.solve_batch`.
    workers:
        Worker threads draining the queue.  Threads are started lazily on
        the first submission, so idle services (and the many tests that
        construct one) never spawn them.
    max_retained:
        Completed (done/failed) jobs kept for polling; the oldest finished
        jobs are pruned first once the bound is exceeded.
    on_finished:
        Optional observer called (outside the queue lock) with each job that
        reaches a terminal state; the service hooks its wait/run latency
        histograms here.  Observer errors are swallowed -- telemetry must
        never fail a job.
    wal:
        Optional :class:`~repro.service.wal.JobWal`.  When present, a
        submission is journaled (request documents, fsynced) before the ack
        and :meth:`recover` can re-enqueue unfinished jobs after a restart.
    max_queue_depth:
        Admission bound on *queued* (not running) jobs; a submit at the
        bound raises :class:`QueueFullError`.  ``None`` keeps the historic
        unbounded behaviour.
    start_workers:
        Test/chaos hook: ``False`` journals and registers submissions
        without ever starting worker threads -- the in-process equivalent
        of crashing right after the ack, used by the crash-recovery
        differential harness.
    """

    def __init__(
        self,
        runner: Callable[[Sequence[SolveRequest]], tuple[list, BatchReport]],
        workers: int = 1,
        max_retained: int = 256,
        clock: Callable[[], float] = time.time,
        on_finished: "Callable[[Job], None] | None" = None,
        wal: JobWal | None = None,
        max_queue_depth: int | None = None,
        start_workers: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retained < 1:
            raise ValueError("max_retained must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None for unbounded)")
        self._runner = runner
        self.workers = workers
        self.max_retained = max_retained
        self.wal = wal
        self.max_queue_depth = max_queue_depth
        self._start_workers = start_workers
        self._clock = clock
        self._on_finished = on_finished
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        #: Finished job ids in completion order (the pruning queue).  A
        #: deque: retention pressure drains from the head, and a list's
        #: ``pop(0)`` is O(n) per drop -- O(n^2) across a long backlog.
        self._finished_order: deque[str] = deque()
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._next_id = 0
        #: Submissions past admission but not yet registered (their WAL
        #: append is in flight); counted against ``max_queue_depth`` so a
        #: burst cannot overshoot the bound through the journaling window.
        self._pending_submits = 0
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.pruned = 0
        self.recovered = 0
        #: Journaled jobs recovered as ``failed`` because they no longer decode.
        self.unrecoverable = 0
        self.rejected = 0
        #: Accumulated queue-wait and worker-run time over finished jobs.
        self.wait_seconds_total = 0.0
        self.run_seconds_total = 0.0

    # ------------------------------------------------------------------ #
    # Submission / polling
    # ------------------------------------------------------------------ #
    def queue_depth(self) -> int:
        """Jobs currently waiting for a worker (queued, not running)."""
        with self._lock:
            return self._queued_depth_locked()

    def _queued_depth_locked(self) -> int:
        return (
            sum(1 for job in self._jobs.values() if job.status == "queued")
            + self._pending_submits
        )

    def submit(
        self,
        requests: Sequence[SolveRequest],
        documents: "Sequence[dict[str, Any]] | None" = None,
    ) -> dict[str, Any]:
        """Enqueue a batch; returns the job document (status ``queued``).

        Without a WAL the hot path is one lock acquisition and a queue put
        -- no fingerprinting, no serialisation -- so the submit latency
        stays in the tens of microseconds regardless of batch size.  With a
        WAL the submission is journaled and fsynced before this returns:
        the ack means the job survives ``kill -9``.  ``documents`` lets the
        HTTP layer hand over the already-parsed wire documents so the
        journal does not re-serialise every problem.
        """
        request_list = list(requests)
        if not request_list:
            raise ValueError("an async batch needs at least one request")
        with self._lock:
            if self._closed:
                raise RuntimeError("job queue is closed")
            if self.max_queue_depth is not None:
                depth = self._queued_depth_locked()
                if depth >= self.max_queue_depth:
                    self.rejected += 1
                    raise QueueFullError(depth=depth, max_depth=self.max_queue_depth)
            self._next_id += 1
            sequence = self._next_id
            self._pending_submits += 1
        job = Job(
            id=f"job-{sequence:08d}",
            total=len(request_list),
            created_unix=self._clock(),
            requests=request_list,
            sequence=sequence,
        )
        try:
            if self.wal is not None:
                inject("jobs.submit.journal")
                if documents is None:
                    documents = requests_to_documents(request_list)
                self.wal.journal_submit(
                    job.id, sequence, job.created_unix, list(documents)
                )
                inject("jobs.submit.ack")
        except BaseException:
            with self._lock:
                self._pending_submits -= 1
            raise
        with self._lock:
            self._pending_submits -= 1
            self._jobs[job.id] = job
            self.submitted += 1
            self._ensure_workers_locked()
            document = job.as_dict()
            # Enqueue under the lock: a concurrent close() must not slot its
            # shutdown sentinels ahead of an already-acknowledged job (the
            # workers would exit and the job would never run).
            self._queue.put(job.id)
        return document

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> int:
        """Re-enqueue every journaled-but-unfinished job from the WAL.

        Jobs come back with their original ids (clients polling across the
        restart find them again) and run through the same runner as fresh
        submissions -- the deduping batch path answers already-solved
        fingerprints from the result store, so replay is idempotent.  The
        id counter resumes past every journaled sequence, and recovery
        ignores ``max_queue_depth``: these jobs were already acknowledged.

        A journaled job whose documents no longer decode (for example a
        settings value a newer version rejects) cannot run, but its ack
        still stands: it comes back under its original id as ``failed``,
        with the decode error as its reason, and counts as
        ``unrecoverable``.  Returns the number of jobs re-enqueued.
        """
        if self.wal is None:
            return 0
        records, max_sequence = self.wal.replay()
        # Reserve the journaled id range *before* re-enqueuing anything: a
        # submission racing this replay must never be issued a sequence that
        # collides with a job about to be recovered.
        with self._lock:
            self._next_id = max(self._next_id, max_sequence)
        recovered = 0
        for record in records:
            documents = record.get("requests")
            job = Job(
                id=str(record["job_id"]),
                total=len(documents) if isinstance(documents, list) else 0,
                created_unix=float(record.get("created_unix", self._clock())),
                sequence=int(record.get("seq", 0)),
                recovered=True,
            )
            try:
                job.requests = requests_from_documents(documents)
            except Exception as error:
                self._fail_unrecoverable(job, error)
                continue
            with self._lock:
                if self._closed:
                    break
                if job.id in self._jobs:  # already recovered (double call)
                    continue
                self._jobs[job.id] = job
                self.submitted += 1
                self.recovered += 1
                self._ensure_workers_locked()
                self._queue.put(job.id)
            recovered += 1
        return recovered

    def _fail_unrecoverable(self, job: Job, error: Exception) -> None:
        """Register a journaled job that cannot be decoded as ``failed``."""
        with self._lock:
            if self._closed or job.id in self._jobs:
                return
            job.status = "failed"
            job.error = f"unrecoverable WAL record: {type(error).__name__}: {error}"
            job.finished_unix = self._clock()
            job.finished_event.set()
            self._jobs[job.id] = job
            self.submitted += 1
            self.failed += 1
            self.unrecoverable += 1
            self._finished_order.append(job.id)
            self._prune_locked()
        if self.wal is not None:
            try:
                self.wal.journal_complete(job.id, job.sequence, job.status)
            except OSError:
                pass  # the record is replayed, and failed again, next restart

    def get(self, job_id: str, include_outcomes: bool = True) -> dict[str, Any] | None:
        """Current document of one job, or ``None`` for unknown ids.

        A finished job's outcome documents are read-only and shared: each
        distinct outcome's document is built once (see
        :func:`~repro.service.batch.outcome_document`), and duplicates, later
        polls and other jobs answering the same outcome return that object.
        """
        document, outcomes = self._read(job_id)
        if include_outcomes and outcomes is not None:
            document["outcomes"] = map_distinct(outcomes, outcome_document)
        return document

    def get_json(self, job_id: str) -> str | None:
        """``json.dumps(self.get(job_id), allow_nan=False)``, byte for byte,
        or ``None`` for unknown ids, reusing each outcome's wire text."""
        document, outcomes = self._read(job_id)
        if outcomes is None:
            return None if document is None else json.dumps(document, allow_nan=False)
        texts = map_distinct(outcomes, outcome_json)
        return json_with_array(document, "outcomes", texts, allow_nan=False)

    def _read(self, job_id: str) -> tuple[dict[str, Any] | None, list[Any] | None]:
        with self._lock:
            job = self._jobs.get(job_id)
            return (None, None) if job is None else (job.as_dict(), job.outcomes)

    def list_jobs(self) -> list[dict[str, Any]]:
        """Summaries (no outcome payloads) of every retained job, oldest first."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda job: job.id)
            return [job.as_dict() for job in jobs]

    def wait(self, job_id: str, timeout_seconds: float = 60.0) -> dict[str, Any]:
        """Block until a job finishes (in-process convenience for tests/CLI).

        Waits on the job's completion event -- no polling latency, so a warm
        async batch costs barely more than its synchronous twin.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            event = job.finished_event
        if not event.wait(timeout=timeout_seconds):
            document = self.get(job_id)
            status = document["status"] if document else "pruned"
            raise TimeoutError(f"job {job_id} still {status} after {timeout_seconds} s")
        document = self.get(job_id)
        if document is None:  # pruned between completion and this read
            raise KeyError(f"job {job_id} finished but was pruned before the read")
        return document

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        with self._lock:
            by_status = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                by_status[job.status] += 1
            # by_status first: its "failed" key (retained failed jobs) must
            # not shadow the cumulative failure counter below.
            return {
                **by_status,
                "workers": self.workers,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "pruned": self.pruned,
                "recovered": self.recovered,
                "unrecoverable": self.unrecoverable,
                "rejected": self.rejected,
                "max_queue_depth": self.max_queue_depth,
                "retained": len(self._jobs),
                "queue_depth": by_status["queued"] + self._pending_submits,
                "wait_seconds_total": self.wait_seconds_total,
                "run_seconds_total": self.run_seconds_total,
            }

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #
    def _ensure_workers_locked(self) -> None:
        if not self._start_workers:
            return
        while len(self._threads) < self.workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:  # shutdown sentinel
                self._queue.task_done()
                return
            self._run_job(job_id)
            self._queue.task_done()

    def _run_job(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:  # pruned before it ran (close() drained it)
                return
            job.status = "running"
            job.started_unix = self._clock()
            requests = job.requests
        # The start marker is buffered, not fsynced: losing it just means a
        # restart replays the batch, and replay is idempotent (the result
        # store answers every already-solved fingerprint).
        inject("jobs.run.start")
        if self.wal is not None:
            try:
                self.wal.journal_start(job.id, job.sequence)
            except OSError:
                pass  # journaling is best-effort past the ack
        try:
            outcomes, report = self._runner(requests)
            with self._lock:
                job.report = report.as_dict()
                job.fingerprints = list(report.fingerprints)
                job.outcomes = list(outcomes)
                job.status = "done"
                job.finished_unix = self._clock()
                job.requests = []
                self.completed += 1
                self.wait_seconds_total += job.wait_seconds or 0.0
                self.run_seconds_total += job.run_seconds or 0.0
                self._finished_order.append(job.id)
                job.finished_event.set()
                self._prune_locked()
        except Exception as error:  # a failed batch must not kill the worker
            with self._lock:
                job.status = "failed"
                job.error = f"{type(error).__name__}: {error}"
                job.finished_unix = self._clock()
                job.requests = []
                self.failed += 1
                self.wait_seconds_total += job.wait_seconds or 0.0
                self.run_seconds_total += job.run_seconds or 0.0
                self._finished_order.append(job.id)
                job.finished_event.set()
                self._prune_locked()
        self._journal_complete(job)
        self._notify_finished(job)

    def _journal_complete(self, job: Job) -> None:
        """Journal the terminal state (buffered; may trigger compaction).

        A crash between completion and this marker re-runs the job on
        recovery -- wasteful but correct, since every outcome was already
        written to the result store and the replay dedupes against it.
        """
        inject("jobs.run.complete")
        if self.wal is None:
            return
        try:
            self.wal.journal_complete(job.id, job.sequence, job.status)
        except OSError:
            pass  # journaling is best-effort past the ack

    def _notify_finished(self, job: Job) -> None:
        if self._on_finished is None:
            return
        try:
            self._on_finished(job)
        except Exception:  # pragma: no cover - observers must not kill workers
            pass

    def _prune_locked(self) -> None:
        while len(self._jobs) > self.max_retained and self._finished_order:
            oldest = self._finished_order.popleft()
            if self._jobs.pop(oldest, None) is not None:
                self.pruned += 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout_seconds: float = 30.0) -> None:
        """Stop accepting work and join the workers (pending jobs finish)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=timeout_seconds)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
